"""FleetDriver integration: small fleets through the full fabric."""

import pytest

from repro.errors import ReproError
from repro.fleet import FleetDriver, FleetReport, ScenarioSpec, fleet_of


def _small_fleet(n=3, **overrides):
    overrides.setdefault("duration", 2.0)
    overrides.setdefault("cadence", 0.5)
    return fleet_of(n, stagger=0.25, **overrides)


def test_fleet_runs_every_session_to_completion():
    driver = FleetDriver(_small_fleet(3), n_sites=2)
    report = driver.run()
    assert report.n_sessions == 3
    assert report.completed == 3
    assert report.failed == 0
    assert report.timeouts == 0
    # Every session issued its steering ops plus observer status polls.
    assert report.ops >= 3 * 4
    assert report.steer_p50 > 0
    assert report.makespan < driver.deadline()


def test_registry_holds_steering_and_viz_handles_per_session():
    driver = FleetDriver(_small_fleet(3), n_sites=2)
    driver.run()
    # Federation: every site front-end sees the same global entries.
    for site in driver.sites:
        entries = site.registry.find({})
        assert len(entries) == 2 * 3
    by_type = {}
    for e in driver.sites[0].registry.find({}):
        by_type.setdefault(e["metadata"]["type"], []).append(e)
    assert len(by_type["steering"]) == 3
    assert len(by_type["viz-steering"]) == 3


def test_sessions_steer_distinct_applications():
    specs = _small_fleet(2, participants=1)
    driver = FleetDriver(specs, n_sites=2)
    report = driver.run()
    assert report.completed == 2
    # Per-session telemetry exists under each spec name.
    assert set(driver.telemetry.sessions) == {s.name for s in specs}
    for tel in driver.telemetry.sessions.values():
        assert tel.ops == specs[0].n_ops
        assert tel.admitted_at is not None
        assert tel.finished_at > tel.admitted_at


def test_profile_placement_uses_matching_link():
    # A transatlantic session must see >= 2*45ms per steer round trip;
    # a campus session must be far below that.
    specs = [
        ScenarioSpec(name="slow", sim="building", profile="transatlantic",
                     duration=2.0, cadence=0.5, participants=1),
        ScenarioSpec(name="fast", sim="building", profile="campus",
                     duration=2.0, cadence=0.5, participants=1),
    ]
    driver = FleetDriver(specs, n_sites=1)
    report = driver.run()
    assert report.completed == 2
    slow = driver.telemetry.sessions["slow"].steer_latency
    fast = driver.telemetry.sessions["fast"].steer_latency
    assert slow.percentile(50) >= 0.09
    assert fast.percentile(50) <= 0.05


def test_unusual_profile_gets_dedicated_client_host():
    specs = [ScenarioSpec(name="dsl-user", profile="dsl",
                          duration=1.0, cadence=0.5, participants=1)]
    driver = FleetDriver(specs, n_sites=1)
    report = driver.run()
    assert report.completed == 1
    assert "obs-dsl-0" in driver.net.hosts


def test_cancel_in_the_admitting_instant_fails_the_session_cleanly():
    driver = FleetDriver(n_sites=2)
    seen = []
    driver.session_observers.append(lambda kind, name, site: seen.append(kind))
    spec = fleet_of(1)[0]
    driver.admit(spec)
    assert driver.request_steer(spec.name, 0.5)
    assert driver.cancel_session(spec.name, "now")
    driver.env.run(until=5.0)  # the site pumps poll forever
    assert spec.name not in driver.active
    assert spec.name not in driver.steer_requests
    assert driver.telemetry.session(spec.name).failure == "cancelled: now"
    assert seen == ["start", "cancel"]


def test_driver_rejects_bad_fleets():
    with pytest.raises(ReproError):
        FleetDriver([])
    dup = [ScenarioSpec(name="same"), ScenarioSpec(name="same")]
    with pytest.raises(ReproError):
        FleetDriver(dup)


def test_report_round_trips_to_dict():
    driver = FleetDriver(_small_fleet(2, participants=1), n_sites=1)
    report = driver.run(wall_seconds=1.25)
    assert isinstance(report, FleetReport)
    d = report.to_dict()
    assert d["sessions"] == 2 and d["completed"] == 2
    assert d["wall_seconds"] == 1.25
    assert d["steer_p50_ms"] > 0
    text = report.render(per_session=True)
    assert "2/2 sessions completed" in text
    for spec_row in report.per_session:
        assert spec_row.name in text
