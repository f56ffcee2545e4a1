"""The optimized kernel must not change a single reported byte.

Every kernel change (slotted events, tombstoned interrupts, parked viz
pumps, stop-exiting steering pumps, bit-exact roll kernels, cached wire
sizes, the single heapq event queue) is only admissible because
same-seed runs stay *byte-for-byte* identical to the seed behaviour.
The fleet and chaos goldens under ``tests/golden/`` were generated from
the pre-optimization tree, the campaign-cell golden from the tree that
still carried the calendar-queue scheduler (both of its backends agreed
on it); these tests fail on any drift — in latencies, counters, chaos
recovery verdicts or invariant results.
"""

import json
import pathlib

from repro.fleet import FleetDriver, fleet_of

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _fleet_report(n: int = 8):
    specs = fleet_of(n, stagger=0.2)
    driver = FleetDriver(specs, n_sites=4)
    report = driver.run(wall_seconds=None)
    return report, driver


def test_fleet_report_matches_seed_golden():
    report, _driver = _fleet_report()
    golden = json.loads((GOLDEN / "fleet_report_8.json").read_text())
    assert report.to_dict() == golden


def test_fleet_report_serialization_is_byte_identical():
    report, _driver = _fleet_report()
    ours = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    golden = (GOLDEN / "fleet_report_8.json").read_text().rstrip("\n")
    assert ours == golden


def test_same_seed_runs_are_identical():
    a, _ = _fleet_report()
    b, _ = _fleet_report()
    assert a.to_dict() == b.to_dict()


def test_chaos_cell_matches_seed_golden():
    # The compound outage+vbroker chaos cell: report, recovery verdict
    # and invariant results all pinned against the seed tree.
    from benchmarks.bench_chaos import _run

    report, verdict, _wall = _run("outage+vbroker")
    golden = json.loads((GOLDEN / "chaos_outage_vbroker.json").read_text())
    assert report.to_dict() == golden["report"]
    assert verdict == golden["verdict"]
    assert verdict["invariant_violations"] == 0


def test_campaign_cell_matches_golden():
    # One campaign cell (arrivals + faults + placement over the full
    # stack); everything but the wall-clock `perf` envelope is pinned.
    from repro.campaign import AxisPoint, CampaignSpec, run_cell

    spec = CampaignSpec(
        name="xbackend",
        seed=11,
        base={"n_sites": 2, "queue_slots": 2, "queue_limit": 8,
              "horizon": 3.0, "until": 40.0},
        scenarios=[AxisPoint("paper", {
            "suite": "paper", "duration": 1.0, "cadence": 0.5,
            "participants": 1,
        })],
        arrivals=[AxisPoint("poisson", {"kind": "poisson", "rate": 1.5})],
        faults=[AxisPoint("crash", {"faults": [
            {"kind": "container-crash", "at": 1.2, "site": 0,
             "duration": 2.0},
        ]})],
        policies=[AxisPoint("ll", {"placement": "least-loaded"})],
    )
    [cell] = spec.cells()
    rec = {k: v for k, v in run_cell(cell).items() if k != "perf"}
    ours = json.dumps(rec, indent=2, sort_keys=True)
    golden = (GOLDEN / "campaign_cell_xbackend.json").read_text().rstrip("\n")
    assert ours == golden


def test_pumps_stop_burning_events_after_sessions_end():
    # The run deadline leaves ~45 virtual seconds of grace after the
    # last session; at 100 polls/sec/pump the seed kernel burned >9000
    # events per session on silence.  The stop-exiting steering pump and
    # the parked viz pump must keep the event count in the same order of
    # magnitude as the actual message traffic.
    report, driver = _fleet_report(1)
    assert report.completed == 1
    assert driver.env.events_processed < 4000, driver.env.events_processed
