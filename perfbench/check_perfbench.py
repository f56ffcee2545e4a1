"""Tests of the benchmark itself: what it adds to a pass changes no output.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/check_perfbench.py

The file is not named ``test_*.py``, so the repository's own test run
does not collect these full passes (about a minute together).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

import layers
import refunit
import run as bench
import worlds

worlds.use_source_tree()


@pytest.fixture(scope="module", params=worlds.WORKLOADS)
def plain(request):
    """An unobserved pass of each workload at its canonical seed."""
    return request.param, worlds.run_pass(request.param)


def test_plain_pass_matches_pins(plain):
    workload, outcome = plain
    want = worlds.expected(worlds.load_pins(), workload, None)
    assert worlds.mismatches(outcome, want) == []


def test_tick_process_leaves_output_byte_identical(plain):
    workload, outcome = plain
    ticker = bench.Ticker()
    ticked = worlds.run_pass(workload, None, ticker)
    assert ticker.samples, "the reference unit never ran"
    ticked.counts["events"] -= ticker.events
    # campaign-smoke's report carries every cell's row, so cells are
    # covered by the same comparison
    assert json.dumps(ticked.report, sort_keys=True) == json.dumps(outcome.report, sort_keys=True)
    assert ticked.pinned() == outcome.pinned()


def test_traced_pass_is_byte_identical_and_closes(plain):
    from repro.des.core import Environment

    workload, outcome = plain
    tracer = layers.Tracer()
    with tracer:
        traced = worlds.run_pass(workload, None, tracer)
    assert not hasattr(Environment.step, "__wrapped__"), "wrappers left installed"
    assert traced.pinned() == outcome.pinned()
    table = layers.layer_table(tracer, traced, outcome.wall)
    assert bench.layer_errors(table, traced.wall) == []
    assert table["des.events"] == outcome.counts["events"]
    assert table["steering.polls"] > 0 and table["wire.sizes"] > 0
    if workload == "campaign-smoke":
        assert table["campaign.cells"] == 12 and table["chaos.sweeps"] > 0
        assert table["load.offered"] >= table["load.admitted"] > 0


def test_reference_unit_is_frozen():
    assert refunit.unit() == refunit.EXPECTED


def test_default_seed_gives_the_canonical_inputs():
    from repro.campaign.presets import smoke
    from repro.fleet import fleet_of

    assert worlds.fleet_specs("fleet-128", worlds.effective_seed("fleet-128", None)) == fleet_of(
        128, stagger=0.2
    )
    assert worlds.effective_seed("campaign-smoke", None) == smoke().seed


def test_seed_offsets_every_fleet_session():
    base = worlds.fleet_specs("steer-storm", 0)
    moved = worlds.fleet_specs("steer-storm", 5)
    assert [s.seed for s in moved] == [s.seed + 5 for s in base]
    assert [s.name for s in moved] == [s.name for s in base]


def test_a_mismatch_fails_the_run(monkeypatch, capsys):
    pins = worlds.load_pins()
    pins["steer-storm"]["seeds"]["0"]["counts"]["messages"] += 1
    monkeypatch.setattr(worlds, "load_pins", lambda: pins)
    code = bench.main(["--workload", "steer-storm", "--seed", "0", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] == 2


def test_run_fails_without_the_source_tree():
    worlds.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worlds.OUT) as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(worlds.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            worlds.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet-128", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
