"""Tests of the benchmark itself.

Every output check is shown to fail on corrupted output, the tracer's
self times account for the traced wall time, tracing leaves outputs
unchanged, the thm17 workload's outputs do not depend on the thread
count, and the reference kernel does fixed work. Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = workloads.import_program()


def _run(out: Path, *argv) -> Path:
    assert cli.main(["--out-dir", str(out), *argv]) == 0
    return out


# -- walk_trace checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("walk")
    return _run(out, "--seed", "5", "validate-degrees", "--n", "2000", "--dump-trace", "1")


def _walk_arrays(walk_dir):
    trace = np.loadtxt(walk_dir / "trace.csv", delimiter=",", skiprows=1, dtype=np.int64)
    deg = np.loadtxt(walk_dir / "degrees.csv", delimiter=",", skiprows=1, dtype=np.int64)
    return trace[:, 0], trace[:, 1].copy(), trace[:, 2].copy(), int(deg[:, 0].sum()), int(deg[:, 1].sum())


def test_walk_check_passes_on_cli_output(walk_dir):
    assert checks.check_walk(walk_dir) == []


def test_walk_check_catches_a_wrong_minimum(walk_dir):
    t, X, Y, white, black = _walk_arrays(walk_dir)
    first = int(np.argmax(X <= -4))  # tau_2
    X[first] = -5
    assert any("X(tau_2)" in f for f in checks.walk_failures(t, X, Y, white, black))


def test_walk_check_catches_a_wrong_final_x(walk_dir):
    t, X, Y, white, black = _walk_arrays(walk_dir)
    fails = checks.walk_failures(t, X, Y, white + 2, black)
    assert any("X(final)" in f for f in fails)


def test_walk_check_catches_a_wrong_final_y(walk_dir, tmp_path):
    deg = (walk_dir / "degrees.csv").read_text().splitlines()
    w, b = deg[1].split(",")
    deg[1] = f"{w},{int(b) + 1}"
    (tmp_path / "degrees.csv").write_text("\n".join(deg) + "\n")
    (tmp_path / "trace.csv").write_bytes((walk_dir / "trace.csv").read_bytes())
    assert any("Y(final)" in f for f in checks.check_walk(tmp_path))


def test_walk_check_needs_every_step(walk_dir):
    t, X, Y, white, black = _walk_arrays(walk_dir)
    keep = np.arange(t.size) != 3
    assert checks.walk_failures(t[keep], X[keep], Y[keep], white, black)


# -- mc2_blocks checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def masses_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mcmw")
    return _run(out, "--seed", "3", "mcmw", "--masses", "0.5,0.25,0.125,0.1",
                "--weights", "1.5,1,0.5,2", "--time", "1", "--reps", "50")


X4 = np.array([0.5, 0.25, 0.125, 0.1])


def test_mass_check_passes_on_cli_output(masses_dir):
    assert checks.check_masses(masses_dir, X4, 50) == []


def test_mass_check_catches_lost_mass(masses_dir):
    masses = np.loadtxt(masses_dir / "mcmw_masses.csv", delimiter=",")
    masses[7, -1] += 1e-6
    assert any("sums to" in f for f in checks.mass_failures(masses, X4, 50))


def test_mass_check_catches_an_unordered_row(masses_dir):
    masses = np.loadtxt(masses_dir / "mcmw_masses.csv", delimiter=",")
    masses[2] = masses[2, ::-1]
    if np.all(np.diff(masses[2]) <= 0):  # all four blocks merged
        masses[2] = [0.0, X4.sum(), 0.0, 0.0]
    assert any("non-increasing" in f for f in checks.mass_failures(masses, X4, 50))


def test_mass_check_catches_missing_rows(masses_dir):
    masses = np.loadtxt(masses_dir / "mcmw_masses.csv", delimiter=",")
    assert checks.mass_failures(masses[:-1], X4, 50)


# -- thm report checks ---------------------------------------------------------


def _report(overrides=None):
    """A passing report on GRID, with per-n record fields overridden."""
    records = [
        {"n": n, "statistic": 0.1, "p_value": 0.5, "statistic_black": 0.1, "p_value_black": 0.5}
        for n in (1000, 10000, 100000)
    ]
    for rec in records:
        rec.update((overrides or {}).get(rec["n"], {}))
    return {"records": [r for r in records if not r.get("drop")]}


GRID = [1000, 10000, 100000]


def test_report_check_passes_on_a_good_report():
    assert checks.report_failures(_report(), GRID, "thm16") == []


def test_report_check_catches_a_missing_n():
    assert checks.report_failures(_report({10000: {"drop": True}}), GRID, "thm17")


@pytest.mark.parametrize("key,value", [("statistic", 1.5), ("p_value", float("nan")), ("p_value_black", -0.1)])
def test_report_check_catches_values_outside_unit_interval(key, value):
    assert checks.report_failures(_report({1000: {key: value}}), GRID, "thm16")


def test_thm16_gate_fails_when_the_limit_law_is_rejected():
    report = _report({100000: {"statistic": 0.6, "p_value": 1e-12}})
    fails = checks.report_failures(report, GRID, "thm16")
    assert any("thm16 gate" in f for f in fails)
    # thm17 is reported, not gated: its KS saturates at desk scale
    assert checks.report_failures(report, GRID, "thm17") == []


def test_report_check_reads_cli_output(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("experiment=thm17\nn_grid=200,300\nreplicates=20\nlimit_replicates=20\nmaster_seed=3\nK_max=5\n")
    _run(tmp_path / "out", "--config", str(cfg))
    assert checks.check_report(tmp_path / "out", [200, 300], "thm17") == []
    assert checks.check_report(tmp_path / "out", [200, 300, 400], "thm17")


# -- determinism digest --------------------------------------------------------


def test_digest_ignores_the_manifest_and_sees_every_byte(masses_dir, tmp_path):
    for f in masses_dir.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    base = checks.output_digest(tmp_path)
    (tmp_path / "manifest.json").write_text("{}")
    assert checks.output_digest(tmp_path) == base
    data = bytearray((tmp_path / "mcmw_masses.csv").read_bytes())
    data[0] ^= 1
    (tmp_path / "mcmw_masses.csv").write_bytes(bytes(data))
    assert checks.output_digest(tmp_path) != base


def test_thm17_grid_digest_does_not_depend_on_threads(tmp_path):
    digests = {}
    for threads in (1, 2):
        (tmp_path / f"work{threads}").mkdir()
        wl = workloads.thm17_grid(7, tmp_path / f"work{threads}", threads=threads)
        out = _run(tmp_path / f"out{threads}", *wl.invocations[0].argv)
        assert wl.invocations[0].check(out) == []
        digests[threads] = checks.output_digest(out)
    assert digests[1] == digests[2]


# -- tracing -------------------------------------------------------------------


def _span(name, start, end, parent=None, thread=0):
    return tracing.Span(name, start, end, parent, thread)


def test_self_time_subtracts_children_on_one_thread():
    a = _span("a", 0, 10)
    b = _span("b", 2, 5, a)
    spans = [a, b, _span("c", 3, 4, b)]
    assert tracing.self_times(spans) == pytest.approx([7, 2, 1])


def test_self_time_shares_overlapping_worker_spans():
    p = _span("p", 0, 10)
    spans = [p, _span("w", 1, 4, p, 1), _span("w", 2, 6, p, 2)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5, 2, 3])
    assert sum(selfs) == pytest.approx(10)


def test_tracer_covers_the_pass_and_leaves_outputs_unchanged(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("experiment=thm17\nn_grid=300,1000\nreplicates=20\nlimit_replicates=30\n"
                   "master_seed=11\nK_max=5\nthreads=2\n")
    import hcmsim.graphs
    import hcmsim.stats

    original = hcmsim.stats.component_table
    plain = checks.output_digest(_run(tmp_path / "plain", "--config", str(cfg)))
    tracer = tracing.Tracer()
    tracer.install()
    assert hcmsim.stats.component_table is not original
    try:
        t0 = time.perf_counter()
        _run(tmp_path / "traced", "--config", str(cfg))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert hcmsim.stats.component_table is original is hcmsim.graphs.component_table
    assert checks.output_digest(tmp_path / "traced") == plain

    summary = tracing.summarize(tracer.spans)
    for name in ("cli.main", "stats.experiment", "graphs.component_table", "dynamics.run_dynamic",
                 "dynamics.component_sizes", "coalescent.mcmw_graphical", "core.stream_gen"):
        assert summary[name]["calls"] > 0, name
    values = tracing.layer_metrics(summary, tracer.segments, wall)
    assert set(values) == {name for name, _ in tracing.METRICS}
    attributed = sum(e["self_s"] for e in summary.values())
    assert attributed <= wall + 1e-9
    assert values["trace.unattributed_s"] == pytest.approx(wall - attributed)
    assert 0 < values["dynamics.events_per_q0"] < 1
    assert values["paths.segments"] > 0


# -- calibration ---------------------------------------------------------------


def test_reference_kernel_does_fixed_work():
    mix = dict.fromkeys(calibrate.PARTS, 1)
    assert calibrate.kernel(mix) == calibrate.kernel(mix)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_has_a_reference_kernel(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "critical_blocks", lambda seed: (np.ones(250), np.ones(250)))
    mix = workloads.make(name, 1, tmp_path).calibration
    assert mix and set(mix) <= set(calibrate.PARTS)
    assert calibrate.nominal_s(mix) > 0


def test_reference_timing_leaves_the_garbage_collector_as_it_was():
    import gc

    mix = {"walk": 1}
    assert gc.isenabled()
    assert calibrate.reference_s(mix) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.reference_s(mix)
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
