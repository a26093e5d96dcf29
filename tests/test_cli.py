import argparse
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from hcmsim import cli
from hcmsim.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, config_hash, main, parse_config
from test_stats import _off_by_one_ulp


def run_cli(args):
    return main(list(args))


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_no_experiment_exits_2():
    assert run_cli([]) == EXIT_CONFIG


def test_bad_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG


def test_parse_config_types(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(
        """
# comment line
experiment = thm16
n_grid = 100,200
tau = 3.4
replicates = 7
"""
    )
    parsed = parse_config(str(cfg))
    assert parsed["experiment"] == "thm16"
    assert parsed["n_grid"] == [100, 200]
    assert parsed["tau"] == 3.4
    assert parsed["replicates"] == 7
    assert config_hash(parsed) == config_hash(parse_config(str(cfg)))


def test_thm16_smoke_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "experiment=thm16\nn_grid=200,300\nreplicates=25\nlimit_replicates=30\n"
        f"master_seed=3\nK_max=5\nout_dir={tmp_path / 'out'}\n"
    )
    assert run_cli(["--config", str(cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "thm16_report.json").read_text())
    assert len(report["records"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "config_hash" in manifest and manifest["outputs"]
    assert manifest["versions"] == {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _outputs_at_thread_counts(tmp_path, monkeypatch, experiment, extra=""):
    """Each output but manifest.json of ``experiment`` on an uneven grid, by
    thread count: three n, each with its own replicate count."""
    make, made = cli._experiment_config, []

    def uneven(cfg):
        config = make(cfg)
        config.replicates_by_n = {300: 11, 400: 17}
        made.append([config.reps_for(n) for n in config.n_grid])
        return config

    monkeypatch.setattr(cli, "_experiment_config", uneven)
    outs = {}
    for threads in (1, 2, 8):
        out_dir = tmp_path / f"t{threads}"
        cfg = tmp_path / f"run{threads}.cfg"
        cfg.write_text(
            f"experiment={experiment}\nn_grid=200,300,400\nreplicates=14\nlimit_replicates=30\n{extra}"
            f"master_seed=5\nK_max=5\nthreads={threads}\nout_dir={out_dir}\n"
        )
        assert run_cli(["--config", str(cfg)]) == EXIT_OK
        outs[threads] = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"
        }
    assert sorted(outs[1]) == [f"{experiment}_report.csv", f"{experiment}_report.json"]
    assert made == [[14, 11, 17]] * 3
    return outs


def test_determinism_across_thread_counts(tmp_path, monkeypatch):
    outs = _outputs_at_thread_counts(tmp_path, monkeypatch, "thm16")
    assert outs[1] == outs[2] == outs[8]


def test_same_seed_twice_byte_identical(tmp_path):
    blobs = []
    for run in range(2):
        out_dir = tmp_path / f"r{run}"
        assert run_cli(["--out-dir", str(out_dir), "--seed", "21", "mcmw",
                        "--masses", "1,2,1", "--weights", "1,1,1", "--time", "0.5", "--reps", "200"]) == EXIT_OK
        blobs.append((out_dir / "mcmw_masses.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_mcmw_subcommand_output_shape(tmp_path):
    assert run_cli(["--out-dir", str(tmp_path), "mcmw", "--masses", "1,2",
                    "--weights", "1,1", "--time", "0.0", "--reps", "10"]) == EXIT_OK
    rows = (tmp_path / "mcmw_masses.csv").read_text().strip().splitlines()
    assert len(rows) == 10
    assert all(row.split(",")[0] == "2" for row in rows)


def test_percolate_subcommand(tmp_path):
    assert run_cli(["--out-dir", str(tmp_path), "--seed", "2", "percolate",
                    "--mode", "coupled", "--n", "80", "--mu", "0.5", "--dump-graph"]) == EXIT_OK
    assert (tmp_path / "events.csv").exists()
    assert (tmp_path / "events_modified.csv").exists()
    assert (tmp_path / "graph.csv").exists()
    assert (tmp_path / "component_sizes.csv").exists()


def test_levy_subcommand(tmp_path):
    assert run_cli(["--out-dir", str(tmp_path), "--seed", "3", "levy",
                    "--k-max", "50", "--horizon", "4.0"]) == EXIT_OK
    lines = (tmp_path / "limit_path.csv").read_text().splitlines()
    assert lines[0] == "t,X,Y,N"
    assert len(lines) > 10
    t, n = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 3), unpack=True)
    # a counting path: whole numbers, never falling, none before time 0
    assert np.array_equal(n, np.round(n)) and np.all(np.diff(n) >= 0)
    assert t[0] == 0.0 and n[0] == 0.0 < n[-1]


def test_validate_degrees_subcommand(tmp_path):
    assert run_cli(["--out-dir", str(tmp_path), "--seed", "4", "validate-degrees",
                    "--n", "300", "--tau", "3.5", "--dump-trace", "2"]) == EXIT_OK
    report = json.loads((tmp_path / "degree_validation.json").read_text())
    assert "criticality" in report and "flags" in report
    assert (tmp_path / "degrees.csv").exists()
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,X,Y,N"


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_validate_degrees_bad_trace_stride_exits_2(tmp_path, stride):
    assert run_cli(["--out-dir", str(tmp_path), "validate-degrees", "--n", "300",
                    f"--dump-trace={stride}"]) == EXIT_CONFIG
    assert not any(tmp_path.iterdir())  # no trace.csv, and no degrees.csv either


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hcmsim.cli", "--out-dir", str(tmp_path), "mcmw",
         "--masses", "1,1", "--weights", "1,1", "--time", "0.1", "--reps", "5"],
        capture_output=True,
    )
    assert proc.returncode == EXIT_OK


def test_mcmw_xi_coupling_monotone_across_time(tmp_path):
    # same seed and xi coupling: the clock rows are shared, so masses at a
    # later time coarsen those at an earlier time row by row
    largest = {}
    for t in (0.2, 0.8):
        out = tmp_path / f"t{t}"
        assert run_cli(["--out-dir", str(out), "--seed", "8", "mcmw",
                        "--masses", "1,1,1,1", "--weights", "1,0.8,0.6,0.4",
                        "--time", str(t), "--reps", "300", "--coupling", "xi"]) == EXIT_OK
        rows = (out / "mcmw_masses.csv").read_text().strip().splitlines()
        largest[t] = [float(r.split(",")[0]) for r in rows]
    assert all(a <= b for a, b in zip(largest[0.2], largest[0.8]))


def test_thm17_smoke_run(tmp_path):
    cfg = tmp_path / "t17.cfg"
    cfg.write_text(
        "experiment=thm17\nn_grid=200,300\nreplicates=25\nlimit_replicates=30\n"
        f"mu=0.4\nmaster_seed=19\nK_max=5\nout_dir={tmp_path / 'out'}\n"
    )
    assert run_cli(["--config", str(cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "thm17_report.json").read_text())
    assert {rec["experiment"] for rec in report["records"]} == {"thm17"}
    assert (tmp_path / "out" / "thm17_report.csv").exists()


def test_stream_field_overflow_exits_2(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"experiment=thm16\nn_grid=1000,{2**22}\nout_dir={tmp_path / 'out'}\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG


def test_corrupted_matching_exits_3(tmp_path, monkeypatch):
    import hcmsim.graphs as graphs

    uniform = graphs._uniform_matching

    def corrupted(n_half, rng):
        pairs = uniform(n_half, rng)
        pairs[1] = pairs[0]  # a half-edge paired with itself leaves another unpaired
        return pairs

    monkeypatch.setattr(graphs, "_uniform_matching", corrupted)
    assert run_cli(["--out-dir", str(tmp_path), "--seed", "2", "percolate", "--n", "80", "--mu", "0.5"]) == EXIT_INVARIANT
    assert not (tmp_path / "manifest.json").exists()


def test_invalid_built_degrees_exits_3(tmp_path, monkeypatch):
    import hcmsim.stats as stats

    build = stats.build_degree_sequence

    def odd_black_total(*args, **kwargs):
        seq = build(*args, **kwargs)
        seq.black[-1] += 1  # breaks the parity the build guarantees
        return seq

    monkeypatch.setattr(stats, "build_degree_sequence", odd_black_total)
    assert run_cli(["--out-dir", str(tmp_path), "validate-degrees", "--n", "200"]) == EXIT_INVARIANT
    assert not (tmp_path / "manifest.json").exists()


def test_limit_replicate_zero_mismatch_exits_3(tmp_path, monkeypatch):
    _off_by_one_ulp(monkeypatch)
    cfg = tmp_path / "thm16.cfg"
    cfg.write_text(f"experiment=thm16\nn_grid=200,400\nreplicates=10\nlimit_replicates=20\nout_dir={tmp_path}\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_INVARIANT
    assert not (tmp_path / "manifest.json").exists()


def test_non_finite_ks_sample_exits_3(tmp_path, monkeypatch):
    from hcmsim import stats

    sample = stats.sample_limit_pairs

    def spoiled(*args):
        rows = sample(*args)
        rows[3, 0] = np.nan
        return rows

    monkeypatch.setattr(stats, "sample_limit_pairs", spoiled)
    cfg = tmp_path / "thm16.cfg"
    cfg.write_text(f"experiment=thm16\nn_grid=200,400\nreplicates=10\nlimit_replicates=20\nout_dir={tmp_path}\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_INVARIANT
    assert not (tmp_path / "thm16_report.json").exists()


def _two_thread_run(tmp_path, experiment, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment={experiment}\nn_grid=200,400\nreplicates=10\nlimit_replicates=20\nK_max=5\n"
                   f"threads=2\nout_dir={tmp_path / 'out'}\n{extra}")
    return run_cli(["--config", str(cfg)])


def test_a_build_error_leaves_the_pool_with_exit_2(tmp_path, capsys):
    # L = 1e100 passes the config check and fails in the degree build, a pool task
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _two_thread_run(tmp_path, "thm16", "L=1e100\n") == EXIT_CONFIG
    assert re.search(r"^config error: .*\bL\b", capsys.readouterr().err, re.M)
    assert list((tmp_path / "out").glob("*")) == []


def test_a_limit_side_error_leaves_the_pool_with_exit_3(tmp_path, monkeypatch):
    from hcmsim import stats

    graphical = stats.mcmw_graphical

    def heavier(*args):
        own, blocks = graphical(*args)
        return own + 1.0, blocks

    monkeypatch.setattr(stats, "mcmw_graphical", heavier)
    assert _two_thread_run(tmp_path, "thm17") == EXIT_INVARIANT
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("which", ["thm16", "thm17"])
@pytest.mark.parametrize("key,value,message", [
    ("limit_replicates", 0, "limit_replicates must be >= 1"),
    ("limit_replicates", -2, "limit_replicates must be >= 1"),
    ("limit_replicates", 9, "need at least 10 samples per side"),
    ("replicates", 9, "need at least 10 samples per side"),
])
def test_theorem_run_without_a_ks_exits_2_before_drawing(tmp_path, capsys, monkeypatch, which, key, value, message):
    from hcmsim import stats

    def no_draw(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(stats, "stream_gen", no_draw)
    keys = {"experiment": which, "n_grid": "200,300", "replicates": 12, "limit_replicates": 12, "K_max": 5,
            key: value, "out_dir": tmp_path}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_bad_mcmw_input_exits_2(tmp_path):
    for args in (["--masses", "1,2,3", "--weights", "1,1,1", "--time", "-1"],
                 ["--masses=-1,2,3", "--weights=-1,-1,1", "--time", "0.5"],
                 ["--masses", "1,2,3", "--weights", "1,1", "--time", "0.5"],
                 ["--masses", "1,inf", "--weights", "1,1", "--time", "0.5"],
                 ["--masses", "1,1", "--weights", "0,inf", "--time", "0.5"],
                 ["--masses", "1,1", "--weights", "1,1", "--time", "inf"]):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert run_cli(["--out-dir", str(out), "mcmw", *args, "--reps", "5"]) == EXIT_CONFIG
        assert not (out / "mcmw_masses.csv").exists()


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_mcmw_reps_below_one_exits_2(tmp_path, capsys, reps):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"replicates = {reps}\n")
    args = ["mcmw", "--masses", "1,2", "--weights", "1,1", "--time", "0.5"]
    for name, extra in (("flag", [*args, f"--reps={reps}"]), ("file", ["--config", str(cfg), *args])):
        out = tmp_path / name
        assert run_cli(["--out-dir", str(out), *extra]) == EXIT_CONFIG
        assert "replicates must be >= 1" in capsys.readouterr().err
        assert not (out / "mcmw_masses.csv").exists()


def test_thm_zero_reps_or_tau_exits_2(tmp_path):
    # zero is a value, not "unset": it must reach the validation
    for which in ("thm16", "thm17"):
        for flag in ("--reps", "--tau"):
            out = tmp_path / f"{which}{flag}"
            assert run_cli(["--out-dir", str(out), which, "--n-grid", "200", flag, "0"]) == EXIT_CONFIG


@pytest.mark.parametrize("line", ["top_j = 0", "levy_horizon = 0", "levy_horizon = inf", "levy_horizon = nan"])
def test_thm_bad_top_j_or_levy_horizon_in_config_exits_2(tmp_path, line):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"{line}\nreplicates = 12\nlimit_replicates = 12\nK_max = 5\n")
    for which in ("thm16", "thm17"):
        out = tmp_path / which
        assert run_cli(["--config", str(cfg), "--out-dir", str(out), which, "--n-grid", "200"]) == EXIT_CONFIG
        assert list(out.glob("*")) == []


def test_thm16_has_no_mu_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["thm16", "--mu", "1.0"])
    assert exc.value.code == 2


def test_bad_percolation_time_exits_2(tmp_path):
    for mode in ("dynamic", "modified", "coupled"):
        for flag, value in (("--time", "-1"), ("--time", "nan"), ("--mu", "-1")):
            out = tmp_path / f"{mode}{flag}{value}"
            args = ["--out-dir", str(out), "percolate", "--mode", mode, "--n", "80", flag, value]
            assert run_cli(args) == EXIT_CONFIG, (mode, flag, value)
            assert not (out / "events.csv").exists()


def test_broken_block_table_exits_3(tmp_path, monkeypatch):
    import hcmsim.graphs as graphs

    table = graphs.component_table

    def off_by_one(g):
        sizes, *rest = table(g)
        sizes = sizes.copy()
        sizes[0] += 1
        return (sizes, *rest)

    monkeypatch.setattr(graphs, "component_table", off_by_one)
    assert run_cli(["--out-dir", str(tmp_path), "--seed", "2", "percolate", "--n", "80", "--mu", "0.5"]) == EXIT_INVARIANT
    assert not (tmp_path / "manifest.json").exists()


def test_malformed_list_flags_exit_2():
    for args in (["mcmw", "--masses", "1,x", "--weights", "1,1", "--time", "0.5"],
                 ["mcmw", "--masses", "1,1", "--weights", "1,x", "--time", "0.5"],
                 ["thm16", "--n-grid", "100,abc"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == EXIT_CONFIG, args


def test_zero_threads_exits_2(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("threads = 0\n")
    for name, args in (("thm16", ["--threads", "0", "thm16", "--n-grid", "200"]),
                       ("mcmw", ["--threads", "0", "mcmw", "--masses", "1,1", "--weights", "1,1", "--time", "1"]),
                       ("levy", ["--threads", "0", "levy", "--k-max", "50"]),
                       ("levy_file", ["--config", str(cfg), "levy", "--k-max", "50"])):
        out = tmp_path / name
        assert run_cli(["--out-dir", str(out), *args]) == EXIT_CONFIG, name
        assert not (out / "manifest.json").exists()


def test_unknown_coupling_in_config_exits_2(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"experiment=mcmw\nmasses=1,1\ncoupling=bogus\nout_dir={tmp_path / 'out'}\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG
    assert not (tmp_path / "out" / "mcmw_masses.csv").exists()


def test_dump_flags_are_not_config_keys(tmp_path):
    for line in ("dump_graph = 1", "dump_trace = 1"):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"experiment=percolate\nn=80\n{line}\nout_dir={tmp_path / 'out'}\n")
        assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG, line
        assert list((tmp_path / "out").glob("*")) == []


def test_unknown_mode_in_config_exits_2(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"experiment=percolate\nn=80\nmode=bogus\nout_dir={tmp_path / 'out'}\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("line,key", [("mode = bogus", "mode"), ("n = x", "n"), ("n_grid = 100,abc", "n_grid")])
def test_bad_config_value_names_file_line_and_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"experiment=percolate\n# a comment\n{line}\nout_dir={tmp_path / 'out'}\n")
    assert run_cli(["--config", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}:3: {key}:" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []


_BAD_LEVY_INPUT = {
    "grid_step_0": (["--grid-step", "0"], "grid step must be finite and > 0, got 0.0"),
    "tau_1": (["--tau", "1"], "tau must lie in (3, 4), got 1.0"),
    "tau_2.5": (["--tau", "2.5"], "tau must lie in (3, 4), got 2.5"),
    "tau_3": (["--tau", "3"], "tau must lie in (3, 4), got 3.0"),
    "tau_4": (["--tau", "4"], "tau must lie in (3, 4), got 4.0"),
    "tau_5": (["--tau", "5"], "tau must lie in (3, 4), got 5.0"),
    "k_max_0": (["--k-max", "0"], "K_max must be >= 1"),
    **{f"horizon_{h}": (["--horizon", h], f"levy_horizon must be finite and > 0, got {float(h)}")
       for h in ("0", "-1", "nan", "inf")},
    **{f"grid_step_{h}": (["--grid-step", h], f"grid step must be finite and > 0, got {float(h)}")
       for h in ("nan", "inf")},
}


@pytest.mark.parametrize("args,message", _BAD_LEVY_INPUT.values(), ids=_BAD_LEVY_INPUT.keys())
def test_bad_levy_input_exits_2(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the message
        assert run_cli(["--out-dir", str(tmp_path), "levy", "--k-max", "50", *args]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "limit_path.csv").exists()


# L is a config-file key only; lambda is also validate-degrees' flag. L = 1e+-100
# passes make_scaling but gives hub degrees far above n; lambda = 1e300 keeps X's
# drift finite but gives levy's surplus process about 1e301 expected candidates.
_BAD_SCALE = [("lambda", v) for v in ("1e308", "1e300", "inf", "nan", "-inf")] + [
    ("L", v) for v in ("nan", "inf", "1e-300", "1e300", "1e-100", "1e100")]


@pytest.mark.parametrize("key,value", _BAD_SCALE, ids=[f"{k}={v}" for k, v in _BAD_SCALE])
def test_bad_L_or_lambda_exits_2_and_names_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"{key} = {value}\nlimit_replicates = 12\nK_max = 5\n")
    runs = {
        "validate": ["--config", str(cfg), "validate-degrees", "--n", "1000", "--dump-trace", "1"],
        "thm16": ["--config", str(cfg), "thm16", "--n-grid", "200", "--reps", "12"],
        "percolate": ["--config", str(cfg), "percolate", "--n", "1000", "--dump-graph"],
    }
    if key == "lambda":
        runs["flag"] = ["validate-degrees", "--n", "1000", f"--lambda={value}"]
        runs["levy"] = ["--config", str(cfg), "levy", "--k-max", "5"]
    for name, args in runs.items():
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no numpy warning on the way to the message
            assert run_cli(["--out-dir", str(out), *args]) == EXIT_CONFIG, name
        assert re.search(rf"^config error: .*\b{key}\b", capsys.readouterr().err, re.M), name
        assert list(out.glob("*")) == [], name


def test_manifest_records_the_seed_of_the_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "experiment=thm16\nn_grid=200\nreplicates=12\nlimit_replicates=12\n"
        f"K_max=5\nout_dir={tmp_path / 'out'}\n"
    )
    assert run_cli(["--config", str(cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "thm16_report.json").read_text())
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {rec["seed"] for rec in report["records"]} == {manifest["master_seed"]} == {2024}


def test_config_value_survives_subcommand_without_its_flag(tmp_path):
    val = tmp_path / "v.cfg"
    val.write_text("n = 300\n")
    assert run_cli(["--config", str(val), "--out-dir", str(tmp_path / "v"), "validate-degrees"]) == EXIT_OK
    assert len((tmp_path / "v" / "degrees.csv").read_text().splitlines()) == 1 + 300
    mc = tmp_path / "m.cfg"
    mc.write_text("replicates = 7\n")
    assert run_cli(["--config", str(mc), "--out-dir", str(tmp_path / "m"), "mcmw",
                    "--masses", "1,2", "--weights", "1,1", "--time", "0.5"]) == EXIT_OK
    assert len((tmp_path / "m" / "mcmw_masses.csv").read_text().splitlines()) == 7


def test_flag_beats_config_file(tmp_path):
    # --n overrides the file's n; the file's lambda, which no flag names, still holds
    cfg = tmp_path / "v.cfg"
    cfg.write_text("n = 300\nlambda = 0.5\n")
    assert run_cli(["--config", str(cfg), "--out-dir", str(tmp_path), "validate-degrees", "--n", "200"]) == EXIT_OK
    assert len((tmp_path / "degrees.csv").read_text().splitlines()) == 1 + 200
    report = json.loads((tmp_path / "degree_validation.json").read_text())
    assert report["criticality_target"] > 1.0


def test_thm17_determinism_across_thread_counts(tmp_path, monkeypatch):
    outs = _outputs_at_thread_counts(tmp_path, monkeypatch, "thm17", "mu=0.5\n")
    assert outs[1] == outs[2] == outs[8]


def _percolate(out, config_text=None, *flags):
    """Exit code of ``percolate --n 300`` at seed 2, with ``config_text`` as its config file."""
    args = ["--out-dir", str(out), "--seed", "2"]
    if config_text is not None:
        out.mkdir(parents=True)
        (out / "p.cfg").write_text(config_text)
        args += ["--config", str(out / "p.cfg")]
    return run_cli([*args, "percolate", "--n", "300", *flags])


def test_percolation_time_flag_replaces_both_file_keys(tmp_path):
    # time and mu set the one percolation time s: a flag for either one
    # replaces the file's value of either
    for text, flags in (("time = 0.01\n", ("--mu", "5")), ("mu = 5\n", ("--time", "0.01"))):
        alone, with_file = tmp_path / f"alone{flags[0]}", tmp_path / f"file{flags[0]}"
        assert _percolate(alone, None, *flags) == EXIT_OK
        assert _percolate(with_file, text, *flags) == EXIT_OK
        assert (with_file / "events.csv").read_bytes() == (alone / "events.csv").read_bytes(), text


def test_percolation_time_and_mu_from_one_source_exit_2(tmp_path):
    assert _percolate(tmp_path / "file", "time = 0.01\nmu = 5\n") == EXIT_CONFIG
    assert _percolate(tmp_path / "flags", None, "--time", "0.01", "--mu", "5") == EXIT_CONFIG
    assert not (tmp_path / "file" / "events.csv").exists()
    assert not (tmp_path / "flags" / "events.csv").exists()


def test_mcmw_takes_its_keys_from_config_file(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("masses = 1,2,1\nweights = 1,0.5,1\ntime = 0.5\nreplicates = 7\n")
    assert run_cli(["--config", str(cfg), "--out-dir", str(tmp_path / "file"), "mcmw"]) == EXIT_OK
    assert run_cli(["--out-dir", str(tmp_path / "flags"), "mcmw", "--masses", "1,2,1", "--weights", "1,0.5,1",
                    "--time", "0.5", "--reps", "7"]) == EXIT_OK
    rows = (tmp_path / "file" / "mcmw_masses.csv").read_text().strip().splitlines()
    assert len(rows) == 7
    assert (tmp_path / "file" / "mcmw_masses.csv").read_bytes() == (tmp_path / "flags" / "mcmw_masses.csv").read_bytes()


@pytest.mark.parametrize("name, keys, flags", [
    ("levy", "tau = 3.3\nK_max = 50\nlevy_horizon = 4.0\ngrid_step = 0.05\n",
     ["--tau", "3.3", "--k-max", "50", "--horizon", "4.0", "--grid-step", "0.05"]),
    ("percolate", "mode = coupled\nn = 300\ntau = 3.4\nmu = 0.5\n",
     ["--mode", "coupled", "--n", "300", "--tau", "3.4", "--mu", "0.5"]),
    ("validate-degrees", "n = 300\ntau = 3.6\nlambda = 0.5\n", ["--n", "300", "--tau", "3.6", "--lambda", "0.5"]),
    ("mcmw", "masses = 1,2,1\nweights = 1,0.5,1\ntime = 0.5\nreplicates = 7\ncoupling = xi\n",
     ["--masses", "1,2,1", "--weights", "1,0.5,1", "--time", "0.5", "--reps", "7", "--coupling", "xi"]),
], ids=["levy", "percolate", "validate-degrees", "mcmw"])
def test_config_file_alone_runs_a_command_as_its_flags(tmp_path, name, keys, flags):
    # the file names the experiment, its seed and its output directory: no flag at all
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiment = {name}\nmaster_seed = 6\nout_dir = {tmp_path / 'file'}\n{keys}")
    assert run_cli(["--config", str(cfg)]) == EXIT_OK
    assert run_cli(["--out-dir", str(tmp_path / "flags"), "--seed", "6", name, *flags]) == EXIT_OK
    assert _outputs(tmp_path / "file")
    assert _outputs(tmp_path / "file") == _outputs(tmp_path / "flags")


def _flag_keys() -> dict:
    """{parser: {flag: the key it sets}} for the top-level parser and each subcommand."""
    top = cli._parser()
    parsers = {"hcmsim": top}
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
    return {name: {flag: a.dest for a in p._actions for flag in a.option_strings if flag != "-h"}
            for name, p in parsers.items()}


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = dict(re.findall(r"^\| `(--[\w-]+)` \| `(\w+)` \|$", readme, re.M))
    assert "--seed" in table
    flag_keys = _flag_keys()
    for flag, key in table.items():
        setters = {name: keys[flag] for name, keys in flag_keys.items() if flag in keys}
        assert setters and set(setters.values()) == {key}, (flag, setters)
    renamed = {flag for keys in flag_keys.values() for flag, key in keys.items() if key != flag[2:].replace("-", "_")}
    assert renamed <= table.keys(), renamed - table.keys()


_IMPORT_PROBE = """
import json, sys
from hcmsim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    print(json.dumps([m in sys.modules for m in ("scipy.stats", "scipy.special")]))
"""


def _scipy_loaded(commands):
    """For each command line, run in turn in one fresh interpreter: whether
    ``scipy.stats`` and ``scipy.special`` are loaded after it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


_LEVY_IMPORT_PROBE = """
import sys
import hcmsim.levy
print(sorted(m for m in ("hcmsim.graphs", "scipy.sparse") if m in sys.modules))
"""


def test_levy_module_loads_no_graph_code():
    # the limit path never builds a graph, so importing it must not pay for scipy.sparse
    proc = subprocess.run([sys.executable, "-c", _LEVY_IMPORT_PROBE], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_command_imports_scipy_stats(tmp_path):
    def command(name, *args, config=None):
        return [*(["--config", str(config)] if config else []), "--out-dir", str(tmp_path / name), name, *args]

    cfg = tmp_path / "thm.cfg"
    cfg.write_text("n_grid=200,300\nreplicates=25\nlimit_replicates=30\nmaster_seed=3\nK_max=5\n")
    loaded = _scipy_loaded([
        command("validate-degrees", "--n", "1000", "--dump-trace", "1"),
        command("mcmw", "--masses", "1,2,1", "--weights", "1,1,1", "--time", "0.5", "--reps", "20"),
        command("percolate", "--n", "300", "--mu", "0.5", "--dump-graph"),
        command("levy", "--k-max", "50", "--horizon", "4.0"),
        command("thm17", config=cfg),
    ])
    # only a KS test loads scipy.special (the Kolmogorov law), so the guard can fail
    assert loaded == [(False, False)] * 4 + [(False, True)]
    assert _scipy_loaded([command("thm16", config=cfg)]) == [(False, True)]


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def test_parser_reuse_leaks_nothing_between_calls(tmp_path):
    # one process parses every command line with the same cached parser; each
    # output must equal a fresh interpreter's run of that command alone
    cfg = tmp_path / "t16.cfg"
    cfg.write_text("experiment=thm16\nn_grid=200,300\nreplicates=25\nlimit_replicates=30\nmaster_seed=3\nK_max=5\n")
    commands = {
        "perc_graph": ["--seed", "2", "percolate", "--n", "300", "--tau", "3.3", "--mu", "0.5", "--dump-graph"],
        "perc": ["percolate", "--mode", "coupled"],
        "val": ["validate-degrees", "--dump-trace", "1"],
        "thm16": ["--config", str(cfg)],
    }
    for name, argv in commands.items():
        assert run_cli(["--out-dir", str(tmp_path / "shared" / name), *argv]) == EXIT_OK
    for name, argv in commands.items():
        alone = tmp_path / "alone" / name
        subprocess.run([sys.executable, "-m", "hcmsim.cli", "--out-dir", str(alone), *argv], check=True)
        assert _outputs(tmp_path / "shared" / name) == _outputs(alone), name
    assert "graph.csv" not in _outputs(tmp_path / "shared" / "perc")
