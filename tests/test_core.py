import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hcmsim.core import stream_gen, write_int_rows, write_rows
from seeding import philox
from test_graphs import white_pairs


def test_seed_stream_distinct_and_stable():
    def first(master_seed, stream_index):
        return stream_gen(master_seed, stream_index).integers(2**63, size=4).tolist()

    assert first(7, 0) != first(7, 1)
    assert first(7, 3) == first(7, 3)
    assert first(7, 3) != first(8, 3)
    # the documented derivation: Philox keyed by SeedSequence(master_seed, spawn_key=(index,))
    ss = np.random.SeedSequence(entropy=7, spawn_key=(3,))
    assert first(7, 3) == np.random.Generator(np.random.Philox(ss)).integers(2**63, size=4).tolist()


def test_stream_gen_reproducible():
    a = stream_gen(5, 9).random(4)
    b = stream_gen(5, 9).random(4)
    assert np.array_equal(a, b)
    c = stream_gen(5, 10).random(4)
    assert not np.array_equal(a, c)


# The writers that write_rows replaced, as byte oracles.
def _savetxt_masses(masses, path):
    np.savetxt(path, np.atleast_2d(masses), delimiter=",", fmt="%.12g")


def _savetxt_events(log, path):
    np.savetxt(path, log, fmt="%.12g,%d,%d", header="time,half_edge_a,half_edge_b", comments="", newline="\r\n")


def _csv_writer_degrees(seq, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["white", "black"])
        for wv, bv in zip(seq.white, seq.black):
            writer.writerow([int(wv), int(bv)])


def _awkward_floats(rng, size):
    """Uniform and heavy-tailed floats plus values whose %g form is special."""
    special = [0.0, -0.0, 1.0, 3.0, 1e12, 1e-5, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 123456789012.5]
    wide = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    return np.concatenate((special, rng.random(size), wide))


# (200, 250) spans several chunks of about 16k cells; (3, 0) rows hold no masses
@pytest.mark.parametrize("shape", [(4,), (1, 3), (40_000, 3), (9, 250), (200, 250), (3, 0)])
def test_masses_csv_bytes_equal_savetxt(tmp_path, shape):
    from hcmsim.coalescent import write_masses_csv

    values = _awkward_floats(np.random.default_rng(shape[0]), int(np.prod(shape)))
    masses = values[: int(np.prod(shape))].reshape(shape)
    write_masses_csv(masses, tmp_path / "new.csv")
    _savetxt_masses(masses, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _format_masses(masses, path):
    """The masses writer before it formatted each distinct value once: one
    ``str.format`` per row."""
    masses = np.atleast_2d(masses)
    line = ",".join(["{:.12g}"] * masses.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(line.format(*row) for row in masses.tolist())


# few distinct values, so most cells repeat one, as the zero padding does
_MASS_POOL = [0.0, -0.0, 1.0, 2.0, 3.0, 1e12, 1e-300, 1e300, 0.1 + 0.2, 123456789012.5]
_MASSES = hnp.arrays(
    float,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.one_of(st.sampled_from(_MASS_POOL), st.floats(width=64)),
)


@settings(max_examples=200)
@given(_MASSES)
@example(np.zeros((5, 4)))
@example(np.zeros((1, 1)))
@example(np.array([[1e-300, 1e300, 7.0, 7.0, 0.0]]))
@example(np.array([[1e300], [1e-300], [1e300], [4.0], [0.0]]))
def test_masses_csv_bytes_equal_per_row_format(tmp_path_factory, masses):
    from hcmsim.coalescent import write_masses_csv

    d = tmp_path_factory.mktemp("masses", numbered=True)
    write_masses_csv(masses, d / "new.csv")
    _format_masses(masses, d / "old.csv")
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


@pytest.mark.parametrize("m, reps", [(3, 30_000), (100, 20), (250, 8)])
def test_masses_csv_of_mcmw_batch_bytes_equal_per_row_format(tmp_path, m, reps):
    from hcmsim.coalescent import mcmw_batch, write_masses_csv

    rng = np.random.default_rng(m)
    x = np.sort(rng.pareto(2.0, m) + 0.05)[::-1]
    masses = mcmw_batch(x, x * rng.random(m), 1.0, reps, stream_gen(1, 12))
    write_masses_csv(masses, tmp_path / "new.csv")
    _format_masses(masses, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, 40_000])
def test_event_csv_bytes_equal_savetxt(tmp_path, rows):
    from hcmsim.dynamics import PercolationState, _event_table, write_event_csv

    rng = np.random.default_rng(rows)
    times = np.abs(_awkward_floats(rng, rows))[:rows]
    log = _event_table(times, rng.integers(0, 2**40, rows), rng.integers(0, 2**40, rows))
    write_event_csv(PercolationState(None, rows, log), tmp_path / "new.csv")
    _savetxt_events(log, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_degree_csv_bytes_equal_csv_writer(tmp_path):
    from hcmsim.degrees import write_degree_csv
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    seq = build_critical_sequence(ExperimentConfig(master_seed=3), 40_000)
    write_degree_csv(seq, tmp_path / "new.csv")
    _csv_writer_degrees(seq, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_rows_without_rows_writes_header_only(tmp_path):
    write_rows(tmp_path / "h.csv", "{},{}\n", (np.zeros(0), np.zeros(0)), header="a,b\n")
    assert (tmp_path / "h.csv").read_bytes() == b"a,b\n"


_I64 = np.iinfo(np.int64)
_EDGE_INTS = [0, 1, -1, 9, -9, 10, -10, _I64.min, _I64.max]


def _int_table(rows, seed):
    """Three int64 columns of ``rows`` rows, led by the edge values, and one
    uint64 column that reaches its maximum."""
    rng = np.random.default_rng(seed)
    table = rng.integers(_I64.min, _I64.max, (3, rows), endpoint=True)
    table[1] //= 10 ** rng.integers(0, 19, rows)  # values of many widths, not only 19 digits
    lead = min(rows, len(_EDGE_INTS))
    table[:, :lead] = [_EDGE_INTS[:lead], _EDGE_INTS[::-1][:lead], _EDGE_INTS[:lead]]
    unsigned = rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
    unsigned[:lead] = np.array([0, 2**64 - 1, 1, 9, 10, 99, 100, 2**63, 2**63 - 1], dtype=np.uint64)[:lead]
    return [*table, unsigned]


def _small_int_table(rows, seed):
    """Columns of small magnitudes, as trace.csv's are: a step count, a
    column that reaches +-(2**32 - 1), the largest uint32 magnitude, and an
    all-zero one like N; and a walk that goes negative, led by -2**32, the
    smallest magnitude that needs uint64."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.integers(-3, 2, rows))
    walk[:1] = -(2**32)
    edge = rng.integers(-(2**32) + 1, 2**32, rows)
    edge[: min(rows, 2)] = [2**32 - 1, -(2**32) + 1][:rows]
    return [np.arange(rows), walk, edge, np.zeros(rows, dtype=np.int64)]


@pytest.mark.parametrize("rows", [0, 1, len(_EDGE_INTS), 16_384, 16_385])
@pytest.mark.parametrize("suffix", ["\r\n", ",white\r\n"])
def test_int_rows_bytes_equal_format_and_csv_writer(tmp_path, rows, suffix):
    # the whole int64 and uint64 ranges, then magnitudes that take the uint32 digits
    for columns in (_int_table(rows, rows), _small_int_table(rows, rows)):
        write_int_rows(tmp_path / "new.csv", columns, header="a,b,c,d\r\n", suffix=suffix)
        write_rows(tmp_path / "fmt.csv", "{},{},{},{}" + suffix, columns, header="a,b,c,d\r\n")
        with open(tmp_path / "csv.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c", "d"])
            for row in zip(*(c.tolist() for c in columns)):
                writer.writerow([*row, "white"] if suffix != "\r\n" else row)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "fmt.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
        if rows == 0:
            assert new == b"a,b,c,d\r\n"


@pytest.mark.parametrize("dtype", [float, bool, object])
def test_int_rows_refuse_non_integer_columns(tmp_path, dtype):
    with pytest.raises(TypeError):
        write_int_rows(tmp_path / "x.csv", (np.arange(3), np.array([1, 2, 3], dtype=dtype)), header="a,b\r\n")
    assert not (tmp_path / "x.csv").exists()


def test_int_rows_refuse_a_nul_in_the_suffix(tmp_path):
    # the encoding drops every NUL byte, so this one would vanish silently
    with pytest.raises(ValueError, match="NUL"):
        write_int_rows(tmp_path / "x.csv", (np.arange(3),), header="a\r\n", suffix=",\0\r\n")
    assert not (tmp_path / "x.csv").exists()


def _csv_writer_edges(g, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["half_edge_a", "half_edge_b", "color"])
        for a, b in white_pairs(g):
            writer.writerow([int(a), int(b), "white"])


def _csv_writer_limit_path(real, path, grid_step, surplus):
    t, xv = real.X_path.sample_grid(grid_step)
    yv = np.atleast_1d(real.Y_path.eval(t))
    nv = np.atleast_1d(surplus.eval(t)) if surplus is not None else np.zeros_like(t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "X", "Y", "N"])
        for row in zip(t, xv, yv, nv):
            writer.writerow([f"{row[0]:.12g}", f"{row[1]:.12g}", f"{row[2]:.12g}", f"{row[3]:.12g}"])


@pytest.mark.parametrize("black", ["none", "percolated"])
def test_edge_csv_bytes_equal_csv_writer(tmp_path, black):
    # graph.csv holds G_n(0)'s white edges, also when written after percolation
    from hcmsim.dynamics import run_dynamic
    from hcmsim.graphs import sample_white_matching, write_edge_csv
    from hcmsim.stats import ExperimentConfig, build_critical_sequence

    g = sample_white_matching(build_critical_sequence(ExperimentConfig(master_seed=5), 20_000), philox(6))
    if black == "percolated":
        assert run_dynamic(g, 0.6, philox(8)).component_sizes().sum() == g.n
    write_edge_csv(g, tmp_path / "new.csv")
    _csv_writer_edges(g, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("with_surplus", [False, True])
def test_limit_path_csv_bytes_equal_csv_writer(tmp_path, with_surplus):
    from hcmsim.degrees import make_limit_parameters
    from hcmsim.levy import sample_surplus_process, sample_thinned_levy, write_limit_path_csv

    real = sample_thinned_levy(make_limit_parameters(3.5, 200), T=8.0, rng=philox(4))
    surplus = sample_surplus_process(real.X_path, philox(5)) if with_surplus else None
    write_limit_path_csv(real, tmp_path / "new.csv", grid_step=8.0 / 30_000, surplus=surplus)
    _csv_writer_limit_path(real, tmp_path / "old.csv", 8.0 / 30_000, surplus)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
