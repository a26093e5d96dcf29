import csv

import numpy as np
import pytest

from hcmsim.core import InvariantError
from hcmsim.degrees import (
    DEFAULT_BULK_WHITE,
    BulkLaw,
    DegreeSequence,
    build_degree_sequence,
    criticality,
    make_limit_parameters,
    make_scaling,
    power_profiles,
    tune_to_criticality,
    validate_assumptions,
    write_degree_csv,
)


def test_make_scaling_hand_values():
    sc = make_scaling(1, 3.5, 1.0)
    assert sc.a_n == sc.b_n == sc.c_n == 1.0

    sc = make_scaling(10**4, 3.5, 1.0)
    assert sc.a_n == pytest.approx(10 ** (8 / 5), rel=1e-12)
    assert sc.b_n == pytest.approx(10 ** (12 / 5), rel=1e-12)
    assert sc.c_n == pytest.approx(10 ** (4 / 5), rel=1e-12)
    assert sc.a_n * sc.b_n == pytest.approx(10**4, rel=1e-12)

    sc = make_scaling(10**6, 3.2, 2.0)
    assert sc.c_n == pytest.approx(10 ** (6 * 0.2 / 2.2) / 4.0, rel=1e-12)


def test_scaling_product_identities_random():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(1, 10**9))
        tau = float(rng.uniform(3.0001, 3.9999))
        L = float(rng.uniform(0.1, 10.0))
        sc = make_scaling(n, tau, L)
        assert sc.a_n * sc.b_n == pytest.approx(n, rel=1e-12)
        assert sc.b_n**2 == pytest.approx(n * sc.c_n, rel=1e-12)
        assert sc.a_n / sc.b_n == pytest.approx(1.0 / sc.c_n, rel=1e-12)


def test_make_scaling_domain_errors():
    with pytest.raises(ValueError):
        make_scaling(10, 3.0)
    with pytest.raises(ValueError):
        make_scaling(10, 4.0)
    with pytest.raises(ValueError):
        make_scaling(0, 3.5)


def test_criticality_hand_values():
    assert criticality(np.array([2, 2, 2])) == pytest.approx(1.0)
    assert criticality(np.array([3, 1, 1, 1])) == pytest.approx(1.0)
    assert criticality(np.array([4, 2, 2, 2, 1, 1])) == pytest.approx(1.5)


def test_build_point_mass_two_is_exactly_critical():
    sc = make_scaling(50, 3.5)
    lim = make_limit_parameters(3.5, 5)
    seq = build_degree_sequence(sc, lim, 0, BulkLaw.point_mass(2), 1, BulkLaw.point_mass(0))
    assert np.all(seq.white == 2)
    assert np.all(seq.black == 0)
    assert criticality(seq) == pytest.approx(1.0)


def test_hub_degrees_round_profile():
    sc = make_scaling(400, 3.5)
    theta = np.array([1.0, 0.5])
    lim_base = make_limit_parameters(3.5, 2)
    lim = type(lim_base)(theta=theta, beta=np.zeros(2), alpha=lim_base.alpha, lam=0.0, kappa=lim_base.kappa, gamma=lim_base.gamma)
    # force a_n = 100 by picking n with n^(0.4) = 100 -> n = 10^5; use scaling directly
    sc = make_scaling(10**5, 3.5)
    seq = build_degree_sequence(sc, lim, 2, DEFAULT_BULK_WHITE, 3)
    top_two = np.sort(seq.white[seq.hub_mask])[::-1]
    assert list(top_two) == [100, 50]


def test_parity_and_arrangement():
    sc = make_scaling(501, 3.6)
    lim = make_limit_parameters(3.6, 10)
    for seed in range(5):
        seq = build_degree_sequence(sc, lim, 10, DEFAULT_BULK_WHITE, seed)
        assert seq.total_white % 2 == 0
        assert seq.total_black % 2 == 0
        assert np.all(seq.white >= 1)
        key = seq.arrangement_key()
        assert np.all(np.diff(key) <= 1e-12)


def test_bulk_mean_matches_kappa():
    law = BulkLaw.zeta(3.5, k_max=30)
    sc = make_scaling(20000, 3.5)
    lim_default = make_limit_parameters(3.5, 8)
    lim = type(lim_default)(
        theta=lim_default.theta,
        beta=lim_default.beta,
        alpha=lim_default.alpha,
        lam=0.0,
        kappa=law.mean,
        gamma=lim_default.gamma,
    )
    seq = build_degree_sequence(sc, lim, 8, law, 11)
    mean = seq.white.sum() / seq.n
    # hubs shift the mean by O(a_n/n); allow 3 MC standard errors plus that
    se = np.sqrt((law.moment(2) - law.mean**2) / seq.n)
    hub_shift = seq.white[seq.hub_mask].sum() / seq.n
    assert abs(mean - law.mean) <= 3 * se + hub_shift + 2.0 / seq.n


def test_tune_identity_when_already_critical():
    sc = make_scaling(60, 3.5)
    lim = make_limit_parameters(3.5, 4)
    seq = build_degree_sequence(sc, lim, 0, BulkLaw.point_mass(2), 5, BulkLaw.point_mass(0))
    tuned = tune_to_criticality(seq, 0.0)
    assert np.array_equal(np.sort(tuned.white), np.sort(seq.white))
    assert criticality(tuned) == pytest.approx(1.0)


def test_tune_reaches_target_and_preserves_parity():
    sc = make_scaling(10**4, 3.5)
    lim = make_limit_parameters(3.5, 15)
    seq = build_degree_sequence(sc, lim, 15, DEFAULT_BULK_WHITE, 21)
    for lam in (-1.0, 0.0, 1.0):
        tuned = tune_to_criticality(seq, lam)
        target = 1.0 + lam / sc.c_n
        nu = criticality(tuned)
        granularity = 4.0 / tuned.total_white
        assert abs(nu - target) <= granularity
        assert tuned.total_white % 2 == 0
        assert np.array_equal(np.sort(tuned.black), np.sort(seq.black))


def test_tune_unreachable_raises():
    sc = make_scaling(20, 3.5)
    lim = make_limit_parameters(3.5, 2)
    seq = build_degree_sequence(sc, lim, 0, BulkLaw.point_mass(2), 9, BulkLaw.point_mass(0))
    # no degree-1 or degree-3 bulk vertices: only nu = 1 is reachable
    with pytest.raises(ValueError):
        tune_to_criticality(seq, 30.0)


def test_assert_valid_raises_invariant_error():
    sc = make_scaling(4, 3.5)
    lim = make_limit_parameters(3.5, 2)

    def seq(white, black):
        return DegreeSequence(np.array(white), np.array(black), sc, lim, np.zeros(4, bool))

    seq([2, 2, 1, 1], [1, 1, 0, 0]).assert_valid()
    for white, black in (
        ([3, 2, 1, 1], [1, 1, 0, 0]),  # odd white total
        ([2, 2, 1, 1], [1, 0, 0, 0]),  # odd black total
        ([2, 2, 2, 0], [1, 1, 0, 0]),  # a white degree of zero
        ([1, 1, 2, 2], [0, 0, 1, 1]),  # arrangement increasing
    ):
        with pytest.raises(InvariantError):
            seq(white, black).assert_valid()


def test_validate_assumptions_hand_values():
    sc = make_scaling(2, 3.5)
    lim = make_limit_parameters(3.5, 2)
    from hcmsim.degrees import DegreeSequence

    seq = DegreeSequence(np.array([2, 2]), np.array([4, 2]), sc, lim, np.zeros(2, bool))
    rep = validate_assumptions(seq, K=0)
    assert rep["mean_black"] == pytest.approx(3.0)
    assert rep["mean_cross"] == pytest.approx(6.0)
    assert rep["mean_white"] == pytest.approx(2.0)
    assert rep["mean_white_sq"] == pytest.approx(4.0)

    seq2 = DegreeSequence(np.array([2, 2, 2]), np.array([0, 0, 0]), sc, lim, np.zeros(3, bool))
    rep2 = validate_assumptions(seq2, K=0)
    assert rep2["mean_white"] == pytest.approx(2.0)
    assert rep2["mean_white_sq"] == pytest.approx(4.0)
    assert rep2["mean_black"] == 0.0
    assert rep2["mean_cross"] == 0.0


def test_power_profiles_summability():
    theta, beta = power_profiles(3.5, 5000)
    # l3 tail settles much faster than the (divergent) l2 tail
    l3_tail = np.sum(theta[2500:] ** 3) / np.sum(theta**3)
    l2_tail = np.sum(theta[2500:] ** 2) / np.sum(theta**2)
    assert l3_tail < 0.05
    assert l3_tail < l2_tail / 3.0
    assert np.sum(beta**2) < 2.0 * np.sum(beta[:2500] ** 2)
    assert np.all(np.diff(theta) <= 0)


def read_degree_csv(path):
    """(white, black) integer arrays from a two-column degree CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["white", "black"]:
            raise ValueError("expected header 'white,black'")
        rows = [(int(a), int(c)) for a, c in reader]
    w = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    return w, b


def test_degree_csv_roundtrip(tmp_path):
    sc = make_scaling(200, 3.5)
    lim = make_limit_parameters(3.5, 5)
    seq = build_degree_sequence(sc, lim, 5, DEFAULT_BULK_WHITE, 33)
    path = tmp_path / "deg.csv"
    write_degree_csv(seq, path)
    w, b = read_degree_csv(path)
    assert np.array_equal(w, seq.white)
    assert np.array_equal(b, seq.black)
    assert path.read_text().splitlines()[0] == "white,black"
