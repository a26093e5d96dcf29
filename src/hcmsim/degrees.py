"""Heavy-tailed two-colour degree sequences and their scaling constants.

Sequences carry a hub block (top-degree vertices pinned to a power
profile) plus an i.i.d. bulk, arranged so that
``i -> white_i/a_n + black_i/b_n`` is non-increasing, with even colour
totals so matchings need no repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvariantError, cached_property, write_int_rows


@dataclass(frozen=True)
class ScalingConstants:
    n: int
    tau: float
    a_n: float
    b_n: float
    c_n: float


def _check_tau(tau: float):
    """The paper's regime: theta lies in l3 minus l2 only for tau in (3, 4)."""
    if not 3.0 < tau < 4.0:
        raise ValueError(f"tau must lie in (3, 4), got {tau}")


def make_scaling(n: int, tau: float, L_value: float = 1.0) -> ScalingConstants:
    """Scaling triple a_n = n^{1/(tau-1)} L, b_n = n^{(tau-2)/(tau-1)}/L, c_n = n^{(tau-3)/(tau-1)}/L^2."""
    _check_tau(tau)
    if n < 1:
        raise ValueError("n must be a positive integer")
    e = 1.0 / (tau - 1.0)
    try:
        a = n**e * L_value
        b = n ** ((tau - 2.0) * e) / L_value
        c = n ** ((tau - 3.0) * e) / L_value**2
    except (OverflowError, ZeroDivisionError):  # L**2 out of float range
        a = b = c = np.nan
    if not (0 < L_value < np.inf and all(0 < v < np.inf for v in (a, b, c))):
        raise ValueError(f"L must be finite and > 0 with finite, positive a_n, b_n and c_n, got L = {L_value}")
    return ScalingConstants(n=int(n), tau=float(tau), a_n=a, b_n=b, c_n=c)


@dataclass(frozen=True)
class LimitParameters:
    """Hub profiles and drift/criticality constants of the limit objects.

    theta must be non-increasing and positive; beta non-negative, same
    length. kappa is the mean white degree, gamma the mean black degree.
    """

    theta: np.ndarray
    beta: np.ndarray
    alpha: float
    lam: float
    kappa: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.theta.size != self.beta.size:
            raise ValueError("theta and beta must have the same length")
        if self.theta.size and (np.any(self.theta <= 0) or np.any(np.diff(self.theta) > 1e-12)):
            raise ValueError("theta must be positive and non-increasing")
        if np.any(self.beta < 0):
            raise ValueError("beta must be non-negative")
        if self.kappa <= 0 or self.alpha < 0 or self.gamma <= 0:
            raise ValueError("kappa, gamma must be positive and alpha non-negative")
        if not np.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")


def power_profiles(tau: float, k_max: int):
    """Hub profiles theta_i = 0.4 i^{-1/(tau-1)}, beta_i = 0.5 i^{-2/(tau-1)}.

    With exponent 2 the beta profile is square-summable and <theta, beta>
    is finite for every tau in (3, 4), while theta stays in l3 minus l2.
    """
    _check_tau(tau)
    i = np.arange(1, k_max + 1, dtype=float)
    theta = 0.4 * i ** (-1.0 / (tau - 1.0))
    beta = 0.5 * i ** (-2.0 / (tau - 1.0))
    return theta, beta


@dataclass(frozen=True)
class BulkLaw:
    """Finite-support integer law with exact moments."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.values.size != self.probs.size or self.values.size == 0:
            raise ValueError("values and probs must be non-empty and equal length")
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be a probability vector")

    @classmethod
    def table(cls, pmf: dict):
        ks = sorted(pmf)
        return cls(np.array(ks), np.array([pmf[k] for k in ks], dtype=float))

    def moment(self, p: int) -> float:
        return float(np.sum(self.probs * self.values.astype(float) ** p))

    @property
    def mean(self) -> float:
        return self.moment(1)

    def sample(self, rng, size: int) -> np.ndarray:
        cdf = np.cumsum(self.probs)
        u = rng.random(size)
        return self.values[np.searchsorted(cdf, u, side="right").clip(0, self.values.size - 1)]


DEFAULT_BULK_WHITE = BulkLaw.table({1: 0.60, 2: 0.25, 3: 0.15})
DEFAULT_BULK_BLACK = BulkLaw.table({0: 0.40, 1: 0.30, 2: 0.20, 3: 0.10})


def make_limit_parameters(tau: float, k_max: int, lam: float = 0.0) -> LimitParameters:
    """Limit parameters matching the sequences built from the default bulk laws.

    With independent bulk colours the cross-moment satisfies
    E[d_w d_b] = E[d_w] E[d_b], so the implied drift of the black count is
    alpha = E[bulk black] E[bulk white] / kappa.
    """
    theta, beta = power_profiles(tau, k_max)
    kappa = DEFAULT_BULK_WHITE.mean
    alpha = DEFAULT_BULK_BLACK.mean * DEFAULT_BULK_WHITE.mean / kappa
    gamma = DEFAULT_BULK_BLACK.mean
    return LimitParameters(theta=theta, beta=beta, alpha=alpha, lam=lam, kappa=kappa, gamma=gamma)


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees per vertex; half-edges of each colour are numbered by vertex.
    Frozen, since the owner arrays are cached and shared by its graphs."""

    white: np.ndarray
    black: np.ndarray
    scaling: ScalingConstants
    limits: LimitParameters
    hub_mask: np.ndarray  # True for vertices whose degrees are pinned to the profile

    @property
    def n(self) -> int:
        return self.white.size

    @property
    def total_white(self) -> int:
        return int(self.white.sum())

    @property
    def total_black(self) -> int:
        return int(self.black.sum())

    @cached_property
    def white_owner(self) -> np.ndarray:  # vertex of each white half-edge, in the CSR's index type
        return _owners(self.white, self.white_indptr.dtype)

    @cached_property
    def black_owner(self) -> np.ndarray:
        return _owners(self.black)

    @cached_property
    def white_indptr(self) -> np.ndarray:  # vertex v owns white half-edges indptr[v]:indptr[v + 1]
        idx = np.int32 if max(self.n, self.total_white) < 2**31 else np.int64  # scipy's index width
        return np.concatenate(([0], np.cumsum(self.white))).astype(idx)

    def arrangement_key(self) -> np.ndarray:
        return self.white / self.scaling.a_n + self.black / self.scaling.b_n

    def assert_valid(self):
        """Invariants that building and tuning establish; a failure is a bug."""
        if self.total_white % 2 or self.total_black % 2:
            raise InvariantError("colour totals must both be even")
        if np.any(self.white < 1):
            raise InvariantError("all white degrees must be >= 1")
        key = self.arrangement_key()
        if np.any(np.diff(key) > 1e-12):
            raise InvariantError("arrangement is not non-increasing")

    def sorted_by_arrangement(self) -> "DegreeSequence":
        order = np.argsort(-self.arrangement_key(), kind="stable")
        return DegreeSequence(
            self.white[order], self.black[order], self.scaling, self.limits, self.hub_mask[order]
        )


def _owners(degrees: np.ndarray, dtype=np.int64) -> np.ndarray:
    owner = np.repeat(np.arange(degrees.size, dtype=dtype), degrees)
    owner.flags.writeable = False  # shared by every graph on the sequence
    return owner


def build_degree_sequence(
    scaling: ScalingConstants,
    limits: LimitParameters,
    hub_count: int,
    bulk_law: BulkLaw,
    rng: np.random.Generator,
    bulk_black_law: BulkLaw = DEFAULT_BULK_BLACK,
) -> DegreeSequence:
    """Hub degrees round(theta_i a_n) (floored at 1) plus an i.i.d. bulk.

    Parity of each colour total is repaired by incrementing the last bulk
    vertex, and the result is re-sorted to satisfy the arrangement
    invariant.
    """
    if hub_count > limits.theta.size:
        raise ValueError("hub_count exceeds the available profile length")
    if np.any(bulk_law.values < 1):
        raise ValueError("bulk white law must be supported on {1,2,...}")
    n = scaling.n
    n_bulk = n - hub_count
    if n_bulk < 0:
        raise ValueError("hub_count exceeds n")
    hub_w = np.maximum(np.rint(limits.theta[:hub_count] * scaling.a_n), 1).astype(np.int64)
    hub_b = np.rint(limits.beta[:hub_count] * scaling.b_n).astype(np.int64)
    bulk_w = bulk_law.sample(rng, n_bulk)
    bulk_b = bulk_black_law.sample(rng, n_bulk)
    if (hub_w.sum() + bulk_w.sum()) % 2:
        if n_bulk == 0:
            raise ValueError("cannot repair white parity: no bulk vertices")
        bulk_w[-1] += 1
    if (hub_b.sum() + bulk_b.sum()) % 2:
        if n_bulk == 0:
            raise ValueError("cannot repair black parity: no bulk vertices")
        bulk_b[-1] += 1
    seq = DegreeSequence(
        white=np.concatenate((hub_w, bulk_w)),
        black=np.concatenate((hub_b, bulk_b)),
        scaling=scaling,
        limits=limits,
        hub_mask=np.concatenate((np.ones(hub_count, bool), np.zeros(n_bulk, bool))),
    ).sorted_by_arrangement()
    seq.assert_valid()
    return seq


def criticality(seq) -> float:
    """sum d(d-1) / sum d over the white degrees."""
    white = seq.white if isinstance(seq, DegreeSequence) else np.asarray(seq)
    white = white.astype(float)
    s = white.sum()
    if s <= 0:
        raise ValueError("total white degree must be positive")
    return float(np.sum(white * (white - 1.0)) / s)


def tune_to_criticality(seq: DegreeSequence, lambda_target: float) -> DegreeSequence:
    """Flip bulk vertices between white degree 1 and 3 until the sequence is critical.

    Targets nu_n = 1 + lambda/c_n; each flip changes the white total by
    +-2 so parity is preserved. Stops when no single flip improves the
    fit, which places nu within half a flip of the target.
    """
    target = 1.0 + lambda_target / seq.scaling.c_n
    if not np.isfinite(target):
        raise ValueError(f"lambda must give a finite criticality target 1 + lambda/c_n, got lambda = {lambda_target}")
    white = seq.white.copy()
    bulk = ~seq.hub_mask
    N2 = float(np.sum(white * (white - 1.0)))
    S = float(white.sum())
    if abs(6.0 - 2.0 * target) < 1e-12:
        raise ValueError("target criticality 3 is not reachable by 1<->3 flips")
    ones = np.flatnonzero(bulk & (white == 1))
    threes = np.flatnonzero(bulk & (white == 3))
    lo = -len(threes)
    hi = len(ones)
    # clipped in float: a target out of reach can make the closed form +-inf or nan (fmin takes hi)
    m = int(np.rint(np.fmax(lo, np.fmin(hi, (target * S - N2) / (6.0 - 2.0 * target)))))

    def nu_after(k: int) -> float:
        return (N2 + 6.0 * k) / (S + 2.0 * k)

    # polish: the closed form is exact up to rounding, walk to the local optimum
    while lo < m and abs(nu_after(m - 1) - target) < abs(nu_after(m) - target):
        m -= 1
    while m < hi and abs(nu_after(m + 1) - target) < abs(nu_after(m) - target):
        m += 1
    achieved = nu_after(m)
    step = abs(nu_after(m + (1 if m < hi else -1)) - achieved) if hi > lo else 0.0
    if abs(achieved - target) > max(step, 1e-12):
        raise ValueError(
            f"criticality target 1 + lambda/c_n = {target:.6g} unreachable: best nu {achieved:.6g} "
            f"with {len(ones)} ones / {len(threes)} threes available"
        )
    if m > 0:
        white[ones[:m]] = 3
    elif m < 0:
        white[threes[:-m]] = 1
    out = DegreeSequence(white, seq.black.copy(), seq.scaling, seq.limits, seq.hub_mask.copy())
    out = out.sorted_by_arrangement()
    out.assert_valid()
    return out


def validate_assumptions(seq: DegreeSequence, K: int | None = None) -> dict:
    """Empirical moment report against the limit parameters.

    Flags (never errors) when a measured quantity drifts from its target
    by more than 25% relatively. The truncated theta l2 mass is
    reported as monitored only: it diverges in the limit.
    """
    lim = seq.limits
    if K is None:
        K = int(lim.theta.size)
    w = seq.white.astype(float)
    b = seq.black.astype(float)
    n = seq.n
    sc = seq.scaling
    report = {
        "mean_white": float(w.sum() / n),
        "mean_white_sq": float(np.sum(w**2) / n),
        "tail_third_white": float(np.sum(w[K:] ** 3) / sc.a_n**3),
        "tail_second_black": float(np.sum(b[K:] ** 2) / sc.b_n**2),
        "mean_cross": float(np.sum(w * b) / n),
        "mean_black": float(b.sum() / n),
        "criticality": criticality(seq),
        "theta_l2_truncated_monitored": float(np.sum(lim.theta**2)),
    }
    inner = float(np.sum(lim.theta * lim.beta))
    targets = {
        "mean_white": lim.kappa,
        "mean_black": lim.gamma,
        "mean_cross": inner + lim.alpha * lim.kappa,
    }
    flags = {}
    for key, tgt in targets.items():
        if tgt > 0:
            flags[key] = bool(abs(report[key] - tgt) > 0.25 * tgt)
    flags["bulk_needs_degree_one"] = bool(np.min(w) > 1)
    report["targets"] = targets
    report["flags"] = flags
    return report


def write_degree_csv(seq: DegreeSequence, path):
    write_int_rows(path, (seq.white, seq.black), header="white,black\r\n")
