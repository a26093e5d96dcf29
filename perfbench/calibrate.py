"""The machine's speed, measured with fixed reference kernels.

On a shared virtual machine other tenants slow the host's cores by up to
half, in stretches from a fraction of a second to minutes, with no steal
and nothing else busy in the guest. A run's raw wall time then says as
much about the neighbours as about the program. The harness times a
reference kernel just before and just after every pass and rescales the
pass's time to the speed of a quiet machine:

    speed      = nominal kernel time / mean of the two kernel times measured
    calibrated = measured time * speed

Neighbours do not slow every kind of code alike, so each workload has its
own kernel, a mix of parts that do the kinds of work its layers do:

    graph    a uniform matching and its component labels (NumPy, SciPy)
    walk     an interpreted breadth-first walk indexing NumPy arrays
    closure  a batched uint8 boolean closure of small systems

Each workload's mix is recorded in ``workloads.py``: the one whose
calibrated pass times varied least when passes and kernel calls were
timed alternately for a few minutes on a contended machine.

The parts use only NumPy, SciPy and the standard library, never
``hcmsim``, so a change to the program cannot move them."""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from collections import deque

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

SEED = 240105263


def graph() -> int:
    rng = np.random.default_rng(SEED)
    n = 50_000
    half = rng.permutation(2 * n)
    a, b = half[0::2] % n, half[1::2] % n
    adj = coo_matrix((np.ones(n), (a, b)), shape=(n, n)).tocsr()
    _, labels = connected_components(adj, directed=False)
    return int(np.sort(np.bincount(labels))[-1])


def walk() -> int:
    rng = np.random.default_rng(SEED)
    n = 3_000
    ends = rng.integers(n, size=(2, 2 * n))
    order = np.argsort(np.concatenate(ends))
    indptr = np.searchsorted(np.concatenate(ends)[order], np.arange(n + 1))
    indices = np.concatenate(ends[::-1])[order]
    seen = np.zeros(n, dtype=bool)
    steps = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for k in range(int(indptr[u]), int(indptr[u + 1])):
                v = int(indices[k])
                steps += 1
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return steps


def closure() -> int:
    rng = np.random.default_rng(SEED)
    reps, m = 6, 60
    adj = rng.random((reps, m, m)) < 1.5 / m
    reach = adj | adj.transpose(0, 2, 1) | np.eye(m, dtype=bool)
    hops = 1
    while hops < m:
        reach = np.matmul(reach.astype(np.uint8), reach.astype(np.uint8)).astype(bool)
        hops *= 2
    root = np.ones((reps, m), dtype=bool)
    for i in range(1, m):
        root[:, i] = ~reach[:, i, :i].any(axis=1)
    return int(root.sum())


PARTS = {"graph": graph, "walk": walk, "closure": closure}

# Median time of each part on the quiet 2-vCPU Xeon virtual machine the
# benchmark was written on. They only set the scale of calibrated times:
# both sides of a comparison use the same values.
NOMINAL_S = {"graph": 0.0055, "walk": 0.0041, "closure": 0.0056}

# Set-up is almost all imports, and its time does not follow the
# kernels'. It is calibrated with fresh interpreters that import what the
# program imports from outside the standard library, timed between the
# set-up probes. The nominal time only sets the scale.
IMPORTS = "import numpy, scipy.sparse.csgraph, scipy.stats"
NOMINAL_IMPORTS_S = 1.0

CALLS = 3  # kernel calls per measurement; their median is taken


def kernel(mix: dict[str, int]) -> int:
    """One fixed unit of work; returns a checksum so no step is skipped."""
    return sum(PARTS[part]() for part, count in mix.items() for _ in range(count))


def nominal_s(mix: dict[str, int]) -> float:
    """The kernel's time on a quiet machine."""
    return sum(NOMINAL_S[part] * count for part, count in mix.items())


def reference_s(mix: dict[str, int]) -> float:
    """Median wall time of ``CALLS`` kernel calls, now.

    The garbage collector is off while the kernel runs: its cost grows
    with everything else the process holds, which the program decides."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CALLS):
            t0 = time.perf_counter()
            kernel(mix)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def imports_s() -> float:
    """Wall time of a fresh interpreter that runs ``IMPORTS``, now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], check=True, timeout=120)
    return time.perf_counter() - t0


def speed(mix: dict[str, int], before_s: float, after_s: float) -> float:
    """Quiet-machine speed over the speed measured around a timed stretch."""
    return nominal_s(mix) / ((before_s + after_s) / 2)
