"""Seeding, RNG streams, shared error types, a lock-free cache, and the CSV and JSON writers."""

from __future__ import annotations

import json

import numpy as np


class InvariantError(RuntimeError):
    """A runtime invariant that should hold by construction was violated."""


class cached_property:
    """functools.cached_property without its lock, which before Python 3.12
    is shared by all instances and so serialises threads; two threads that
    race on one instance compute the same value."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def as_generator(seed) -> np.random.Generator:
    """Return a counter-based Generator for ``seed``.

    ``seed`` may be an int, a SeedSequence, or an existing Generator
    (returned unchanged). All fresh generators use the Philox engine so
    that streams derived by :func:`stream_gen` are counter-based and
    cannot collide.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def stream_gen(master_seed: int, stream_index: int) -> np.random.Generator:
    """Philox generator for replicate ``stream_index`` under ``master_seed``.

    Scheme (stable across platforms and releases, reproducible by
    independent implementations): the Philox key is derived by
    ``numpy.random.SeedSequence(entropy=master_seed,
    spawn_key=(stream_index,))``. Distinct stream indices give distinct
    spawn keys, so streams never collide.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(stream_index),))
    return np.random.Generator(np.random.Philox(ss))


_ROWS_PER_WRITE = 16384


def write_rows(path, line: str, columns, header: str = ""):
    """Write ``header``, then ``line.format(*row)`` for each row of the
    equal-length 1-D ``columns``.

    ``line`` holds the separators and the newline. Rows are formatted and
    written about 16k at a time, so memory stays bounded by one chunk.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for s in range(0, len(columns[0]), _ROWS_PER_WRITE):
            fh.write("".join(map(line.format, *(c[s : s + _ROWS_PER_WRITE].tolist() for c in columns))))


def write_json(obj, path):
    """Write ``obj`` as indented JSON with sorted keys and a final newline;
    NumPy scalars are written as floats."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
