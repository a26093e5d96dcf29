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

    ``seed`` may be an int or an existing Generator (returned unchanged).
    All fresh generators use the Philox engine so that streams derived by
    :func:`stream_gen` are counter-based and cannot collide.
    """
    if isinstance(seed, np.random.Generator):
        return seed
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


def write_int_rows(path, columns, header: str, suffix: str = "\r\n"):
    """Write ``header``, then one line per row of the equal-length 1-D
    integer ``columns``: the fields in decimal, joined by ``,`` and ended
    by ``suffix``. The bytes are those of ``write_rows`` with the line
    ``"{},{},...{}" + suffix``.

    Rows are encoded about 16k at a time as one byte matrix with NumPy. A
    column whose dtype is not integer raises ``TypeError``, so that floats
    are never truncated.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind not in "iu":
            raise TypeError(f"integer columns only, not {c.dtype}")
    tail = np.frombuffer(suffix.encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for s in range(0, len(columns[0]), _ROWS_PER_WRITE):
            fh.write(_encode_int_rows([c[s : s + _ROWS_PER_WRITE] for c in columns], tail))


def _encode_int_rows(columns, tail) -> np.ndarray:
    """The rows' bytes, as a 1-D uint8 array.

    Each row of the byte matrix holds, per field, a sign byte and as many
    digit bytes as the chunk's widest value needs, then the separators and
    the suffix; a mask drops the sign of non-negative values and the
    leading zeros.
    """
    rows = len(columns[0])
    fields = []
    for c in columns:
        if c.dtype.kind == "u":
            mag, neg = c.astype(np.uint64), np.zeros(rows, dtype=bool)
        else:
            v = c.astype(np.int64)
            # abs wraps int64's minimum onto itself, which reads 2**63 as uint64
            mag, neg = np.abs(v).view(np.uint64), v < 0
        fields.append((mag, neg, len(str(mag.max()))))
    width = sum(2 + d for *_, d in fields) - 1 + tail.size
    mat = np.empty((rows, width), dtype=np.uint8)
    keep = np.ones((rows, width), dtype=bool)
    ten = np.uint64(10)
    at = 0
    for i, (mag, neg, d) in enumerate(fields):
        if i:
            mat[:, at] = ord(",")
            at += 1
        mat[:, at] = ord("-")
        keep[:, at] = neg
        at += 1
        for j in range(at + d - 1, at - 1, -1):  # units digit first
            keep[:, j] = mag != 0
            q = mag // ten
            mat[:, j] = mag - q * ten + ord("0")
            mag = q
        keep[:, at + d - 1] = True  # zero is written "0"
        at += d
    mat[:, at:] = tail
    return mat[keep]


def write_json(obj, path):
    """Write ``obj`` as indented JSON with sorted keys and a final newline;
    NumPy scalars are written as floats."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
