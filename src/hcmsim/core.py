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

    Rows are encoded about 16k at a time as one NUL-padded byte matrix
    with NumPy (``_encode_int_rows``). A column whose dtype is not integer
    raises ``TypeError``, so that floats are never truncated, and a
    ``suffix`` holding a NUL raises ``ValueError``, since the encoding
    drops every NUL.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind not in "iu":
            raise TypeError(f"integer columns only, not {c.dtype}")
    tail = suffix.encode()
    if b"\0" in tail:
        raise ValueError("the row suffix must not hold a NUL")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for s in range(0, len(columns[0]), _ROWS_PER_WRITE):
            fh.write(_encode_int_rows([c[s : s + _ROWS_PER_WRITE] for c in columns], tail))


def _encode_int_rows(columns, tail: bytes) -> bytes:
    """The rows' bytes.

    One byte matrix, a row per byte position of a line and a column per
    row of the table, holds per field a sign slot (only if a value is
    negative) and as many digit slots as the widest value needs, then the
    separators and ``tail``. The sign slot of a non-negative value and the
    leading zeros are NUL, and ``bytes.translate`` drops them. Digits are
    computed in uint32 for a column whose magnitudes are all below 2**32.
    """
    fields = []
    for c in columns:
        neg = c < 0 if c.dtype.kind == "i" and c.min() < 0 else None
        # abs wraps int64's minimum onto itself, which reads 2**63 as uint64
        mag = c if neg is None else np.abs(c.astype(np.int64)).view(np.uint64)
        top = int(mag.max())
        fields.append((mag.astype(np.uint32 if top < 2**32 else np.uint64), neg, len(str(top))))
    width = sum(1 + (neg is not None) + d for _, neg, d in fields) - 1 + len(tail)
    mat = np.zeros((width, len(columns[0])), dtype=np.uint8)
    at = 0
    for i, (mag, neg, d) in enumerate(fields):
        if i:
            mat[at] = ord(",")
            at += 1
        if neg is not None:
            np.multiply(neg, np.uint8(ord("-")), out=mat[at])
            at += 1
        ten = mag.dtype.type(10)
        for j in range(at + d - 1, at - 1, -1):  # units digit first
            q = mag // ten
            np.multiply(mag != 0, np.uint8(ord("0")), out=mat[j])
            mat[j] |= (mag - q * ten).astype(np.uint8)
            mag = q
        mat[at + d - 1] |= ord("0")  # zero is written "0"
        at += d
    mat[at:] = np.frombuffer(tail, np.uint8)[:, None]
    return mat.T.tobytes().translate(None, b"\0")


def write_json(obj, path):
    """Write ``obj`` as indented JSON with sorted keys and a final newline;
    NumPy scalars are written as floats."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
