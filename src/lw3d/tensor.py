"""Dense rank-5 video tensors in fixed NCTHW layout.

Everything in this toolkit moves data as ``Tensor5D``: a contiguous
32-bit float buffer ordered (batch, channel, time, height, width) with
width fastest.  Channel split/concat are therefore contiguous block
operations, and the binary file format is bit-exact across platforms.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

MAGIC = b"LW3D"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sB5Q")  # magic, version byte, five u64 LE dims


class Shape5(NamedTuple):
    """Dimensions of a rank-5 tensor; all components >= 1 for valid tensors."""

    n: int
    c: int
    t: int
    h: int
    w: int

    @property
    def size(self) -> int:
        return self.n * self.c * self.t * self.h * self.w


@dataclass(frozen=True)
class Tensor5D:
    """Immutable rank-5 float32 tensor.

    ``data`` is a C-contiguous ndarray of shape (n, c, t, h, w); element
    (n, c, t, h, w) lives at flat index ((((n*C + c)*T + t)*H + h)*W + w.
    Callers must not mutate ``data`` after construction.  The one exception
    is ``autodiff.forward``'s folded conv -> bn -> relu, which adds the bn
    shift and applies the relu in place on the conv's fresh output before
    any other code reads it.
    """

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 5:
            raise ValueError(f"expected 5 dims, got {self.data.ndim}")
        if any(d < 1 for d in self.data.shape):
            raise ValueError(f"all dims must be >= 1, got {self.data.shape}")
        if self.data.dtype != np.float32 or not self.data.flags["C_CONTIGUOUS"]:
            object.__setattr__(
                self, "data", np.ascontiguousarray(self.data, dtype=np.float32)
            )

    @property
    def shape(self) -> Shape5:
        return Shape5(*self.data.shape)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def t(self) -> int:
        return self.data.shape[2]

    @property
    def h(self) -> int:
        return self.data.shape[3]

    @property
    def w(self) -> int:
        return self.data.shape[4]

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor5D) and np.array_equal(self.data, other.data)


def concat_channels(parts: Sequence[Tensor5D]) -> Tensor5D:
    """Concatenate along the channel axis; part k occupies a contiguous block."""
    if not parts:
        raise ValueError("concat_channels requires at least one part")
    ref = parts[0].shape
    for i, p in enumerate(parts[1:], start=1):
        s = p.shape
        if (s.n, s.t, s.h, s.w) != (ref.n, ref.t, ref.h, ref.w):
            raise ValueError(
                f"part {i} has shape {tuple(s)}, incompatible with {tuple(ref)}"
            )
    return Tensor5D(np.concatenate([p.data for p in parts], axis=1))


def relu(x: Tensor5D) -> Tensor5D:
    return Tensor5D(np.maximum(x.data, np.float32(0.0)))


def write_record(f: BinaryIO, x: Tensor5D) -> None:
    """Write one ``.lw3d`` record: magic, version byte, five u64 LE dims,
    then the float32 LE payload in layout order."""
    f.write(HEADER.pack(MAGIC, FORMAT_VERSION, *x.shape))
    f.write(np.ascontiguousarray(x.data, dtype="<f4").tobytes())


def read_record(f: BinaryIO, label: str) -> Tensor5D:
    """Read one record from ``f``; every error is a one-line ``ValueError``
    that starts with ``label``.  The payload size the header claims is
    checked against the bytes left in the file before anything is read."""
    head = f.read(HEADER.size)
    if not head:
        raise ValueError(f"{label}: file ends before the record")
    if head[:4] != MAGIC:
        raise ValueError(f"{label}: bad magic {head[:4]!r}")
    if len(head) < HEADER.size:
        raise ValueError(f"{label}: truncated header, {len(head)} of {HEADER.size} bytes")
    _, version, *dims = HEADER.unpack(head)
    if version != FORMAT_VERSION:
        raise ValueError(f"{label}: unsupported format version {version}")
    if min(dims) < 1:
        raise ValueError(f"{label}: all dims must be >= 1, got {tuple(dims)}")
    nbytes = 4 * math.prod(dims)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if nbytes > left:
        raise ValueError(
            f"{label}: truncated payload, dims {tuple(dims)} need {nbytes} bytes, "
            f"{left} left"
        )
    payload = np.frombuffer(f.read(nbytes), dtype="<f4")
    return Tensor5D(payload.astype(np.float32).reshape(dims))


def save_tensor(path, x: Tensor5D) -> None:
    with open(path, "wb") as f:
        write_record(f, x)


def load_tensor(path) -> Tensor5D:
    with open(path, "rb") as f:
        return read_record(f, str(path))
