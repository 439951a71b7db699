"""Binary checkpoint format.

Layout (all integers little-endian):

    magic  b"REDAE"
    version u16 (currently 1)
    variant: u16 length + utf-8 bytes
    in_channels u32, kernel u32, classes u32
    widths: u32 count + u32 each
    class_weights: f64 per class
    tensors: u32 count, then per tensor
        name (u16 length + utf-8), dims u32 x4, payload f32 little-endian
    crc32 u32 of every preceding byte

Parameters and running statistics are stored in float32, the dtype the
network trains and infers in, so a save -> load -> save round trip is
byte-stable. `save` refuses a folded inference copy (`network.fold`) and
renames a finished file onto the target, so a failed save leaves an earlier
checkpoint at that path untouched. `load` builds a float32 network and
requires every tensor of the saved topology exactly once, with no trailing
bytes, every value finite, every running variance nonnegative and every
class weight positive; anything else is a `DataError`.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import ConfigError, DataError
from .layers import ClassWeights
from .network import Network, build, named_buffers, named_parameters

MAGIC = b"REDAE"
VERSION = 1


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


def save(net: Network, path: str) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    out += _pack_str(net.variant)
    out += struct.pack("<III", net.in_channels, net.kernel, net.classes)
    out += struct.pack("<I", len(net.widths))
    for wd in net.widths:
        out += struct.pack("<I", wd)
    out += np.asarray(net.class_weights.w, dtype="<f8").tobytes()

    tensors = [(name, t.data) for name, t in named_parameters(net)]
    tensors += [(name, buf.reshape(1, -1, 1, 1)) for name, buf in named_buffers(net)]
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        out += _pack_str(name)
        out += struct.pack("<IIII", *arr.shape)
        out += arr.astype("<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    # write beside the target and rename over it, so a write that fails part
    # way leaves the previous checkpoint at `path` as it was
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(out)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _ZeroDraws:
    """Stands in for `build`'s `Rng`: every draw is zeros, and none is random.

    `load` overwrites every tensor `build` makes, so drawing a real He
    initialisation first would be wasted work. Each drawn tensor is stored
    in the file at 4 bytes a value, and `build` draws before it makes any
    other array as large, so draws past the file's size are a header whose
    topology cannot fit: refused before numpy is asked for them.
    """

    def __init__(self, path: str, size: int):
        self.path, self.left = path, size // 4

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        self.left -= math.prod(shape)
        if self.left < 0:
            raise DataError(f"{self.path}: the header's topology does not fit in the file")
        return np.zeros(shape)


class _Reader:
    def __init__(self, raw: bytes, path: str):
        self.raw, self.pos, self.path = raw, 0, path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise DataError(f"{self.path}: truncated checkpoint")
        b = self.raw[self.pos:self.pos + n]
        self.pos += n
        return b

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode()


def load(path: str) -> Network:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 4 or raw[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != crc_stored:
        raise DataError(f"{path}: CRC mismatch, file corrupt")

    r = _Reader(raw[:-4], path)
    r.take(len(MAGIC))
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    variant = r.string()
    in_channels, kernel, classes = r.unpack("<III")
    (n_widths,) = r.unpack("<I")
    widths = [r.unpack("<I")[0] for _ in range(n_widths)]
    weights = np.frombuffer(r.take(8 * classes), dtype="<f8").copy()

    try:
        net = build(variant, widths, classes, _ZeroDraws(path, len(raw)), in_channels=in_channels,
                    kernel=kernel, dtype=np.float32)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None
    net.class_weights = ClassWeights(weights)
    params = dict(named_parameters(net))
    buffers = dict(named_buffers(net))
    expected = {name: t.shape for name, t in params.items()}
    expected.update((name, (1, buf.size, 1, 1)) for name, buf in buffers.items())
    seen: set[str] = set()
    (n_tensors,) = r.unpack("<I")
    for _ in range(n_tensors):
        name = r.string()
        shape = r.unpack("<IIII")
        if name not in expected:
            raise DataError(f"{path}: unknown tensor {name!r}")
        if name in seen:
            raise DataError(f"{path}: tensor {name!r} appears twice")
        if shape != expected[name]:
            raise DataError(f"{path}: tensor {name!r} shape {shape} does not match topology")
        seen.add(name)
        arr = np.frombuffer(r.take(4 * int(np.prod(shape))), dtype="<f4").astype(np.float32)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name!r} holds non-finite values")
        if name.endswith(".running_var") and (arr < 0).any():
            raise DataError(f"{path}: tensor {name!r} holds a negative variance")
        if name in params:
            params[name].data = arr.reshape(shape)
        else:
            buffers[name][...] = arr
    missing = [name for name in expected if name not in seen]
    if missing:
        raise DataError(f"{path}: missing tensors {', '.join(missing)}")
    if r.pos != len(r.raw):
        raise DataError(f"{path}: {len(r.raw) - r.pos} trailing bytes after the tensors")
    return net
