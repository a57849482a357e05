"""Bit-exact binary serialization for feature matrices and checkpoints.

Matrix files: an 8-byte magic, little-endian header (rows, cols, dtype
code, hop seconds, pool factor, pad frames) and a row-major float32
payload.  Checkpoints: magic, version, the sha256 of the pipeline
configuration, epoch/step counters, optimizer hyperparameters, then
length-prefixed named float32 tensors (model parameters and Adam moments).

Every file is written to a temporary name in its directory and renamed into
place, so an interrupted write leaves the previous file, never a partial one.
Every line-oriented UTF-8 text file is read through :func:`read_lines` and
written through :func:`write_text`.
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CompatibilityError, FormatError
from .model import PARAM_NAMES, BoundaryNet, param_shapes
from .optim import AdamState
from .spectral import FeatureMatrix

MATRIX_MAGIC = b"SSEGMAT1"
MATRIX_DTYPE_F32 = 1
CHECKPOINT_MAGIC = b"SSEGCKP1"
CHECKPOINT_VERSION = 1


@contextmanager
def atomic_write(path):
    """Open a temporary binary file next to ``path``; rename it over ``path`` on success.

    If the body raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(path, lines) -> None:
    """Write each of ``lines`` and one LF as UTF-8, replacing ``path`` atomically."""
    with atomic_write(path) as fh:
        fh.write("".join(f"{line}\n" for line in lines).encode("utf-8"))


def read_lines(path):
    """Yield ``(line number, stripped line)`` for every line of a UTF-8 text file.

    Lines end at LF, CRLF or a lone CR, as in text mode.  A line that is not
    UTF-8 raises :class:`FormatError` at ``path:line``.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", "surrogateescape")
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        try:  # the bytes that are not UTF-8 decoded to lone surrogates
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
        yield lineno, line.strip()


def save_matrix(m: FeatureMatrix, path) -> None:
    """Write a FeatureMatrix; values are stored as little-endian float32."""
    values = np.ascontiguousarray(m.values, dtype="<f4")
    rows, cols = values.shape
    header = MATRIX_MAGIC + struct.pack(
        "<IIIdII", rows, cols, MATRIX_DTYPE_F32,
        float(m.hop_seconds), int(m.pool_factor), int(m.pad_frames),
    )
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(values.tobytes())


def load_matrix(path) -> FeatureMatrix:
    """Read a matrix file; the result has kind ``net_input``.

    A header whose hop is not a positive finite number of seconds, or whose
    pool factor is 0, is a :class:`FormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MATRIX_MAGIC) + 28:
        raise FormatError(f"{path}: matrix file too short")
    if data[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad matrix magic")
    rows, cols, dtype_code, hop_seconds, pool_factor, pad_frames = struct.unpack_from(
        "<IIIdII", data, len(MATRIX_MAGIC))
    if dtype_code != MATRIX_DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype code {dtype_code}")
    if not (math.isfinite(hop_seconds) and hop_seconds > 0):
        raise FormatError(f"{path}: hop {hop_seconds!r} s is not positive and finite")
    if pool_factor == 0:
        raise FormatError(f"{path}: pool factor 0")
    payload = data[len(MATRIX_MAGIC) + 28 :]
    expected = rows * cols * 4
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
    return FeatureMatrix(values=values, hop_seconds=hop_seconds,
                         pool_factor=pool_factor, pad_frames=pad_frames,
                         kind="net_input")


def _pack_tensor(name: str, array: np.ndarray) -> bytes:
    data = np.ascontiguousarray(array, dtype="<f4")
    encoded = name.encode("utf-8")
    parts = [struct.pack("<I", len(encoded)), encoded,
             struct.pack("<I", data.ndim)]
    parts.extend(struct.pack("<I", d) for d in data.shape)
    parts.append(data.tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.path}: checkpoint truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def save_checkpoint(model: BoundaryNet, adam: AdamState, path,
                    config_hash: str, epoch: int) -> None:
    """Persist parameters, Adam moments and counters, tagged by a sha256 config hash."""
    digest = bytes.fromhex(config_hash)
    if len(digest) != 32:
        raise ValueError(f"config hash holds {len(digest)} bytes, expected 32")
    tensors = []
    for name in PARAM_NAMES:
        tensors.append(_pack_tensor(name, model.params[name]))
    for name in PARAM_NAMES:
        tensors.append(_pack_tensor(f"adam.m/{name}", adam.m[name]))
        tensors.append(_pack_tensor(f"adam.v/{name}", adam.v[name]))
    header = b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        digest,
        struct.pack("<I", int(epoch)),
        struct.pack("<Q", int(adam.t)),
        struct.pack("<I", int(model.input_height)),
        struct.pack("<dddd", adam.lr, adam.beta1, adam.beta2, adam.eps),
        struct.pack("<I", len(tensors)),
    ])
    with atomic_write(path) as fh:
        fh.write(header)
        for blob in tensors:
            fh.write(blob)


def load_checkpoint(path, expected_hash: str = None):
    """Load a checkpoint; returns ``(model, adam, epoch, config_hash)``.

    If ``expected_hash`` is given and does not match the stored pipeline
    hash, the checkpoint was trained under a different configuration and a
    :class:`CompatibilityError` is raised.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    r = _Reader(data, path)
    r.take(len(CHECKPOINT_MAGIC))
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    stored_hash = r.take(32).hex()
    epoch = r.u32()
    adam_t = r.u64()
    input_height = r.u32()
    lr, beta1, beta2, eps = struct.unpack("<dddd", r.take(32))
    n_tensors = r.u32()

    tensors = {}
    for _ in range(n_tensors):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: checkpoint tensor name is not UTF-8") from None
        ndim = r.u32()
        shape = tuple(r.u32() for _ in range(ndim))
        tensors[name] = np.frombuffer(r.take(4 * math.prod(shape)),
                                      dtype="<f4").reshape(shape).copy()

    if expected_hash is not None and stored_hash != expected_hash:
        raise CompatibilityError(
            f"{path}: checkpoint pipeline hash {stored_hash[:12]}... does not "
            f"match expected {expected_hash[:12]}..."
        )

    try:
        shapes = param_shapes(input_height)
    except ValueError as exc:
        raise FormatError(f"{path}: checkpoint {exc}") from None
    for name, expected in shapes.items():
        for key in (name, f"adam.m/{name}", f"adam.v/{name}"):
            if key not in tensors:
                raise FormatError(f"{path}: checkpoint lacks tensor {key!r}")
            if tensors[key].shape != expected:
                raise FormatError(f"{path}: checkpoint tensor {key!r} has shape "
                                  f"{tensors[key].shape}, expected {expected}")
    model = BoundaryNet(input_height=input_height)
    model.load_params({name: tensors[name] for name in PARAM_NAMES})
    adam = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=adam_t)
    for name in PARAM_NAMES:
        adam.m[name] = tensors[f"adam.m/{name}"]
        adam.v[name] = tensors[f"adam.v/{name}"]
    return model, adam, epoch, stored_hash
