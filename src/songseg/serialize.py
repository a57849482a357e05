"""Bit-exact binary serialization for feature matrices and checkpoints.

Matrix files: ``MATRIX_HEADER`` (magic, rows, cols, dtype code, hop
seconds, pool factor, pad frames) and a row-major float32 payload.
Checkpoints: ``CHECKPOINT_HEADER`` (magic, version, the sha256 of the
pipeline configuration, epoch/step counters, optimizer hyperparameters,
tensor count), then the named float32 tensors of :func:`_tensor_table`
(model parameters and Adam moments) in its order.  Writer and reader share
each of these definitions; everything is little-endian.

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
# magic, rows, cols, dtype code, hop seconds, pool factor, pad frames
MATRIX_HEADER = struct.Struct("<8sIIIdII")
CHECKPOINT_MAGIC = b"SSEGCKP1"
CHECKPOINT_VERSION = 1
# magic, version, config sha256, epoch, Adam step, input height, Adam's
# lr, beta1, beta2 and eps, tensor count
CHECKPOINT_HEADER = struct.Struct("<8sI32sIQIddddI")


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
    header = MATRIX_HEADER.pack(MATRIX_MAGIC, *values.shape, MATRIX_DTYPE_F32,
                                float(m.hop_seconds), int(m.pool_factor),
                                int(m.pad_frames))
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
    if len(data) < MATRIX_HEADER.size:
        raise FormatError(f"{path}: matrix file too short")
    magic, rows, cols, dtype_code, hop_seconds, pool_factor, pad_frames = \
        MATRIX_HEADER.unpack_from(data)
    if magic != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad matrix magic")
    if dtype_code != MATRIX_DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype code {dtype_code}")
    if not (math.isfinite(hop_seconds) and hop_seconds > 0):
        raise FormatError(f"{path}: hop {hop_seconds!r} s is not positive and finite")
    if pool_factor == 0:
        raise FormatError(f"{path}: pool factor 0")
    payload = len(data) - MATRIX_HEADER.size
    expected = rows * cols * 4
    if payload != expected:
        raise FormatError(f"{path}: payload holds {payload} bytes, expected {expected}")
    values = np.frombuffer(data, "<f4", rows * cols, MATRIX_HEADER.size)
    return FeatureMatrix(values=values.reshape(rows, cols).copy(),
                         hop_seconds=hop_seconds, pool_factor=pool_factor,
                         pad_frames=pad_frames, kind="net_input")


def _tensor_table(input_height: int) -> list:
    """``(name, shape)`` of each checkpoint tensor in file order: the model's
    parameters, then each parameter's Adam moments ``adam.m/`` and ``adam.v/``."""
    shapes = param_shapes(input_height)
    return [*shapes.items(), *((f"adam.{moment}/{name}", shape)
                               for name, shape in shapes.items() for moment in "mv")]


def _pack_tensor(name: str, array: np.ndarray) -> bytes:
    data = np.ascontiguousarray(array, dtype="<f4")
    encoded = name.encode("utf-8")
    return b"".join([struct.pack("<I", len(encoded)), encoded,
                     struct.pack(f"<{data.ndim + 1}I", data.ndim, *data.shape),
                     data.tobytes()])


def save_checkpoint(model: BoundaryNet, adam: AdamState, path,
                    config_hash: str, epoch: int) -> None:
    """Persist parameters, Adam moments and counters, tagged by a sha256 config hash."""
    digest = bytes.fromhex(config_hash)
    if len(digest) != 32:
        raise ValueError(f"config hash holds {len(digest)} bytes, expected 32")
    arrays = {**model.params, **{f"adam.{moment}/{name}": getattr(adam, moment)[name]
                                 for name in PARAM_NAMES for moment in "mv"}}
    table = _tensor_table(model.input_height)
    header = CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, digest, int(epoch), int(adam.t),
        int(model.input_height), adam.lr, adam.beta1, adam.beta2, adam.eps, len(table))
    with atomic_write(path) as fh:
        fh.write(header)
        for name, _ in table:
            fh.write(_pack_tensor(name, arrays[name]))


def _read_tensors(data, table, path) -> dict:
    """The tensors of ``table`` after the header, in its order and shapes."""
    pos = CHECKPOINT_HEADER.size

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise FormatError(f"{path}: checkpoint truncated")
        pos += n
        return data[pos - n : pos]
    tensors = {}
    for name, expected in table:
        (length,) = struct.unpack("<I", take(4))
        try:
            found = str(take(length), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: checkpoint tensor name is not UTF-8") from None
        if found != name:
            raise FormatError(f"{path}: checkpoint tensor {found!r} where "
                              f"{name!r} belongs")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        # the payload first: a corrupt shape may claim more than the file holds
        payload = take(4 * math.prod(shape))
        if shape != expected:
            raise FormatError(f"{path}: checkpoint tensor {name!r} has shape "
                              f"{shape}, expected {expected}")
        tensors[name] = np.frombuffer(payload, "<f4").reshape(shape).copy()
    if pos != len(data):
        raise FormatError(f"{path}: checkpoint holds {len(data) - pos} B after "
                          "its last tensor")
    return tensors


def load_checkpoint(path, expected_hash: str = None):
    """Load a checkpoint; returns ``(model, adam, epoch, config_hash)``.

    The tensors must be exactly those of the stored input height's table,
    in its order and shapes, with no byte after the last; anything else is
    a :class:`FormatError`.  If ``expected_hash`` is given and does not
    match the stored pipeline hash, the checkpoint was trained under a
    different configuration and a :class:`CompatibilityError` is raised.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    if len(data) < CHECKPOINT_HEADER.size:
        raise FormatError(f"{path}: checkpoint truncated")
    (_, version, digest, epoch, adam_t, input_height, lr, beta1, beta2, eps,
     count) = CHECKPOINT_HEADER.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        table = _tensor_table(input_height)
    except ValueError as exc:
        raise FormatError(f"{path}: checkpoint {exc}") from None
    if count < len(table):
        raise FormatError(f"{path}: checkpoint lacks tensor {table[count][0]!r}")
    if count > len(table):
        raise FormatError(f"{path}: checkpoint holds {count} tensors, "
                          f"expected {len(table)}")
    tensors = _read_tensors(data, table, path)
    del data  # free the file's bytes before the model draws its weights
    stored_hash = digest.hex()
    if expected_hash is not None and stored_hash != expected_hash:
        raise CompatibilityError(
            f"{path}: checkpoint pipeline hash {stored_hash[:12]}... does not "
            f"match expected {expected_hash[:12]}..."
        )
    model = BoundaryNet(input_height=input_height)
    model.load_params(tensors)
    adam = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=adam_t)
    for name in PARAM_NAMES:
        adam.m[name] = tensors[f"adam.m/{name}"]
        adam.v[name] = tensors[f"adam.v/{name}"]
    return model, adam, epoch, stored_hash
