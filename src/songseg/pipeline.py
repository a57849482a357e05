"""Feature-extraction orchestration shared by the CLI, tests and demos.

For one track this computes every selected input matrix (mel spectrogram
and/or lag-matrix variants), truncates them to a common frame count, and
pads/standardizes each into a network-ready input.  File-level helpers add
sidecar metadata so re-runs can skip up-to-date outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import os

import numpy as np

from . import serialize
from .audio import AudioBuffer, read_wav, resample
from .errors import CompatibilityError, FormatError
from .params import RunConfig
from .spectral import max_pool_time
from .sslm import FrontEnd, SslmConfig, align_frames, compute_sslm, finalize_input

# Fixed pink-noise seed per input kind: padding must be reproducible across
# tracks and runs.
PINK_SEEDS = {
    "mls": 1001,
    "mfcc-euclidean": 1002,
    "mfcc-cosine": 1003,
    "chroma-euclidean": 1004,
    "chroma-cosine": 1005,
}


def sslm_config_for(name: str, run: RunConfig) -> SslmConfig:
    feature, metric = name.split("-", 1)
    return SslmConfig(feature=feature, metric=metric,
                      pooling=run.pooling, params=run.params)


def extract_inputs(audio: AudioBuffer, run: RunConfig) -> dict:
    """All selected finalized input matrices for one audio buffer.

    Returns ``{input_name: FeatureMatrix}`` where every matrix has kind
    ``net_input`` and the same frame count.  All inputs share one
    :class:`FrontEnd`, so the track's STFT is computed once.
    """
    if audio.sample_rate != run.params.sr:
        audio = resample(audio, run.params.sr)
    front = FrontEnd(audio, run.params)
    raw = {}
    for name in run.input_names():
        if name == "mls":
            raw[name] = max_pool_time(front.mls, run.params.pool_single)
        else:
            raw[name] = compute_sslm(audio, sslm_config_for(name, run), front)
    names = list(raw.keys())
    aligned = align_frames([raw[n] for n in names])
    return {
        name: finalize_input(m, run.params.final_pad, PINK_SEEDS[name])
        for name, m in zip(names, aligned)
    }


def matrix_filename(track_id: str, input_name: str) -> str:
    return f"{track_id}.{input_name}.mat"


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def extract_track_features(wav_path, out_dir, run: RunConfig,
                           force: bool = False) -> list:
    """Extract and save all selected matrices for one WAV file.

    A sidecar ``.meta`` file records the pipeline hash and the source audio
    digest; when both still match, the track is skipped.  Returns the list
    of written (or validated) matrix paths.
    """
    track_id = os.path.splitext(os.path.basename(wav_path))[0]
    pipeline_hash = run.pipeline_hash()
    audio_hash = _file_sha256(wav_path)
    meta_path = os.path.join(out_dir, f"{track_id}.meta")
    paths = [os.path.join(out_dir, matrix_filename(track_id, name))
             for name in run.input_names()]

    if not force and os.path.exists(meta_path) and all(map(os.path.exists, paths)):
        stored = _read_meta(meta_path)
        if (stored.get("pipeline_hash") == pipeline_hash
                and stored.get("audio_sha256") == audio_hash):
            return paths

    audio = read_wav(wav_path)
    matrices = extract_inputs(audio, run)
    os.makedirs(out_dir, exist_ok=True)
    # The sidecar vouches for the matrices beside it: drop the old one
    # before they are rewritten and write the new one last.  The old
    # matrices go too, since a rename over an existing file can force a
    # flush of the new one.
    for path in (meta_path, *paths):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    for name, path in zip(run.input_names(), paths):
        serialize.save_matrix(matrices[name], path)
    serialize.write_text(meta_path, [f"pipeline_hash\t{pipeline_hash}",
                                     f"audio_sha256\t{audio_hash}",
                                     f"inputs\t{','.join(run.input_names())}"])
    return paths


def _read_meta(meta_path) -> dict:
    """The ``key<TAB>value`` entries of a track's ``.meta`` sidecar."""
    return dict(line.split("\t", 1) for _, line in serialize.read_lines(meta_path)
                if "\t" in line)


def load_track_input(features_dir, track_id: str, run: RunConfig):
    """Load and stack a track's matrices in canonical input order.

    Returns ``(stacked_2d_array, frame_rate, pad_frames)``.  The track's
    ``.meta`` sidecar must exist (else :class:`FileNotFoundError`) and carry
    ``run``'s pipeline hash (else :class:`CompatibilityError`), so matrices
    extracted under another configuration are never loaded, and the frame
    rate and pad are ``run``'s, which that hash binds.  A NaN or
    infinite value is a :class:`FormatError` naming the matrix file and the
    value's 0-based row and column.
    """
    stored = _read_meta(os.path.join(features_dir, f"{track_id}.meta"))
    if stored.get("pipeline_hash") != run.pipeline_hash():
        raise CompatibilityError(
            f"track {track_id!r}: features in {features_dir} were extracted "
            "under a different pipeline configuration; re-run 'songseg features'")
    arrays = []
    for name in run.input_names():
        path = os.path.join(features_dir, matrix_filename(track_id, name))
        m = serialize.load_matrix(path)
        values = np.asarray(m.values, dtype=np.float64)
        if not np.isfinite(values).all():
            row, col = np.argwhere(~np.isfinite(values))[0]
            raise FormatError(f"{path}: non-finite value at row {row}, column {col}")
        arrays.append(values)
    widths = {a.shape[1] for a in arrays}
    if len(widths) != 1:
        raise ValueError(f"track {track_id!r}: matrices disagree on frames")
    stacked = np.vstack(arrays)
    return stacked, run.params.frame_rate, run.params.final_pad
