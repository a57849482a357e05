"""Golden digests: outputs that a refactor or speedup must leave bit-identical.

The digests are computed in one child process with the BLAS thread count
pinned to 2, because the rounding of matrix products (mel filterbank,
convolutions) depends on it.  They cover the synthesizer's samples and
boundaries, feature extraction with all five inputs under both poolings,
the model's logits and gradients on Gaussian input and on a real mel
spectrogram, one model run at a wide, a narrow and again the wide width, a
short training run's checkpoint bytes and the threshold sweep on its
curves.

Only a change that means to alter outputs may re-pin a digest, and it
records the old and new value and the reason in CHANGES.md.  Run this file
directly (``PYTHONPATH=src python tests/test_golden.py``) to print the
current digests as JSON; set the three thread variables to 2 first.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from songseg.annotations import to_target_curve
from songseg.model import PARAM_NAMES, BoundaryNet
from songseg.params import RunConfig
from songseg.pipeline import extract_inputs
from songseg.postprocess import from_logits, sweep_threshold
from songseg.serialize import save_checkpoint
from songseg.synth import synth_corpus
from songseg.training import TrackExample, train

BLAS_THREADS = "2"
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

GOLDEN = {
    "extract_pool6": "ed35f9f63358c26486c1bca1ce398ce94bd53718dd54476e4b7e46ae3651d15a",
    "extract_pool2_3": "a63fececec6a9f97d2653bd3a7028be1a3e1073800881e0743237967f6e4819a",
    "model_h80": "b5e9a7459398bdc019f93ec29e117106254a5543f395f7e70119fa82faa8b64d",
    "model_h480": "64f3882d6070c82582cf8d9b81e83450e3ed3ea624f8959efc861bfd4200a9d8",
    "model_mel": "a3024b7c2bc8a336f10a3f902edce27da01f46121f5064086c819f6d606ae5ae",
    "model_widths": "91d44f171d39513e5b6603c5a776f97650f743cb2da663166e73d4f22f6ae7f9",
    "checkpoint": "af87b09cbbc7ff96527ef49be95bca92786df13aa5221bb5e00a577256dbe54a",
    "sweep_rows": "5f02537dd834004a0f4d78065d1808d0ca604393681258c36c2854940ee14134",
    "synth": "8e3ba9b0d444ea8b8394a8ce5c71796e6774fd2567766778455ad17a5c3d6c08",
}


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def _extraction_digests() -> dict:
    clip = synth_corpus(seed=7, n_tracks=1, segments_per_track=(2, 2),
                        segment_duration=(10.0, 10.0))[0].audio
    out = {}
    for pooling in ("pool6", "pool2_3"):
        run = RunConfig(include_mls=True, pooling=pooling,
                        sslm_inputs=("mfcc-euclidean", "mfcc-cosine",
                                     "chroma-euclidean", "chroma-cosine"))
        inputs = extract_inputs(clip, run)
        out[f"extract_{pooling}"] = _sha(*(inputs[n].values for n in run.input_names()))
    return out


def _model_digests() -> dict:
    out = {}
    for height in (80, 480):
        net = BoundaryNet(input_height=height, seed=3)
        x = np.random.default_rng(height).standard_normal((height, 160))
        logits, caches = net.forward_with_cache(x)
        grads, grad_x = net.backward(np.tanh(logits), caches)
        out[f"model_h{height}"] = _sha(
            logits, *(grads[name] for name in PARAM_NAMES), grad_x)
    return out


def _acceptance_corpus() -> list:
    return synth_corpus(seed=20, n_tracks=5, segments_per_track=(3, 5),
                        segment_duration=(7.0, 8.0))


def _synth_digest(acceptance) -> dict:
    """Samples and boundaries of the acceptance corpus and of a short
    2-track corpus of 12 segments."""
    short = synth_corpus(seed=4, n_tracks=2, segments_per_track=(6, 6),
                         segment_duration=(1.0, 2.5))
    return {"synth": _sha(*(a for t in acceptance + short
                            for a in (t.audio.samples, t.boundaries.times)))}


def _acceptance_examples(run, tracks) -> list:
    """The acceptance corpus as mel-input training examples."""
    examples = []
    for i, track in enumerate(tracks):
        mls = extract_inputs(track.audio, run)["mls"]
        target = to_target_curve(track.boundaries, mls.n_frames,
                                 run.params.frame_rate, run.params.final_pad)
        examples.append(TrackExample(f"track{i}", mls.values, target,
                                     track.boundaries))
    return examples


def _mel_model_digest(examples) -> dict:
    """Logits and gradients on a real mel spectrogram.

    About 30% of its pooled conv1 windows have a negative maximum, so the
    first activation's slope meets gradients that pooling summed; on
    Gaussian input almost no window maximum is negative.
    """
    net = BoundaryNet(input_height=80, seed=0)
    logits, caches = net.forward_with_cache(examples[0].inputs)
    grads, grad_x = net.backward(np.tanh(logits), caches)
    return {"model_mel": _sha(logits, *(grads[name] for name in PARAM_NAMES),
                              grad_x)}


def _model_widths_digest(examples) -> dict:
    """One model at 736 frames (track 0's mel tiled twice), then forward and
    backward at the track's own 368 frames, then 736 frames again: whatever
    the model keeps between calls must not leak from one width into the
    next."""
    mel = examples[0].inputs
    wide = np.tile(mel, 2)
    net = BoundaryNet(input_height=80, seed=1)
    first = net.forward(wide)
    logits, caches = net.forward_with_cache(mel)
    grads, grad_x = net.backward(np.tanh(logits), caches)
    again = net.forward(wide)
    return {"model_widths": _sha(first, logits,
                                 *(grads[name] for name in PARAM_NAMES),
                                 grad_x, again)}


def _training_digests(run, examples) -> dict:
    net = BoundaryNet(input_height=examples[0].inputs.shape[0], seed=run.seed)
    result = train(net, examples[:4], epochs=2, seed=run.seed,
                   val_set=examples[4:], threshold=run.threshold)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.ckpt")
        save_checkpoint(net, result.adam, path, config_hash=run.pipeline_hash(),
                        epoch=2)
        with open(path, "rb") as fh:
            ckpt = hashlib.sha256(fh.read()).hexdigest()
    pairs = [(from_logits(net.forward(ex.inputs), ex.target.frame_rate,
                          ex.target.pad_frames), ex.boundaries)
             for ex in examples]
    _, rows = sweep_threshold(pairs)
    table = np.array([(r.threshold, r.precision, r.recall, r.f_score) for r in rows])
    return {"checkpoint": ckpt, "sweep_rows": _sha(table)}


def compute() -> dict:
    """Every golden digest, plus the numpy and OpenBLAS versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    run = RunConfig()
    acceptance = _acceptance_corpus()
    examples = _acceptance_examples(run, acceptance)
    digests = {**_synth_digest(acceptance), **_extraction_digests(),
               **_model_digests(), **_mel_model_digest(examples),
               **_model_widths_digest(examples),
               **_training_digests(run, examples)}
    return {"digests": digests,
            "versions": f"numpy {np.__version__}, {blas['name']} {blas['version']}"}


def test_golden_digests():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    changed = {k: v for k, v in got["digests"].items() if GOLDEN.get(k) != v}
    assert not changed and got["digests"].keys() == GOLDEN.keys(), (
        f"golden digests differ under {got['versions']} with "
        f"{BLAS_THREADS} BLAS threads: {json.dumps(changed, indent=1)}")


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1))
