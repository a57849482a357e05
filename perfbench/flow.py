"""Workloads, input set-up, the timed flow and the output checks.

Every workload runs the same command-line flow on inputs made from the
seed: extract features (``force=True``, fresh directory), train the default
detector on the acceptance corpus, predict on long test tracks, sweep the
picking threshold.  The workloads differ in what they extract, which decides
the layers that dominate:

* ``extract-pool6``: all five inputs under ``pool6`` on the two 90 s
  test tracks.  Five STFTs and three mel spectrograms per track, plus
  ``equalize`` over 100 lag bins.
* ``extract-pool2_3``: all five inputs under ``pool2_3`` on a 24 s clip of
  the first test track.  ``equalize`` over 301 lag bins dominates; the
  front end barely shows.  One cycle takes about 17 s, so it is run by
  hand and is not in ``BENCHMARK.json`` (see README.md).
* ``train-sweep``: the default configuration (mel spectrogram only, one
  STFT per track) on the test tracks, so training, prediction and the
  sweep dominate.

All calls go through module attributes (``pipeline.extract_track_features``)
so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from songseg import (annotations, audio, evaluation, model, pipeline,
                     postprocess, serialize, synth, training)
from songseg.params import SSLM_VARIANTS, RunConfig
from songseg.sslm import SslmConfig

SR = 44100
EPOCHS = 4
# The acceptance corpus of the release gate: seed 20, five tracks of three
# to five 7-8 s segments; the first four train, the fifth validates.
ACCEPTANCE = dict(seed=20, n_tracks=5, segments_per_track=(3, 5),
                  segment_duration=(7.0, 8.0))
TEST_SECONDS = (90.0, 90.0)
TEST_SEGMENTS = (7.5, 8.5)
# Boundaries this close to a cut track end are dropped from its references.
END_MARGIN_S = 2.0
ORACLE_CLIP_S = 2.0
ORACLE_VARIANTS = ("mfcc-cosine", "chroma-euclidean")
ORACLE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    config: RunConfig
    clip_seconds: float  # extract a clip of the first test track; 0: all tracks
    net_height: int      # expected stacked height of one track's inputs


WORKLOADS = {
    w.name: w for w in (
        Workload("extract-pool6",
                 RunConfig(pooling="pool6", sslm_inputs=SSLM_VARIANTS),
                 0.0, 480),
        Workload("extract-pool2_3",
                 RunConfig(pooling="pool2_3", sslm_inputs=SSLM_VARIANTS),
                 24.0, 1284),
        Workload("train-sweep", RunConfig(), 0.0, 80),
    )
}

# The detector every workload trains: mel spectrogram only, pool6.
TRAIN_RUN = RunConfig()


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def fixed_length_tracks(seed: int, lengths, segment_range) -> list:
    """Synthetic tracks cut to exact lengths; returns ``[(AudioBuffer, BoundarySet)]``.

    Every seed yields the same amount of audio, so run cost does not depend
    on the seed; only the content and the boundary positions do.
    """
    n_segments = math.ceil(max(lengths) / segment_range[0])
    tracks = synth.synth_corpus(seed, len(lengths),
                                segments_per_track=(n_segments, n_segments),
                                segment_duration=segment_range, sr=SR)
    out = []
    for track, length in zip(tracks, lengths):
        samples = track.audio.samples[: int(round(length * SR))]
        refs = annotations.BoundarySet(
            t for t in track.boundaries.times if t <= length - END_MARGIN_S)
        out.append((audio.AudioBuffer(samples=samples, sample_rate=SR), refs))
    return out


def _write_tracks(root, tracks, with_refs=True) -> list:
    os.makedirs(os.path.join(root, "audio"), exist_ok=True)
    os.makedirs(os.path.join(root, "refs"), exist_ok=True)
    ids = []
    for i, (buf, refs) in enumerate(tracks):
        tid = f"track{i:03d}"
        ids.append(tid)
        audio.write_wav(os.path.join(root, "audio", f"{tid}.wav"), buf)
        if with_refs:
            annotations.write_functions_file(
                os.path.join(root, "refs", f"{tid}.txt"), refs)
    return ids


def setup(work: str, workload: Workload, seed: int) -> None:
    """Synthesize and write every input; extract the features predict reads.

    Layout under ``work``: ``acc/`` (acceptance corpus) and ``test/`` (test
    tracks), each with audio, references and mel-spectrogram features, and
    for a workload that extracts a clip, ``clip/`` (its audio).
    """
    if os.path.exists(work):
        shutil.rmtree(work)
    acc = synth.synth_corpus(**ACCEPTANCE, sr=SR)
    acc_ids = _write_tracks(os.path.join(work, "acc"),
                            [(t.audio, t.boundaries) for t in acc])
    test = fixed_length_tracks(derived_seed(seed, 1), TEST_SECONDS, TEST_SEGMENTS)
    test_ids = _write_tracks(os.path.join(work, "test"), test)
    if workload.clip_seconds:
        buf = test[0][0]
        clip = audio.AudioBuffer(buf.samples[: int(round(workload.clip_seconds * SR))], SR)
        _write_tracks(os.path.join(work, "clip"), [(clip, None)], with_refs=False)
    for sub, ids in (("acc", acc_ids), ("test", test_ids)):
        for tid in ids:
            pipeline.extract_track_features(
                os.path.join(work, sub, "audio", f"{tid}.wav"),
                os.path.join(work, sub, "features"), TRAIN_RUN)


def corpus_dir(work: str, workload: Workload) -> str:
    return os.path.join(work, "clip" if workload.clip_seconds else "test")


def track_ids(root: str) -> list:
    return sorted(f[:-4] for f in os.listdir(os.path.join(root, "audio"))
                  if f.endswith(".wav"))


class Outcome:
    """What one timed run did: timings, quality, operation counts."""

    def __init__(self):
        self.extract = []      # [(audio seconds, wall seconds)] per track
        self.epoch_s = []      # wall / EPOCHS, per training run
        self.predict_s = []
        self.sweep_s = []
        self.losses = []       # train-split losses per epoch, per training run
        self.f1 = {}           # tolerance -> mean per-track F1
        self.sslm_calls = 0
        self.sslm_bad = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def to_json(self) -> dict:
        return dict(vars(self))


def _load_examples(ids, features_dir, refs_dir):
    examples = []
    for tid in ids:
        inputs, frame_rate, pad = pipeline.load_track_input(
            features_dir, tid, TRAIN_RUN)
        refs = annotations.parse_functions_file(
            os.path.join(refs_dir, f"{tid}.txt"))
        target = annotations.to_target_curve(refs, inputs.shape[1],
                                             frame_rate, pad)
        examples.append(training.TrackExample(tid, inputs, target, refs))
    return examples


def _attempt(outcome: Outcome, what: str, fn, *args):
    outcome.attempted += 1
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, the run goes on
        outcome.failed += 1
        outcome.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


PHASES = ("extract", "train", "predict", "sweep")


def run_timed(work: str, out: str, workload: Workload, seconds: float,
              cycles: int, tracer, outcome: Outcome) -> int:
    """The timed flow, repeated in whole cycles; returns the cycles run.

    A cycle trains and saves a checkpoint, then extracts the workload's
    next track (round robin) into a fresh directory.  After the training
    and after the extraction it loads the checkpoint, predicts on the test
    tracks and sweeps the threshold, so that the short predict and sweep
    steps are sampled across the whole run rather than in one burst.
    Cycles repeat while another one is expected to end within ``seconds``
    (at least one runs); a positive ``cycles`` fixes the count instead, so
    that a traced run repeats exactly what the untraced run did.
    """
    src = corpus_dir(work, workload)
    ids = track_ids(src)
    lengths = (workload.clip_seconds,) if workload.clip_seconds else TEST_SECONDS
    start = time.perf_counter()
    n = 0
    while True:
        cycle_dir = os.path.join(out, f"cycle{n}")
        os.makedirs(cycle_dir)
        ckpt = os.path.join(cycle_dir, "checkpoint.ckpt")
        with tracer.span("phase.train"):
            t0 = time.perf_counter()
            result = _attempt(outcome, "train", _train, os.path.join(work, "acc"), ckpt)
            wall = time.perf_counter() - t0
        if result is not None:
            outcome.attempted += EPOCHS - 1
            outcome.epoch_s.append(wall / EPOCHS)
            outcome.losses.append([row.loss for row in result.log
                                   if row.split == "train"])
            _predict_and_sweep(work, ckpt, tracer, outcome)

        tid = ids[n % len(ids)]
        with tracer.span("phase.extract"):
            t0 = time.perf_counter()
            done = _attempt(outcome, f"extract {tid}",
                            pipeline.extract_track_features,
                            os.path.join(src, "audio", f"{tid}.wav"),
                            os.path.join(cycle_dir, "features"),
                            workload.config, True)
            wall = time.perf_counter() - t0
        if done is not None:
            outcome.extract.append((lengths[n % len(ids)], wall))
        if result is not None:
            _predict_and_sweep(work, ckpt, tracer, outcome)

        n += 1
        elapsed = time.perf_counter() - start
        if cycles:
            if n >= cycles:
                return n
        elif elapsed * (n + 1) / n > seconds:
            return n


def _predict_and_sweep(work, ckpt, tracer, outcome) -> None:
    """Load the checkpoint, predict on the test tracks, sweep and score."""
    test = os.path.join(work, "test")
    pairs = []
    with tracer.span("phase.predict"):
        t0 = time.perf_counter()
        net, _, _, _ = serialize.load_checkpoint(
            ckpt, expected_hash=TRAIN_RUN.pipeline_hash())
        for tid in track_ids(test):
            pair = _attempt(outcome, f"predict {tid}", _predict, net,
                            os.path.join(test, "features"),
                            os.path.join(test, "refs"), tid)
            if pair is not None:
                pairs.append(pair)
        outcome.predict_s.append(time.perf_counter() - t0)

    with tracer.span("phase.sweep"):
        t0 = time.perf_counter()
        best, _ = postprocess.sweep_threshold(pairs, tolerance=0.5)
        scored = [(refs, postprocess.pick_peaks(curve, best))
                  for curve, refs in pairs]
        outcome.f1 = {tol: evaluation.score_corpus(scored, tolerance=tol).mean_f
                      for tol in (0.5, 3.0)}
        outcome.sweep_s.append(time.perf_counter() - t0)


def _train(acc: str, ckpt: str):
    ids = track_ids(acc)
    refs = os.path.join(acc, "refs")
    features = os.path.join(acc, "features")
    train_set = _load_examples(ids[:4], features, refs)
    val_set = _load_examples(ids[4:], features, refs)
    net = model.BoundaryNet(input_height=train_set[0].inputs.shape[0],
                            seed=TRAIN_RUN.seed)
    result = training.train(net, train_set, epochs=EPOCHS, seed=TRAIN_RUN.seed,
                            val_set=val_set, threshold=TRAIN_RUN.threshold)
    best = model.BoundaryNet(input_height=net.input_height, seed=TRAIN_RUN.seed)
    best.load_params(result.best_params)
    serialize.save_checkpoint(best, result.best_adam, ckpt,
                              config_hash=TRAIN_RUN.pipeline_hash(),
                              epoch=result.best_epoch)
    return result


def _predict(net, features_dir, refs_dir, tid):
    inputs, frame_rate, pad = pipeline.load_track_input(
        features_dir, tid, TRAIN_RUN)
    curve = postprocess.from_logits(net.forward(inputs), frame_rate, pad)
    postprocess.pick_peaks(curve, TRAIN_RUN.threshold)
    refs = annotations.parse_functions_file(os.path.join(refs_dir, f"{tid}.txt"))
    return curve, refs


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def sslm_range_probe(outcome: Outcome):
    """Wrap ``compute_sslm`` to check every lag matrix is finite and in (0, 1)."""
    from songseg import sslm

    original = sslm.compute_sslm

    def probed(*args, **kwargs):
        out = original(*args, **kwargs)
        v = out.values
        outcome.sslm_calls += 1
        if not (np.all(np.isfinite(v)) and v.min() > 0.0 and v.max() < 1.0):
            outcome.sslm_bad += 1
        return out

    return original, probed


def check_outputs(cycle_dirs, workload: Workload, outcomes) -> tuple:
    """Checks on what the timed runs wrote; returns ``(checks, digest)``.

    ``cycle_dirs`` are the cycle directories of the runs whose
    :class:`Outcome` records (as JSON) are ``outcomes``.  Every extraction
    of a track and every checkpoint must reproduce the first bit for bit;
    the digest covers the first matrices of each track and the first
    checkpoint.
    """
    finite = True
    heights_ok = bool(cycle_dirs)
    digests = {}   # track id or "checkpoint" -> set of sha256 digests
    for cdir in cycle_dirs:
        with open(os.path.join(cdir, "checkpoint.ckpt"), "rb") as fh:
            digests.setdefault("checkpoint", set()).add(
                hashlib.sha256(fh.read()).hexdigest())
        features = os.path.join(cdir, "features")
        if not os.path.isdir(features):
            heights_ok = False
            continue
        names = sorted(os.listdir(features))
        digest = hashlib.sha256()
        shapes = []
        for name in names:
            path = os.path.join(features, name)
            with open(path, "rb") as fh:
                digest.update(name.encode() + fh.read())
            if name.endswith(".mat"):
                values = serialize.load_matrix(path).values
                finite &= bool(np.all(np.isfinite(values)))
                shapes.append(values.shape)
        heights_ok &= (sum(h for h, _ in shapes) == workload.net_height
                       and len({w for _, w in shapes}) == 1
                       and len(shapes) == len(workload.config.input_names()))
        digests.setdefault(names[0].split(".", 1)[0], set()).add(digest.hexdigest())

    sslm_calls = sum(o["sslm_calls"] for o in outcomes)
    losses = [ls for o in outcomes for ls in o["losses"]]
    checks = {
        "matrices_finite": finite,
        "net_input_height": heights_ok,
        "sslm_in_open_interval": (
            sum(o["sslm_bad"] for o in outcomes) == 0
            and (sslm_calls > 0 or not workload.config.sslm_inputs)),
        "loss_finite_and_falls": bool(losses) and all(
            np.all(np.isfinite(ls)) and ls[-1] < ls[0] for ls in losses),
        "repeat_bit_identical": all(len(d) == 1 for d in digests.values()),
    }
    total = hashlib.sha256()
    for key in sorted(digests):
        total.update(min(digests[key]).encode())
    return checks, total.hexdigest()


def _oracles():
    """The brute-force references, shipped in the package or kept with the tests."""
    try:
        from songseg import oracles
        return oracles
    except ImportError:
        import importlib.util
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "songseg_test_oracles", os.path.join(root, "tests", "oracles.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module


def check_oracle(work: str, workload: Workload) -> float:
    """Max abs error of pipeline SSLMs against ``oracles.sslm_via_ssm``.

    Runs two variants, covering both features and both metrics, under the
    workload's pooling on a short clip of the first test track.
    """
    from songseg import sslm

    oracles = _oracles()
    test = os.path.join(work, "test")
    clip = audio.read_wav(os.path.join(test, "audio", f"{track_ids(test)[0]}.wav"))
    clip = audio.AudioBuffer(clip.samples[: int(ORACLE_CLIP_S * SR)], SR)
    params = workload.config.params
    worst = 0.0
    for name in ORACLE_VARIANTS:
        feature, metric = name.split("-", 1)
        config = SslmConfig(feature=feature, metric=metric,
                            pooling=workload.config.pooling, params=params)
        got = sslm.compute_sslm(clip, config).values
        series = oracles.front_end_series(clip, config)
        pool_post = params.pool_post if config.pooling == "pool2_3" else 1
        ref = oracles.sslm_via_ssm(series.vectors, params.lag_frames // config.pool_pre,
                                   metric, params.quantile, pool_post=pool_post)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst
