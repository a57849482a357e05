"""Command-line pipeline orchestration.

Subcommands: ``synth``, ``features``, ``train``, ``predict``,
``sweep-threshold``, ``evaluate``, ``plot``.  Exit codes: 0 on success,
1 on partial or runtime failure, 2 on usage errors.  Path options fall
back to ``SONGSEG_*`` environment variables where noted.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import annotations as ann
from . import evaluation, pipeline, postprocess, serialize, training
from .audio import write_wav
from .errors import CompatibilityError
from .model import BoundaryNet
from .params import RunConfig
from .svgplot import save_line_plot
from .synth import _cpu_count, synth_corpus


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CompatibilityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="songseg",
        description="Music structure boundary detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known boundaries")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_count_from(0), default=0)
    p.add_argument("--split-seed", type=_count_from(0), default=0)
    p.add_argument("--tracks", type=_count_from(3), default=5,
                   help="at least 3, so that the corpus splits")
    p.add_argument("--segments", type=_count_from(1), nargs=2, default=(2, 4),
                   action=_Range, metavar=("LO", "HI"))
    p.add_argument("--duration", type=_positive, nargs=2, default=(8.0, 14.0),
                   action=_Range, metavar=("LO", "HI"),
                   help="segment duration range in seconds")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract network input matrices")
    p.add_argument("--config", required=True)
    _path(p, "--audio-dir", "SONGSEG_AUDIO_DIR", "directory of WAV files")
    _path(p, "--out", "SONGSEG_FEATURES_DIR", "matrix output directory")
    p.add_argument("--force", action="store_true",
                   help="recompute even when outputs are up to date")
    p.add_argument("--workers", type=_count_from(1), default=_cpu_count())
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the boundary detector")
    p.add_argument("--config", required=True)
    _path(p, "--features", "SONGSEG_FEATURES_DIR")
    _path(p, "--refs", "SONGSEG_REFS_DIR", "boundary annotation directory")
    p.add_argument("--split", required=True, help="split manifest file")
    _path(p, "--out", "SONGSEG_OUT_DIR", default=".")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict boundaries for one track")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    _path(p, "--features", "SONGSEG_FEATURES_DIR")
    p.add_argument("--track", required=True)
    p.add_argument("--threshold", type=_unit_interval, default=None,
                   help="defaults to the configured threshold")
    p.add_argument("--out", required=True, help="output boundary text file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep-threshold",
                       help="find the F-score-optimal picking threshold")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    _path(p, "--features", "SONGSEG_FEATURES_DIR")
    _path(p, "--refs", "SONGSEG_REFS_DIR")
    p.add_argument("--split", required=True)
    p.add_argument("--subset", choices=("train", "val", "test"), default="test")
    p.add_argument("--tolerance", type=_positive, default=0.5)
    p.add_argument("--beta", type=_positive, default=1.0)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="score predictions against references")
    _path(p, "--ref-dir", "SONGSEG_REFS_DIR")
    p.add_argument("--est-dir", required=True)
    p.add_argument("--tolerance", type=_positive, default=0.5)
    p.add_argument("--beta", type=_positive, default=1.0)
    p.add_argument("--all", action="store_true",
                   help="score both tolerances (0.5s, 3s) and both betas (1, 0.58)")
    _path(p, "--out", "SONGSEG_OUT_DIR", "directory for CSV reports",
          required=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="plot a sweep CSV as SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def _path(p, flag, env, help="", default=None, required=True):
    """Add a path option that falls back to a non-empty ``$env``, then ``default``."""
    value = os.environ.get(env) or default
    p.add_argument(flag, default=value, required=required and value is None,
                   help=f"{help} (env {env})" if help else f"env {env}")


def _checked(text, ok, domain, convert=float):
    try:
        value = convert(text)
    except ValueError:
        value = math.nan
    if not ok(value):
        raise argparse.ArgumentTypeError(f"expected {domain}, got {text!r}")
    return value


def _positive(text) -> float:
    """argparse type: a finite number above 0 (tolerances, betas, durations)."""
    return _checked(text, lambda v: math.isfinite(v) and v > 0.0,
                    "a number that is finite and > 0")


def _unit_interval(text) -> float:
    """argparse type: a number in [0, 1] (picking thresholds)."""
    return _checked(text, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _count_from(low):
    """argparse type: an integer >= ``low``."""
    return lambda text: _checked(text, lambda v: v >= low,
                                 f"an integer >= {low}", int)


class _Range(argparse.Action):
    """Store a ``LO HI`` pair as a tuple; LO above HI is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values[0] > values[1]:
            raise argparse.ArgumentError(
                self, f"expected LO <= HI, got {values[0]:g} > {values[1]:g}")
        setattr(namespace, self.dest, tuple(values))


def cmd_synth(args) -> int:
    # Split and synthesize before writing, so a corpus too small to split
    # or an empty segment range leaves nothing on disk.
    ids = [f"track{i:03d}" for i in range(args.tracks)]
    split = ann.split_dataset(ids, args.split_seed)
    tracks = synth_corpus(args.seed, args.tracks,
                          segments_per_track=args.segments,
                          segment_duration=args.duration)
    audio_dir = os.path.join(args.out, "audio")
    refs_dir = os.path.join(args.out, "refs")
    os.makedirs(audio_dir, exist_ok=True)
    os.makedirs(refs_dir, exist_ok=True)
    for tid, track in zip(ids, tracks):
        write_wav(os.path.join(audio_dir, f"{tid}.wav"), track.audio)
        ann.write_functions_file(os.path.join(refs_dir, f"{tid}.txt"),
                                 track.boundaries)
    ann.save_split_manifest(os.path.join(args.out, "splits.tsv"), split)
    print(f"wrote {len(tracks)} tracks under {args.out}")
    return 0


def _extract_one(wav_path, out_dir, run, force):
    try:
        pipeline.extract_track_features(wav_path, out_dir, run, force=force)
    except Exception as exc:  # report per-file, batch continues
        return f"{type(exc).__name__}: {exc}"
    return None


def cmd_features(args) -> int:
    run = RunConfig.from_file(args.config)
    wavs = sorted(
        os.path.join(args.audio_dir, f) for f in os.listdir(args.audio_dir)
        if f.lower().endswith(".wav")
    )
    if not wavs:
        print(f"error: no WAV files in {args.audio_dir}", file=sys.stderr)
        return 2

    extract = functools.partial(_extract_one, out_dir=args.out, run=run,
                                force=args.force)
    # a forking pool starts all its workers at once: no more than tracks
    workers = min(args.workers, len(wavs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(extract, wavs))
    else:
        errors = list(map(extract, wavs))

    failures = [(wav_path, err) for wav_path, err in zip(wavs, errors) if err]
    for wav_path, err in failures:
        print(f"failed: {wav_path}: {err}", file=sys.stderr)
    print(f"features ready for {len(wavs) - len(failures)}/{len(wavs)} tracks "
          f"in {args.out}")
    return 1 if failures else 0


def _load_examples(track_ids, features_dir, refs_dir, run):
    examples = []
    for tid in track_ids:
        inputs, frame_rate, pad = pipeline.load_track_input(
            features_dir, tid, run)
        boundaries = ann.parse_functions_file(os.path.join(refs_dir, f"{tid}.txt"))
        target = ann.to_target_curve(boundaries, inputs.shape[1], frame_rate, pad)
        examples.append(training.TrackExample(
            name=tid, inputs=inputs, target=target, boundaries=boundaries))
    return examples


def cmd_train(args) -> int:
    run = RunConfig.from_file(args.config)
    split = ann.load_split_manifest(args.split)
    train_set = _load_examples(split.train, args.features, args.refs, run)
    if not train_set:
        raise ValueError(f"{args.split}: the split has no train tracks")
    val_set = _load_examples(split.validation, args.features, args.refs, run)

    model = BoundaryNet(input_height=train_set[0].inputs.shape[0],
                        seed=run.seed)
    result = training.train(model, train_set, epochs=run.epochs, seed=run.seed,
                            val_set=val_set, threshold=run.threshold)

    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.ckpt")
    model.load_params(result.best_params)
    serialize.save_checkpoint(model, result.best_adam, ckpt_path,
                              config_hash=run.pipeline_hash(),
                              epoch=result.best_epoch)
    log_path = os.path.join(args.out, "train_log.csv")
    training.write_log_csv(log_path, result.log)
    print(f"checkpoint (best epoch {result.best_epoch}) -> {ckpt_path}")
    print(f"training log -> {log_path}")
    return 0


def cmd_predict(args) -> int:
    run = RunConfig.from_file(args.config)
    model, _, _, _ = serialize.load_checkpoint(
        args.checkpoint, expected_hash=run.pipeline_hash())
    inputs, frame_rate, pad = pipeline.load_track_input(
        args.features, args.track, run)
    logits = model.forward(inputs)
    curve = postprocess.from_logits(logits, frame_rate, pad)
    threshold = args.threshold if args.threshold is not None else run.threshold
    boundaries = postprocess.pick_peaks(curve, threshold)
    ann.write_boundary_file(args.out, boundaries)
    print(f"{len(boundaries)} boundaries -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    run = RunConfig.from_file(args.config)
    model, _, _, _ = serialize.load_checkpoint(
        args.checkpoint, expected_hash=run.pipeline_hash())
    split = ann.load_split_manifest(args.split)
    subset = {"train": split.train, "val": split.validation,
              "test": split.test}[args.subset]
    examples = _load_examples(subset, args.features, args.refs, run)

    pairs = []
    for ex in examples:
        logits = model.forward(ex.inputs)
        curve = postprocess.from_logits(logits, ex.target.frame_rate,
                                        ex.target.pad_frames)
        pairs.append((curve, ex.boundaries))
    best, rows = postprocess.sweep_threshold(
        pairs, tolerance=args.tolerance, beta=args.beta)
    postprocess.write_sweep_csv(args.out_csv, rows)
    if args.out_svg:
        _sweep_svg(args.out_svg, rows, args.beta)
    best_row = next(r for r in rows if r.threshold == best)
    print(f"optimum threshold {best_row.threshold:.3f} "
          f"(F{args.beta:g}={best_row.f_score:.3f}) -> {args.out_csv}")
    return 0


def _sweep_svg(path, rows, beta) -> None:
    xs = [r.threshold for r in rows]
    save_line_plot(path, {
        "Precision": (xs, [r.precision for r in rows]),
        "Recall": (xs, [r.recall for r in rows]),
        f"F{beta:g}": (xs, [r.f_score for r in rows]),
    }, title="Score vs picking threshold", xlabel="threshold", ylabel="score")


def cmd_evaluate(args) -> int:
    ref_ids = {os.path.splitext(f)[0] for f in os.listdir(args.ref_dir)
               if f.endswith(".txt")}
    est_ids = {os.path.splitext(f)[0] for f in os.listdir(args.est_dir)
               if f.endswith(".txt")}
    common = sorted(ref_ids & est_ids)
    for tid in sorted(ref_ids ^ est_ids):
        side = "reference" if tid in ref_ids else "estimate"
        print(f"warning: {tid} present only on the {side} side", file=sys.stderr)
    if not common:
        print("error: no track ids in common", file=sys.stderr)
        return 1

    pairs = [
        (ann.parse_functions_file(os.path.join(args.ref_dir, f"{tid}.txt")),
         ann.read_boundary_file(os.path.join(args.est_dir, f"{tid}.txt")))
        for tid in common
    ]
    settings = ([(0.5, 1.0), (0.5, 0.58), (3.0, 1.0), (3.0, 0.58)]
                if args.all else [(args.tolerance, args.beta)])
    reports = [evaluation.score_corpus(pairs, tolerance=tol, beta=beta)
               for tol, beta in settings]
    table = evaluation.format_score_table(reports, "predictions")
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for rep in reports:
            name = f"scores_tol{rep.tolerance:g}_beta{rep.beta:g}.csv"
            serialize.write_text(os.path.join(args.out, name),
                                 evaluation.report_csv_lines(rep, common))
        serialize.write_text(os.path.join(args.out, "scores_table.txt"), [table])
    return 0


def cmd_plot(args) -> int:
    _sweep_svg(args.out, postprocess.read_sweep_csv(args.csv), 1.0)
    print(f"plot -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
