"""songseg benchmark: one command, three workloads (two in BENCHMARK.json), end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload extract-pool6 --seed 1 --seconds 20 --trace 0

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones (see README.md in this directory).

Process layout: this process pins the BLAS thread count, builds the inputs
(set-up, repeated ``SETUP_REPEATS`` times and timed) and checks the outputs.
The timed flow runs in a child process, so that its peak resident memory
excludes set-up.  A traced run starts a second child that repeats the same
number of cycles with every layer wrapped; the difference in wall time is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Pinned before numpy loads: going from 1 to 2 OpenBLAS threads moves epoch
# time by about 15%, so an unpinned pool would make runs incomparable.
BLAS_THREADS = min(2, _nproc())
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3
# A run must end within 180 s; leave room for checks and clean-up.
RUN_BUDGET_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("extract_audio_s_per_s", "audio_s/s"),
    ("train_epoch_s", "s"),
    ("predict_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("f1_0.5", "f1"),
    ("f1_3", "f1"),
)

# Per-layer self times, per cycle of the timed flow.
LAYER_SELF_S = (
    "audio.read_wav",
    "serialize.save_matrix", "serialize.load_matrix",
    "serialize.load_checkpoint", "serialize.save_checkpoint",
    "pipeline.extract_track_features", "pipeline.extract_inputs",
    "pipeline.load_track_input",
    "spectral.stft_magnitude", "spectral.mel_log_spectrogram",
    "spectral.chroma_project", "spectral.max_pool_time",
    "sslm.compute_sslm", "sslm.pad_noise_floor", "sslm.dct_features",
    "sslm.lag_distances", "sslm.equalize", "sslm.recurrence",
    "sslm.finalize_input",
    "annotations.parse_functions_file", "annotations.to_target_curve",
    "layers.conv1.fwd", "layers.conv2.fwd", "layers.conv3.fwd",
    "layers.conv4.fwd", "layers.conv1.bwd", "layers.conv2.bwd",
    "layers.conv3.bwd", "layers.conv4.bwd", "layers.pool.fwd",
    "layers.pool.bwd", "layers.leaky_relu", "layers.bce",
    "model.forward", "model.backward",
    "optim.adam_step",
    "training.train",
    "postprocess.from_logits", "postprocess.pick_peaks",
    "postprocess.sweep_threshold",
    "evaluation.match_boundaries", "evaluation.score_corpus",
)
# Per-layer call counts, per cycle.
LAYER_CALLS = (
    "spectral.stft_magnitude", "spectral.mel_log_spectrogram",
    "sslm.compute_sslm", "optim.adam_step", "postprocess.pick_peaks",
    "evaluation.match_boundaries",
)
SETUP_SELF_S = ("synth.synth_corpus", "audio.write_wav", "pipeline.setup_features")


def per_layer_names() -> list:
    """``[(name, unit), ...]`` in the order a traced run prints them."""
    import flow

    out = [(f"{n}_s", "s") for n in SETUP_SELF_S]
    out.append(("untraced.setup_s", "s"))
    out += [(f"{n}_s", "s") for n in LAYER_SELF_S]
    out += [(f"{n}_calls", "count") for n in LAYER_CALLS]
    out += [
        ("serialize.save_matrix_bytes", "B"),
        ("sslm.equalize_entries", "count"),
        ("spectral.stft_per_track", "calls/track"),
        ("postprocess.pick_peaks_per_curve", "calls/curve"),
        ("layers.pool.fwd_alloc_mb", "MB"),
        ("layers.conv1.fwd_alloc_mb", "MB"),
        ("layers.conv2.fwd_alloc_mb", "MB"),
    ]
    out += [(f"untraced.{p}_s", "s") for p in flow.PHASES]
    out += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
            ("trace.overhead_s", "s")]
    return out


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum length of the timed phase; whole cycles run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run the timed flow in this process
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    p.add_argument("--cycles", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "songseg", "__init__.py")):
        print(f"perfbench: no songseg sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import flow

    if args.workload not in flow.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(flow.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args, flow)
    return _parent(args, flow)


# ----------------------------------------------------------------------
# child: the timed flow
# ----------------------------------------------------------------------

def _child(args, flow) -> int:
    import tracer as tr

    workload = flow.WORKLOADS[args.workload]
    outcome = flow.Outcome()
    rec = tr.Tracer()
    original, probed = flow.sslm_range_probe(outcome)
    tr.rebind(original, probed)
    if args.trace:
        tr.instrument(rec, tr.LAYER_SPANS)
    out = os.path.join(args.child, "traced" if args.trace else "timed")
    start = time.perf_counter()
    cycles = flow.run_timed(os.path.join(args.child, "inputs"), out, workload,
                            args.seconds, args.cycles, rec, outcome)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"outcome": outcome.to_json(), "cycles": cycles,
                      "wall_s": wall_s, "rss_mb": rss_mb,
                      "cycle_dirs": [os.path.join(out, f"cycle{i}")
                                     for i in range(cycles)],
                      "trace": rec.to_json()}))
    return 0


def _spawn(args, work, trace, cycles, deadline):
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace),
           "--child", work, "--cycles", str(cycles)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"timed flow exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# parent: set-up, children, checks, report
# ----------------------------------------------------------------------

def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS, "nproc": _nproc(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "git_rev": _git_rev(),
        "loadavg": os.getloadavg(),
    }


def _git_rev() -> str:
    """HEAD's commit id read from ``.git`` directly; "unknown" outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parent(args, flow) -> int:
    import tracer as tr

    deadline = time.monotonic() + RUN_BUDGET_S
    env = _environment(args)
    workload = flow.WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        return _measure(args, flow, tr, env, workload, base, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, flow, tr, env, workload, base, work, deadline) -> int:
    inputs = os.path.join(work, "inputs")
    setup_rec = tr.Tracer()
    undo = tr.instrument(setup_rec, tr.SETUP_SPANS) if args.trace else []
    setup_s = []
    try:
        for _ in range(SETUP_REPEATS):
            with setup_rec.span("phase.setup"):
                t0 = time.perf_counter()
                flow.setup(inputs, workload, args.seed)
                setup_s.append(time.perf_counter() - t0)
    finally:
        tr.restore(undo)

    t0 = time.perf_counter()
    oracle_err = flow.check_oracle(inputs, workload)
    env["oracle_check_s"] = time.perf_counter() - t0
    timed = _spawn(args, work, 0, 0, deadline)
    runs = [timed]
    if args.trace:
        runs.append(_spawn(args, work, 1, timed["cycles"], deadline))

    outcome = timed["outcome"]
    checks, digest = flow.check_outputs(
        [d for r in runs for d in r["cycle_dirs"]], workload,
        [r["outcome"] for r in runs])
    checks["sslm_oracle"] = oracle_err < flow.ORACLE_TOLERANCE
    attempted = sum(r["outcome"]["attempted"] for r in runs) + len(checks)
    failed = (sum(r["outcome"]["failed"] for r in runs)
              + sum(not ok for ok in checks.values()))

    if args.trace:
        metrics = _per_layer(setup_rec, runs)
    else:
        metrics = _end_to_end(setup_s, outcome, timed["rss_mb"])

    record = {"env": env, "checks": checks, "digest": digest,
              "oracle_max_abs_err": oracle_err, "cycles": timed["cycles"],
              "setup_s": setup_s,
              "samples": {k: outcome[k] for k in
                          ("extract", "epoch_s", "predict_s", "sweep_s")},
              "errors": [e for r in runs for e in r["outcome"]["errors"]],
              "metrics": metrics}
    _save_record(base, args, record,
                 runs[-1]["trace"] if args.trace else None, setup_rec)

    print("# env " + json.dumps(env))
    print("# checks " + json.dumps(checks) + f" digest {digest}")
    for err in record["errors"]:
        print(f"# failed: {err}")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _end_to_end(setup_s, outcome, rss_mb) -> dict:
    """End-to-end values: set-up is the median of its repeats; every timed
    step is the mean over its samples, which are spread across the run.

    The mean, not the median, because the speed of the machine the
    benchmark was tuned on is bimodal over periods of a few seconds: the
    median of such samples jumps between the two modes from run to run,
    while the mean follows the share of time spent in each.
    """
    audio_s = sum(a for a, _ in outcome["extract"])
    wall_s = sum(w for _, w in outcome["extract"])
    values = {
        "setup_s": float(statistics.median(setup_s)),
        "extract_audio_s_per_s": audio_s / wall_s if wall_s else 0.0,
        "train_epoch_s": _mean(outcome["epoch_s"]),
        "predict_s": _mean(outcome["predict_s"]),
        "sweep_s": _mean(outcome["sweep_s"]),
        "peak_rss_mb": rss_mb,
        "f1_0.5": outcome["f1"].get("0.5", 0.0),
        "f1_3": outcome["f1"].get("3.0", 0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(setup_rec, runs) -> dict:
    """Per-layer values per cycle of the timed flow (set-up: per set-up)."""
    import flow
    import tracer as tr

    untraced, traced = runs
    cycles = traced["cycles"]
    rec = tr.Tracer.from_json(traced["trace"])
    values = {}
    for name in SETUP_SELF_S:
        values[f"{name}_s"] = setup_rec.self_s(name) / SETUP_REPEATS
    values["untraced.setup_s"] = setup_rec.self_s("phase.setup") / SETUP_REPEATS
    for name in LAYER_SELF_S:
        values[f"{name}_s"] = rec.self_s(name) / cycles
    for name in LAYER_CALLS:
        values[f"{name}_calls"] = rec.calls(name) / cycles
    for name in ("serialize.save_matrix_bytes", "sslm.equalize_entries"):
        values[name] = rec.counted(name) / cycles
    tracks = len(traced["outcome"]["extract"])
    values["spectral.stft_per_track"] = (
        rec.calls("spectral.stft_magnitude", root="phase.extract") / tracks
        if tracks else 0.0)
    curves = rec.counted("postprocess.swept_curves")
    values["postprocess.pick_peaks_per_curve"] = (
        rec.calls("postprocess.pick_peaks", parent="postprocess.sweep_threshold")
        / curves if curves else 0.0)
    for layer in ("pool", "conv1", "conv2"):
        peak = rec.peaks.get(f"layers.{layer}.fwd.alloc_bytes", 0)
        values[f"layers.{layer}.fwd_alloc_mb"] = peak / 2**20
    for phase in flow.PHASES:
        values[f"untraced.{phase}_s"] = rec.self_s(f"phase.{phase}") / cycles
    values["trace.untraced_wall_s"] = untraced["wall_s"] / cycles
    values["trace.traced_wall_s"] = traced["wall_s"] / cycles
    values["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"]) / cycles
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}


def _save_record(base, args, record, child_trace, setup_rec) -> None:
    records = os.path.join(base, "records")
    os.makedirs(records, exist_ok=True)
    if child_trace is not None:
        record = dict(record, trace={"setup": setup_rec.to_json(),
                                     "timed": child_trace})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
