"""Span and counter recorder that instruments songseg from the outside.

The program under test is not edited.  Instead each traced function is
wrapped, and the wrapper replaces *every* binding of the original object
found by identity: module attributes (``songseg.sslm.equalize``), names
imported with ``from ... import`` (``songseg.pipeline.compute_sslm``) and
class attributes (``BoundaryNet.backward``).  Patching only the defining
module would miss the imported bindings, which hold the original object.

Spans nest.  Each finished span adds its duration to its parent, so a
span's self time is its duration minus the time covered by its children.
Aggregates are kept per (parent name, name) edge in memory and written out
when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """In-memory span tree aggregated by (root, parent, name), plus counters.

    The root is the outermost open span, a phase of the benchmark, so every
    layer's time and counts can be split by the phase that caused them.
    """

    def __init__(self):
        self._stack = []   # [name, start, time covered by children]
        self.edges = {}    # (root, parent, name) -> [calls, total_s, self_s]
        self.counts = {}   # (root, name) -> count
        self.peaks = {}    # name -> max value

    def _root(self):
        return self._stack[0][0] if self._stack else None

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        name, start, child_s = self._stack.pop()
        duration = time.perf_counter() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        rec = self.edges.setdefault((self._root(), parent, name), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child_s
        return duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, n=1) -> None:
        key = (self._root(), name)
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def _select(self, name, root, parent):
        return [r for (ro, p, n), r in self.edges.items()
                if n == name and (root is None or ro == root)
                and (parent is None or p == parent)]

    def self_s(self, name: str, root=None) -> float:
        return sum(r[2] for r in self._select(name, root, None))

    def total_s(self, name: str, root=None) -> float:
        return sum(r[1] for r in self._select(name, root, None))

    def calls(self, name: str, root=None, parent=None) -> int:
        return sum(r[0] for r in self._select(name, root, parent))

    def counted(self, name: str, root=None):
        return sum(v for (ro, n), v in self.counts.items()
                   if n == name and (root is None or ro == root))

    def to_json(self) -> dict:
        return {
            "edges": [[*key, *rec] for key, rec in sorted(
                self.edges.items(), key=lambda kv: tuple(map(str, kv[0])))],
            "counts": [[*key, v] for key, v in self.counts.items()],
            "peaks": self.peaks,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        t = cls()
        for root, parent, name, calls, total, self_s in data["edges"]:
            t.edges[(root, parent, name)] = [calls, total, self_s]
        for root, name, v in data["counts"]:
            t.counts[(root, name)] = v
        t.peaks = dict(data["peaks"])
        return t


def _namespaces(prefix: str):
    """Every loaded module under ``prefix`` and every class defined there."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if (isinstance(value, type)
                    and getattr(value, "__module__", "").startswith(prefix)):
                yield value


def rebind(original, replacement, prefix: str = "songseg") -> list:
    """Replace every binding of ``original`` (by identity) under ``prefix``.

    Returns ``[(namespace, attribute, original), ...]`` for :func:`restore`.
    """
    undo = []
    seen = set()
    for ns in _namespaces(prefix):
        if id(ns) in seen:
            continue
        seen.add(id(ns))
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                undo.append((ns, attr, original))
    return undo


def restore(undo: list) -> None:
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


def resolve(target: str):
    """``"songseg.model:BoundaryNet.backward"`` -> the object it names.

    Returns None when the target no longer exists, so a later version of
    the program that renames a function loses that metric, not the run.
    """
    mod_name, _, path = target.partition(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    for part in path.split("."):
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# Per-layer spans of the timed phases: target -> span name.  Functions that
# need more than a span (conv naming, allocation peaks, work counts) are
# handled in ``_make_wrapper``.
LAYER_SPANS = {
    "songseg.audio:read_wav": "audio.read_wav",
    "songseg.serialize:save_matrix": "serialize.save_matrix",
    "songseg.serialize:load_matrix": "serialize.load_matrix",
    "songseg.serialize:save_checkpoint": "serialize.save_checkpoint",
    "songseg.serialize:load_checkpoint": "serialize.load_checkpoint",
    "songseg.pipeline:extract_track_features": "pipeline.extract_track_features",
    "songseg.pipeline:extract_inputs": "pipeline.extract_inputs",
    "songseg.pipeline:load_track_input": "pipeline.load_track_input",
    "songseg.spectral:stft_magnitude": "spectral.stft_magnitude",
    "songseg.spectral:mel_log_spectrogram": "spectral.mel_log_spectrogram",
    "songseg.spectral:chroma_project": "spectral.chroma_project",
    "songseg.spectral:max_pool_time": "spectral.max_pool_time",
    "songseg.sslm:compute_sslm": "sslm.compute_sslm",
    "songseg.sslm:pad_noise_floor": "sslm.pad_noise_floor",
    "songseg.sslm:dct_features": "sslm.dct_features",
    "songseg.sslm:lag_distances": "sslm.lag_distances",
    "songseg.sslm:equalize": "sslm.equalize",
    "songseg.sslm:recurrence": "sslm.recurrence",
    "songseg.sslm:finalize_input": "sslm.finalize_input",
    "songseg.annotations:parse_functions_file": "annotations.parse_functions_file",
    "songseg.annotations:to_target_curve": "annotations.to_target_curve",
    "songseg.layers:conv2d_forward": "layers.conv.fwd",
    "songseg.layers:conv2d_backward": "layers.conv.bwd",
    "songseg.layers:maxpool2d_forward": "layers.pool.fwd",
    "songseg.layers:maxpool2d_backward": "layers.pool.bwd",
    "songseg.layers:leaky_relu_forward": "layers.leaky_relu",
    "songseg.layers:leaky_relu_backward": "layers.leaky_relu",
    "songseg.layers:bce_with_logits": "layers.bce",
    "songseg.model:BoundaryNet.forward_with_cache": "model.forward",
    "songseg.model:BoundaryNet.backward": "model.backward",
    "songseg.optim:adam_step": "optim.adam_step",
    "songseg.training:train": "training.train",
    "songseg.postprocess:from_logits": "postprocess.from_logits",
    "songseg.postprocess:pick_peaks": "postprocess.pick_peaks",
    "songseg.postprocess:sweep_threshold": "postprocess.sweep_threshold",
    "songseg.evaluation:match_boundaries": "evaluation.match_boundaries",
    "songseg.evaluation:score_corpus": "evaluation.score_corpus",
}

# Set-up spans, recorded in the process that builds the inputs.
SETUP_SPANS = {
    "songseg.synth:synth_corpus": "synth.synth_corpus",
    "songseg.audio:write_wav": "audio.write_wav",
    "songseg.pipeline:extract_track_features": "pipeline.setup_features",
}

# Layers whose allocation peak (tracemalloc) is recorded during the call.
ALLOC_SPANS = ("layers.pool.fwd", "layers.conv1.fwd", "layers.conv2.fwd")


def _make_wrapper(tracer: Tracer, original, name: str, order: dict):
    """A traced stand-in for ``original`` recording under span ``name``."""

    def run(span_name, args, kwargs):
        if span_name not in ALLOC_SPANS:
            with tracer.span(span_name):
                return original(*args, **kwargs)
        tracemalloc.start()
        try:
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            tracer.peak(span_name + ".alloc_bytes", tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result

    if name in ("model.forward", "model.backward"):
        # Convolutions are named by their position in the model's call
        # order: 1..4 going forward, 4..1 going backward.
        key, start = ("fwd", 0) if name == "model.forward" else ("bwd", 5)

        @functools.wraps(original)
        def model_wrapper(*args, **kwargs):
            saved = order.get(key)
            order[key] = start
            try:
                return run(name, args, kwargs)
            finally:
                order[key] = saved
        return model_wrapper

    if name in ("layers.conv.fwd", "layers.conv.bwd"):
        key, step = ("fwd", 1) if name == "layers.conv.fwd" else ("bwd", -1)

        @functools.wraps(original)
        def conv_wrapper(*args, **kwargs):
            if order.get(key) is None:
                return run(name, args, kwargs)
            order[key] += step
            return run(f"layers.conv{order[key]}.{key}", args, kwargs)
        return conv_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = run(name, args, kwargs)
        if name == "sslm.equalize":
            tracer.count("sslm.equalize_entries", getattr(args[0], "size", 0))
        elif name == "serialize.save_matrix":
            tracer.count("serialize.save_matrix_bytes", os.path.getsize(args[1]))
        elif name == "postprocess.sweep_threshold":
            tracer.count("postprocess.swept_curves", len(args[0]))
        return result
    return wrapper


def instrument(tracer: Tracer, spans: dict) -> list:
    """Wrap every target of ``spans``; returns the undo list."""
    undo = []
    order = {}
    for target, name in spans.items():
        original = resolve(target)
        if original is None:
            print(f"perfbench: {target} not found; its metrics read 0",
                  file=sys.stderr)
            continue
        undo.extend(rebind(original, _make_wrapper(tracer, original, name, order)))
    return undo
