"""Pipeline parameters and run configuration.

``PipelineParams`` owns every analysis constant (sample rate, STFT geometry,
lag span, pooling factors, stacking, quantile, final padding).  ``RunConfig``
adds the experiment-level choices: which input matrices feed the network,
pooling strategy, training seeds and the peak-picking threshold.  A run
configuration serializes to a plain ``key = value`` text file, and its
canonical form is hashed so that feature files and checkpoints can be checked
for compatibility.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .errors import FormatError
from .serialize import read_lines, write_text

# Names of the four self-similarity lag matrix variants, in canonical order.
# This order also fixes how matrices are stacked into the network input.
SSLM_VARIANTS = (
    "mfcc-euclidean",
    "mfcc-cosine",
    "chroma-euclidean",
    "chroma-cosine",
)

POOLINGS = ("pool6", "pool2_3")

# Default peak-picking threshold for a detector trained on the mel
# spectrogram alone.
DEFAULT_MLS_THRESHOLD = 0.205

# Highest noise floor whose amplitude 10 ** (floor_db / 20) is a double.
FLOOR_DB_MAX = 20 * 308.0


@dataclass(frozen=True)
class PipelineParams:
    """Analysis constants for the feature pipeline.

    Defaults give a 46 ms Hann window with 50% overlap at 44.1 kHz, an
    80-band mel front end between 80 Hz and 16 kHz, a 14 s lag span, a
    total time-pool factor of 6 (either in one step or split 2 then 3),
    frame stacking of 2, a 0.1 equalization quantile and 50 frames of
    pink-noise padding around every network input.
    """

    sr: int = 44100
    window: int = 2048
    hop: int = 1024
    n_mels: int = 80
    fmin: float = 80.0
    fmax: float = 16000.0
    lag_seconds: float = 14.0
    pool_single: int = 6
    pool_pre: int = 2
    pool_post: int = 3
    stacking: int = 2
    quantile: float = 0.1
    final_pad: int = 50
    floor_db: float = -70.0

    def __post_init__(self):
        if self.sr <= 0 or self.window <= 0 or self.hop <= 0:
            raise ValueError("sr, window and hop must be positive")
        for name in ("pool_pre", "pool_post", "stacking"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.pool_single != self.pool_pre * self.pool_post:
            raise ValueError(
                "pool_single must equal pool_pre * pool_post so both pooling "
                "strategies land on the same final frame rate"
            )
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        if self.final_pad < 0:
            raise ValueError("final_pad must be non-negative")
        if self.n_mels < 1:
            raise ValueError("n_mels must be at least 1")

    @property
    def base_hop_seconds(self) -> float:
        return self.hop / self.sr

    @property
    def lag_frames(self) -> int:
        """Lag span in un-pooled frames."""
        return round(self.lag_seconds * self.sr / self.hop)

    @property
    def frame_rate(self) -> float:
        """Frames per second of fully pooled matrices and network inputs."""
        return self.sr / (self.hop * self.pool_single)

    @property
    def floor_amplitude(self) -> float:
        """Linear-magnitude equivalent of the dB floor."""
        return 10.0 ** (self.floor_db / 20.0)


@dataclass(frozen=True)
class RunConfig:
    """One experiment: pipeline constants plus input/training choices."""

    params: PipelineParams = field(default_factory=PipelineParams)
    pooling: str = "pool6"
    include_mls: bool = True
    sslm_inputs: tuple = ()
    epochs: int = 100
    seed: int = 0
    threshold: float = DEFAULT_MLS_THRESHOLD

    def __post_init__(self):
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling strategy {self.pooling!r}")
        for name in self.sslm_inputs:
            if name not in SSLM_VARIANTS:
                raise ValueError(f"unknown SSLM variant {name!r}")
        if len(set(self.sslm_inputs)) != len(self.sslm_inputs):
            raise ValueError(f"duplicate SSLM variant in {self.sslm_inputs!r}")
        if not self.include_mls and not self.sslm_inputs:
            raise ValueError("at least one input matrix must be selected")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        p = self.params
        # Checked for a run rather than in PipelineParams: the padding
        # kernels are also tested on an infinite floor and at sr = hop = 1.
        if not (math.isfinite(p.floor_db) and p.floor_db <= FLOOR_DB_MAX):
            raise ValueError(f"floor_db must be finite and at most {FLOOR_DB_MAX:g} dB")
        if not 0.0 <= p.fmin < p.fmax:
            raise ValueError("fmin must lie in [0, fmax)")
        if not p.fmax <= p.sr / 2:
            raise ValueError("fmax must not exceed the Nyquist frequency sr / 2")
        if p.hop > p.window:
            raise ValueError("hop must not exceed window")
        min_frames = max(p.pool_single, p.pool_pre)
        span = p.lag_seconds * p.sr / p.hop  # lag_frames before rounding
        if not (math.isfinite(span) and round(span) >= min_frames):
            raise ValueError(
                f"lag_seconds must be finite and span at least one lag bin under "
                f"both poolings ({min_frames} frames of {p.hop} samples at "
                f"{p.sr} Hz) and a finite number of frames")
        # Canonical order, so configurations that select the same inputs
        # compare equal and survive a to_file/from_file round trip.
        object.__setattr__(self, "sslm_inputs", tuple(
            v for v in SSLM_VARIANTS if v in self.sslm_inputs))

    def input_names(self) -> list:
        """Selected input matrices in canonical stacking order (MLS first)."""
        return (["mls"] if self.include_mls else []) + list(self.sslm_inputs)

    def canonical_lines(self) -> list:
        """Deterministic ``key = value`` rendering of the full configuration."""
        items = {f.name: getattr(self.params, f.name) for f in fields(self.params)}
        items.update((f.name, getattr(self, f.name)) for f in _RUN_FIELDS)
        items["sslm_inputs"] = ",".join(self.sslm_inputs)
        return [f"{k} = {_render(v)}" for k, v in sorted(items.items())]

    def pipeline_hash(self) -> str:
        """Hex digest identifying everything that shapes the network input.

        Training-only knobs (epochs, seeds, threshold) are excluded: features
        extracted once remain valid across training reruns.
        """
        skip = {"epochs", "seed", "threshold"}
        lines = [ln for ln in self.canonical_lines()
                 if ln.split(" = ")[0] not in skip]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def to_file(self, path) -> None:
        write_text(path, self.canonical_lines())

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        raw, where = {}, {}
        for lineno, line in read_lines(path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
            where[key] = f"{path}:{lineno}: "
        return cls.from_mapping(raw, where)

    @classmethod
    def from_mapping(cls, raw: dict, where: dict = None) -> "RunConfig":
        """Parse ``canonical_lines`` keys; an unknown key raises FormatError.

        A value that does not parse as its field's type, or parses but is
        rejected by validation, raises FormatError naming the key, prefixed
        by ``where[key]`` (a ``file:line: `` location) when given.  A
        rejected configuration blames the first key whose value alone, over
        the defaults, is rejected with the same message; when there is none
        the ValueError is raised as is.
        """
        pp_types = {f.name: f.type for f in fields(PipelineParams)}
        run_types = {f.name: f.type for f in _RUN_FIELDS}
        unknown = sorted(set(raw) - pp_types.keys() - run_types.keys())
        if unknown:
            raise FormatError(f"unknown config key(s): {', '.join(unknown)}")

        def loc(key):
            return (where or {}).get(key, "")

        def parse(key, type_name):
            try:
                return _parse(raw[key], type_name)
            except ValueError:
                raise FormatError(f"{loc(key)}{key} = {raw[key]!r} is not a valid "
                                  f"{type_name}") from None

        def build(values):
            params = PipelineParams(**{k: v for k, v in values.items() if k in pp_types})
            return cls(params=params, **{k: v for k, v in values.items() if k in run_types})

        values = {k: parse(k, pp_types.get(k) or run_types[k]) for k in raw}
        try:
            return build(values)
        except ValueError as exc:
            for key in values:
                try:
                    build({key: values[key]})
                except ValueError as alone:
                    if str(alone) == str(exc):
                        raise FormatError(
                            f"{loc(key)}{key} = {raw[key]!r}: {exc}") from None
            raise


# RunConfig fields other than the nested ``params``.
_RUN_FIELDS = [f for f in fields(RunConfig) if f.name != "params"]


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(text: str, type_name: str):
    if type_name == "bool":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise FormatError(f"cannot parse boolean from {text!r}")
    if type_name == "int":
        return int(text)
    if type_name == "float":
        return float(text)
    if type_name == "tuple":
        return tuple(s.strip() for s in text.split(",") if s.strip())
    return text
