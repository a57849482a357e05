"""End-to-end exercises of the command-line surface on a tiny corpus."""

import contextlib
import hashlib
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from songseg import cli
from songseg.cli import _build_parser, main
from songseg.model import BoundaryNet
from songseg.optim import init_adam
from songseg.params import SSLM_VARIANTS, PipelineParams, RunConfig
from songseg.pipeline import _read_meta
from songseg.serialize import load_matrix, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> features for a 3-track corpus, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "3",
                 "--tracks", "3", "--segments", "2", "2",
                 "--duration", "3.0", "4.0"]) == 0
    cfg = root / "run.cfg"
    RunConfig(epochs=3, seed=0).to_file(cfg)
    feats = root / "features"
    assert main(["features", "--config", str(cfg),
                 "--audio-dir", str(data / "audio"),
                 "--out", str(feats), "--workers", "1"]) == 0
    # every track in train so the 3-track corpus trains at all
    manifest = root / "all_train.tsv"
    manifest.write_text("track000\ttrain\ntrack001\ttrain\ntrack002\tval\n")
    return {"root": root, "data": data, "cfg": cfg, "feats": feats}


def test_synth_outputs(workspace):
    data = workspace["data"]
    wavs = sorted(os.listdir(data / "audio"))
    refs = sorted(os.listdir(data / "refs"))
    assert wavs == ["track000.wav", "track001.wav", "track002.wav"]
    assert refs == ["track000.txt", "track001.txt", "track002.txt"]
    manifest = (data / "splits.tsv").read_text().strip().splitlines()
    assert len(manifest) == 3
    assert {line.split("\t")[1] for line in manifest} == {"train", "val", "test"}


def test_features_idempotent(workspace):
    feats = workspace["feats"]
    mats = sorted(f for f in os.listdir(feats) if f.endswith(".mat"))
    assert mats == [f"track{i:03d}.mls.mat" for i in range(3)]
    stamps = {f: os.path.getmtime(feats / f) for f in mats}
    assert main(["features", "--config", str(workspace["cfg"]),
                 "--audio-dir", str(workspace["data"] / "audio"),
                 "--out", str(feats), "--workers", "1"]) == 0
    assert {f: os.path.getmtime(feats / f) for f in mats} == stamps


def test_train_predict_evaluate_flow(workspace):
    root, data, cfg, feats = (workspace[k] for k in
                              ("root", "data", "cfg", "feats"))
    out = root / "run"
    manifest = root / "all_train.tsv"

    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"), "--split", str(manifest),
                 "--out", str(out)]) == 0
    ckpt = out / "checkpoint.ckpt"
    assert ckpt.exists()
    log_lines = (out / "train_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "epoch,split,loss,precision,recall,f1"
    assert len(log_lines) == 1 + 2 * 3  # train+val rows for 3 epochs

    est_dir = root / "estimates"
    est_dir.mkdir()
    for tid in ("track000", "track001", "track002"):
        assert main(["predict", "--config", str(cfg),
                     "--checkpoint", str(ckpt), "--features", str(feats),
                     "--track", tid,
                     "--out", str(est_dir / f"{tid}.txt")]) == 0
    # a barely-trained model must still emit sorted non-negative times
    for tid in ("track000",):
        times = [float(x) for x in
                 (est_dir / f"{tid}.txt").read_text().split()]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    assert main(["evaluate", "--ref-dir", str(data / "refs"),
                 "--est-dir", str(est_dir), "--all",
                 "--out", str(root / "scores")]) == 0
    table = (root / "scores" / "scores_table.txt").read_text()
    assert "F1 (std)" in table
    assert "F0.58 (std)" in table
    assert (root / "scores" / "scores_tol0.5_beta1.csv").exists()
    assert (root / "scores" / "scores_tol3_beta0.58.csv").exists()


_BAD_CONFIG_LINES = ["epochs = 0", "n_mels = 0", "floor_db = nan", "threshold = 1.5"]


@pytest.mark.parametrize("line", _BAD_CONFIG_LINES,
                         ids=[line.replace(" ", "") for line in _BAD_CONFIG_LINES])
def test_out_of_domain_config_value_exits_1(workspace, tmp_path, capsys, line):
    root, data, feats = (workspace[k] for k in ("root", "data", "feats"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"),
                 "--split", str(root / "all_train.tsv"),
                 "--out", str(out)]) == 1
    key, value = line.split(" = ")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:1: {key} = '{value}': ")
    assert not out.exists()


def test_train_empty_train_split_exits_1(workspace, tmp_path, capsys):
    root, data, cfg, feats = (workspace[k] for k in
                              ("root", "data", "cfg", "feats"))
    manifest = tmp_path / "no_train.tsv"
    manifest.write_text("track000\tval\ntrack001\ttest\n")
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"), "--split", str(manifest),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "train" in err
    assert len(err.strip().splitlines()) == 1


def test_train_non_finite_reference_exits_1(workspace, tmp_path, capsys):
    data, cfg, feats = (workspace[k] for k in ("data", "cfg", "feats"))
    refs = tmp_path / "refs"
    shutil.copytree(data / "refs", refs)
    with open(refs / "track001.txt", "a", encoding="utf-8") as fh:
        fh.write("inf\tend\n")
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(refs),
                 "--split", str(workspace["root"] / "all_train.tsv"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {refs / 'track001.txt'}:")
    assert "not finite" in err[0]


def test_unknown_config_key_exits_1(workspace, tmp_path, capsys):
    data, feats = workspace["data"], workspace["feats"]
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("epoch = 1\n")
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"),
                 "--split", str(workspace["root"] / "all_train.tsv"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch" in err


def test_malformed_config_value_exits_1(workspace, tmp_path, capsys):
    data, feats = workspace["data"], workspace["feats"]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = ten\n")
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"),
                 "--split", str(workspace["root"] / "all_train.tsv"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{cfg}:1: epochs" in err
    assert len(err.strip().splitlines()) == 1


def test_rejected_config_value_exits_1(workspace, tmp_path, capsys):
    data, feats = workspace["data"], workspace["feats"]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 3\npooling = pool7\n")
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"),
                 "--split", str(workspace["root"] / "all_train.tsv"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{cfg}:2: pooling = 'pool7'" in err
    assert len(err.strip().splitlines()) == 1


def test_negative_final_pad_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("final_pad = -2\n")
    assert main(["features", "--config", str(cfg),
                 "--audio-dir", str(workspace["data"] / "audio"),
                 "--out", str(tmp_path / "feats"), "--workers", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}:1: final_pad = '-2'")
    assert "non-negative" in err[0]


def test_train_rejects_features_of_another_config(workspace, tmp_path, capsys):
    data, feats = workspace["data"], workspace["feats"]
    cfg = tmp_path / "fmin100.cfg"
    RunConfig(params=PipelineParams(fmin=100.0), epochs=1).to_file(cfg)
    assert main(["train", "--config", str(cfg), "--features", str(feats),
                 "--refs", str(data / "refs"),
                 "--split", str(workspace["root"] / "all_train.tsv"),
                 "--out", str(tmp_path / "run")]) == 1
    assert "different pipeline configuration" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_predict_threshold_one_gives_empty_file(workspace):
    root, cfg, feats = (workspace[k] for k in ("root", "cfg", "feats"))
    out = root / "run" / "checkpoint.ckpt"
    dest = root / "empty.txt"
    assert main(["predict", "--config", str(cfg), "--checkpoint", str(out),
                 "--features", str(feats), "--track", "track000",
                 "--threshold", "1.0", "--out", str(dest)]) == 0
    assert dest.read_text() == ""


def test_predict_rejects_mismatched_pipeline(workspace):
    root, feats = workspace["root"], workspace["feats"]
    other_cfg = root / "other.cfg"
    RunConfig(pooling="pool2_3", sslm_inputs=("mfcc-cosine",),
              include_mls=False).to_file(other_cfg)
    rc = main(["predict", "--config", str(other_cfg),
               "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
               "--features", str(feats), "--track", "track000",
               "--out", str(root / "nope.txt")])
    assert rc == 1
    assert not (root / "nope.txt").exists()


def test_sweep_and_plot(workspace):
    root, data, cfg, feats = (workspace[k] for k in
                              ("root", "data", "cfg", "feats"))
    manifest = root / "all_train.tsv"
    csv_path = root / "sweep.csv"
    svg_path = root / "sweep.svg"
    assert main(["sweep-threshold", "--config", str(cfg),
                 "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                 "--features", str(feats), "--refs", str(data / "refs"),
                 "--split", str(manifest), "--subset", "train",
                 "--out-csv", str(csv_path), "--out-svg", str(svg_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 202  # header + 201 thresholds
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3
    assert ">0.0<" in svg and ">1.0<" in svg  # unit-square axis ticks

    replot = root / "replot.svg"
    assert main(["plot", "--csv", str(csv_path), "--out", str(replot)]) == 0
    assert replot.read_text().count("<polyline") == 3


def test_sweep_rejects_a_track_listed_twice(workspace, tmp_path, capsys):
    data, cfg, feats = (workspace[k] for k in ("data", "cfg", "feats"))
    checkpoint = tmp_path / "model.ckpt"
    model = BoundaryNet(input_height=80)
    save_checkpoint(model, init_adam(model.params), checkpoint,
                    RunConfig.from_file(cfg).pipeline_hash(), epoch=1)
    manifest = tmp_path / "twice.tsv"
    manifest.write_text("track000\ttrain\ntrack001\ttrain\ntrack000\ttest\n")
    assert main(["sweep-threshold", "--config", str(cfg),
                 "--checkpoint", str(checkpoint), "--features", str(feats),
                 "--refs", str(data / "refs"), "--split", str(manifest),
                 "--subset", "test", "--out-csv", str(tmp_path / "sweep.csv"),
                 "--out-svg", str(tmp_path / "sweep.svg")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}:3: track 'track000' is already listed on line 1"]
    assert not (tmp_path / "sweep.csv").exists()


def test_evaluate_warns_on_unmatched_ids(workspace, tmp_path, capsys):
    data = workspace["data"]
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    (est_dir / "track000.txt").write_text("3.0\n")
    (est_dir / "ghost.txt").write_text("1.0\n")
    assert main(["evaluate", "--ref-dir", str(data / "refs"),
                 "--est-dir", str(est_dir)]) == 0
    err = capsys.readouterr().err
    assert "ghost" in err
    assert "track001" in err


def test_synth_rejects_before_writing(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--duration", "0.00001", "0.00001"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: segment duration range (1e-05, 1e-05) s is shorter than "
                   "one sample at sr=44100 Hz"]
    assert not out.exists()


# Each numeric synth flag with values outside its domain: --seed and
# --split-seed >= 0, --tracks >= 3, --segments 1 <= LO <= HI, --duration
# finite with 0 < LO <= HI.
_BAD_SYNTH = [
    ("--seed", ["-1"]), ("--seed", ["1.5"]), ("--split-seed", ["-1"]),
    ("--tracks", ["2"]), ("--tracks", ["0"]), ("--tracks", ["3.5"]),
    ("--segments", ["0", "2"]), ("--segments", ["3", "2"]), ("--segments", ["1", "x"]),
    ("--duration", ["1", "inf"]), ("--duration", ["nan", "nan"]),
    ("--duration", ["0", "1"]), ("--duration", ["-1", "2"]), ("--duration", ["2", "1.5"]),
]


@pytest.mark.parametrize("flag, values", _BAD_SYNTH,
                         ids=[f"{f}={'_'.join(v)}" for f, v in _BAD_SYNTH])
def test_synth_flag_out_of_domain_is_usage_error(tmp_path, capsys, flag, values):
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--out", str(out), flag, *values])
    assert excinfo.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]
    assert not out.exists()


def test_synth_flag_domain_edges_parse():
    args = _build_parser().parse_args(["synth", "--out", "o", "--tracks", "3",
                                       "--segments", "1", "1",
                                       "--duration", "1e-9", "1e-9",
                                       "--seed", "0", "--split-seed", "0"])
    assert (args.tracks, args.segments, args.duration) == (3, (1, 1), (1e-9, 1e-9))
    assert (args.seed, args.split_seed) == (0, 0)


# SHA-256 over every file ``songseg synth --tracks 3`` writes (relative path,
# then bytes, in sorted order).  The bytes must not depend on the number of
# processes that render the segments.
SYNTH_DIGESTS = {
    0: "6d273b39c1d1b7f16002713eb57713489fff4c4da0258ac4fe839c698b629a83",
    20: "df902dfc9ca355361e3ddfece91e50e5466f304c0a9213c562e6614a804824cd",
}


@pytest.mark.parametrize("seed", sorted(SYNTH_DIGESTS))
def test_synth_files_pinned(tmp_path, seed):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--seed", str(seed),
                 "--tracks", "3"]) == 0
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == SYNTH_DIGESTS[seed]


def test_features_partial_failure(workspace, tmp_path, capsys):
    audio = tmp_path / "audio"
    audio.mkdir()
    with open(workspace["data"] / "audio" / "track000.wav", "rb") as fh:
        (audio / "good.wav").write_bytes(fh.read())
    (audio / "broken.wav").write_bytes(b"RIFFjunk")
    rc = main(["features", "--config", str(workspace["cfg"]),
               "--audio-dir", str(audio), "--out", str(tmp_path / "out"),
               "--workers", "1"])
    assert rc == 1  # the batch continues but reports the failure
    assert "broken.wav" in capsys.readouterr().err
    assert (tmp_path / "out" / "good.mls.mat").exists()


def test_features_non_finite_float_wav_fails_by_name(workspace, tmp_path, capsys):
    audio = tmp_path / "audio"
    audio.mkdir()
    samples = np.zeros(22050, dtype="<f4")
    samples[100] = np.nan
    size = samples.nbytes
    header = b"".join([b"RIFF", struct.pack("<I", 36 + size), b"WAVE",
                       b"fmt ", struct.pack("<IHHIIHH", 16, 3, 1, 22050, 88200, 4, 32),
                       b"data", struct.pack("<I", size)])
    (audio / "nan.wav").write_bytes(header + samples.tobytes())
    rc = main(["features", "--config", str(workspace["cfg"]),
               "--audio-dir", str(audio), "--out", str(tmp_path / "out"),
               "--workers", "1"])
    assert rc == 1
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("failed:")]
    wav = audio / "nan.wav"
    assert failed == [f"failed: {wav}: FormatError: non-finite sample at index 100"]
    assert not (tmp_path / "out" / "nan.mls.mat").exists()


# Fractions of a clean run's wall time, start-up included, at which a
# `features` run is killed.  Where in the run a kill lands varies with the
# host's load; the checks hold wherever it does.
_KILL_AT = (0.45, 0.55, 0.65, 0.75, 0.85)
# What atomic_write leaves when killed between open and rename.
_TMP_FILE = re.compile(r"\.\d+\.tmp$")


def _features_process(cfg, audio, out):
    """`songseg features --workers 1` in a process group of its own."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.Popen(
        [sys.executable, "-m", "songseg.cli", "features", "--config", str(cfg),
         "--audio-dir", str(audio), "--out", str(out), "--workers", "1"],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


def _kept_files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()
            if not _TMP_FILE.search(p.name)}


def test_killed_features_leave_loadable_files_and_rerun_identically(workspace,
                                                                    tmp_path):
    audio, cfg = tmp_path / "audio", tmp_path / "run.cfg"
    audio.mkdir()
    tracks = ["track000", "track001"]
    for track in tracks:
        shutil.copy(workspace["data"] / "audio" / f"{track}.wav", audio)
    run = RunConfig(sslm_inputs=SSLM_VARIANTS)
    run.to_file(cfg)
    targets = {f"{t}.{name}.mat" for t in tracks for name in run.input_names()}
    targets |= {f"{t}.meta" for t in tracks}

    start = time.monotonic()
    clean = _features_process(cfg, audio, tmp_path / "clean")
    assert clean.wait(timeout=120) == 0
    wall = time.monotonic() - start
    want = _kept_files(tmp_path / "clean")
    assert sorted(want) == sorted(targets)

    for i, fraction in enumerate(_KILL_AT):
        out = tmp_path / f"killed{i}"
        proc = _features_process(cfg, audio, out)
        time.sleep(fraction * wall)
        with contextlib.suppress(ProcessLookupError):  # it may have finished
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process of the group is left
        for path in out.iterdir() if out.exists() else ():
            if _TMP_FILE.search(path.name):
                continue
            assert path.name in targets
            if path.suffix == ".mat":
                load_matrix(path)
            else:
                # the sidecar is written last, after every matrix it vouches for
                assert _read_meta(path)["inputs"] == ",".join(run.input_names())
                track = path.name[: -len(".meta")]
                assert all((out / f"{track}.{name}.mat").exists()
                           for name in run.input_names())
        assert main(["features", "--config", str(cfg), "--audio-dir", str(audio),
                     "--out", str(out), "--workers", "1"]) == 0
        assert _kept_files(out) == want


def test_features_worker_pool(workspace, tmp_path):
    rc = main(["features", "--config", str(workspace["cfg"]),
               "--audio-dir", str(workspace["data"] / "audio"),
               "--out", str(tmp_path / "out"), "--workers", "2"])
    assert rc == 0
    mats = [f for f in os.listdir(tmp_path / "out") if f.endswith(".mat")]
    assert len(mats) == 3


@pytest.mark.parametrize("tracks, pools", [(1, []), (3, [3])])
def test_features_forks_no_more_workers_than_tracks(workspace, tmp_path, monkeypatch,
                                                    tracks, pools):
    # a forking pool starts every one of its max_workers processes up front
    audio, out = tmp_path / "audio", tmp_path / "out"
    audio.mkdir()
    names = [f"track{i:03d}" for i in range(tracks)]
    for name in names:
        shutil.copy(workspace["data"] / "audio" / f"{name}.wav", audio)
    started = []

    def recording_pool(max_workers):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    assert main(["features", "--config", str(workspace["cfg"]),
                 "--audio-dir", str(audio), "--out", str(out), "--workers", "8"]) == 0
    assert started == pools
    written = sorted(os.listdir(out))
    assert written == sorted(f"{n}.{ext}" for n in names for ext in ("meta", "mls.mat"))
    for name in written:
        assert (out / name).read_bytes() == (workspace["feats"] / name).read_bytes()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["features"])  # missing required --config
    assert excinfo.value.code == 2


_PATH_VARS = ("SONGSEG_AUDIO_DIR", "SONGSEG_FEATURES_DIR", "SONGSEG_REFS_DIR",
              "SONGSEG_OUT_DIR")


@pytest.fixture
def clean_env(monkeypatch):
    for name in _PATH_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_env_vars_stand_in_for_feature_paths(workspace, clean_env, capsys):
    clean_env.setenv("SONGSEG_AUDIO_DIR", str(workspace["data"] / "audio"))
    clean_env.setenv("SONGSEG_FEATURES_DIR", str(workspace["feats"]))
    assert main(["features", "--config", str(workspace["cfg"]),
                 "--workers", "1"]) == 0
    assert f"3/3 tracks in {workspace['feats']}" in capsys.readouterr().out


def test_env_vars_stand_in_for_evaluate_paths(workspace, clean_env, tmp_path):
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    (est_dir / "track000.txt").write_text("3.0\n")
    clean_env.setenv("SONGSEG_REFS_DIR", str(workspace["data"] / "refs"))
    clean_env.setenv("SONGSEG_OUT_DIR", str(tmp_path / "scores"))
    assert main(["evaluate", "--est-dir", str(est_dir)]) == 0
    assert (tmp_path / "scores" / "scores_table.txt").exists()


# Each required path option, with arguments that leave only it missing.
_MISSING_PATH = [
    ("--audio-dir", "SONGSEG_AUDIO_DIR", ["features", "--config", "c", "--out", "o"]),
    ("--out", "SONGSEG_FEATURES_DIR", ["features", "--config", "c", "--audio-dir", "a"]),
    ("--features", "SONGSEG_FEATURES_DIR",
     ["train", "--config", "c", "--refs", "r", "--split", "s"]),
    ("--refs", "SONGSEG_REFS_DIR",
     ["train", "--config", "c", "--features", "f", "--split", "s"]),
    ("--features", "SONGSEG_FEATURES_DIR",
     ["predict", "--config", "c", "--checkpoint", "k", "--track", "t", "--out", "o"]),
    ("--features", "SONGSEG_FEATURES_DIR",
     ["sweep-threshold", "--config", "c", "--checkpoint", "k", "--refs", "r",
      "--split", "s", "--out-csv", "o"]),
    ("--refs", "SONGSEG_REFS_DIR",
     ["sweep-threshold", "--config", "c", "--checkpoint", "k", "--features", "f",
      "--split", "s", "--out-csv", "o"]),
    ("--ref-dir", "SONGSEG_REFS_DIR", ["evaluate", "--est-dir", "e"]),
]


@pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
@pytest.mark.parametrize("flag, env, argv", _MISSING_PATH,
                         ids=[f"{a[0]}{f}" for f, _, a in _MISSING_PATH])
def test_missing_path_is_usage_error(clean_env, capsys, flag, env, argv, value):
    if value is not None:
        clean_env.setenv(env, value)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "required" in err and flag in err


def test_features_without_wavs_exits_2(workspace, tmp_path, capsys):
    audio = tmp_path / "audio"
    audio.mkdir()
    (audio / "notes.txt").write_text("no audio here\n")
    assert main(["features", "--config", str(workspace["cfg"]),
                 "--audio-dir", str(audio), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: no WAV files")


_SWEEP_ARGV = ["sweep-threshold", "--config", "c", "--checkpoint", "k",
               "--features", "f", "--refs", "r", "--split", "s", "--out-csv", "o"]
_PREDICT_ARGV = ["predict", "--config", "c", "--checkpoint", "k", "--features", "f",
                 "--track", "t", "--out", "o"]
_EVALUATE_ARGV = ["evaluate", "--ref-dir", "r", "--est-dir", "e"]
_FEATURES_ARGV = ["features", "--config", "c", "--audio-dir", "a", "--out", "o"]
# Each numeric flag with values outside its domain: (0, inf), [0, 1] or an
# integer >= 1.
_BAD_NUMBERS = [
    (argv, flag, value)
    for argv in (_EVALUATE_ARGV, _SWEEP_ARGV)
    for flag in ("--tolerance", "--beta")
    for value in ("nan", "inf", "-inf", "0", "-1", "abc")
] + [(_PREDICT_ARGV, "--threshold", value)
     for value in ("nan", "-0.01", "1.5", "inf", "abc")
] + [(_FEATURES_ARGV, "--workers", value) for value in ("0", "-4", "1.5", "abc")]


@pytest.mark.parametrize("argv, flag, value", _BAD_NUMBERS,
                         ids=[f"{a[0]}{f}={v}" for a, f, v in _BAD_NUMBERS])
def test_numeric_flag_out_of_domain_is_usage_error(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [f"{flag}={value}"])  # "-inf" alone would read as an option
    assert excinfo.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    assert f"argument {flag}:" in errors[0] and repr(value) in errors[0]


@pytest.mark.parametrize("argv, flag, value", [
    (_PREDICT_ARGV, "--threshold", "0"), (_PREDICT_ARGV, "--threshold", "1"),
    (_EVALUATE_ARGV, "--tolerance", "1e-9"), (_SWEEP_ARGV, "--beta", "0.58"),
    (_FEATURES_ARGV, "--workers", "1")])
def test_numeric_flag_domain_edges_parse(argv, flag, value):
    args = _build_parser().parse_args(argv + [flag, value])
    assert getattr(args, flag[2:]) == float(value)


def test_features_workers_default_to_available_cpus():
    assert _build_parser().parse_args(_FEATURES_ARGV).workers == \
        len(os.sched_getaffinity(0))


def test_evaluate_without_common_ids_exits_1(workspace, tmp_path, capsys):
    est_dir = tmp_path / "est"
    est_dir.mkdir()
    (est_dir / "ghost.txt").write_text("1.0\n")
    assert main(["evaluate", "--ref-dir", str(workspace["data"] / "refs"),
                 "--est-dir", str(est_dir)]) == 1
    assert "error: no track ids in common" in capsys.readouterr().err


def _evaluate_dirs(tmp_path, ref_text, est_text):
    """A reference and an estimate directory holding one track, ``t``."""
    refs, ests = tmp_path / "refs", tmp_path / "est"
    for d, text in ((refs, ref_text), (ests, est_text)):
        d.mkdir()
        (d / "t.txt").write_text(text)
    return refs, ests


@pytest.mark.parametrize("side, token", [("refs", "-1.5"), ("est", "-0.5")])
def test_evaluate_negative_time_exits_1(tmp_path, capsys, side, token):
    ref_time, est_time = (token, "2.0") if side == "refs" else ("2.0", token)
    refs, ests = _evaluate_dirs(tmp_path, f"0.0\tstart\n{ref_time}\tintro\n",
                                f"4.0\n{est_time}\n")
    bad = tmp_path / side / "t.txt"
    assert main(["evaluate", "--ref-dir", str(refs), "--est-dir", str(ests)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:2: time '{token}' is negative"]


def test_evaluate_thousands_of_interleaved_boundaries(tmp_path, capsys):
    # 3000 references 0.3 s apart, each estimate 0.2 s after one: every
    # estimate lies within +/-0.5 s of two references
    times = (np.arange(1, 3001) * 0.3).tolist()
    refs, ests = _evaluate_dirs(
        tmp_path, "".join(f"{t!r}\tsection\n" for t in [0.0, *times]),
        "".join(f"{t + 0.2!r}\n" for t in times))
    assert main(["evaluate", "--ref-dir", str(refs), "--est-dir", str(ests),
                 "--tolerance", "0.5"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split()
    assert row[2:6] == ["1.000", "1.000", "1.000", "(0.000)"]


def _ref_is_a_directory(tmp_path):
    refs, ests = _evaluate_dirs(tmp_path, "0.0\tstart\n", "1.0\n")
    (refs / "t.txt").unlink()
    (refs / "t.txt").mkdir()
    return ["evaluate", "--ref-dir", str(refs), "--est-dir", str(ests)], refs / "t.txt"


def _csv_is_a_directory(tmp_path):
    return ["plot", "--csv", str(tmp_path), "--out", str(tmp_path / "p.svg")], tmp_path


def _utf16_estimate(tmp_path):
    refs, ests = _evaluate_dirs(tmp_path, "0.0\tstart\n", "")
    (ests / "t.txt").write_bytes("1.0\n".encode("utf-16"))  # starts FF FE
    return ["evaluate", "--ref-dir", str(refs), "--est-dir", str(ests)], ests / "t.txt"


def _latin1_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("epochs = 3\n# fr\u00e9quence\n".encode("latin-1"))
    return ["features", "--config", str(cfg), "--audio-dir", str(tmp_path),
            "--out", str(tmp_path / "feats")], cfg


def _latin1_sweep_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_bytes(b"threshold,precision,recall,f_beta\n0.000,1.0,1.0,\xb5\n")
    return ["plot", "--csv", str(csv_path), "--out", str(tmp_path / "p.svg")], csv_path


@pytest.mark.parametrize("case, message", [
    (_ref_is_a_directory, "Is a directory"),
    (_csv_is_a_directory, "Is a directory"),
    (_utf16_estimate, ":1: not UTF-8 text"),
    (_latin1_config, ":2: not UTF-8 text"),
    (_latin1_sweep_csv, ":2: not UTF-8 text"),
], ids=["ref-dir", "csv-dir", "utf16-estimate", "latin1-config", "latin1-csv"])
def test_unreadable_input_file_exits_1(tmp_path, capsys, case, message):
    argv, bad = case(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(bad) in err[0] and message in err[0]


def _untrained_checkpoint(workspace, path):
    from songseg.model import BoundaryNet
    from songseg.optim import init_adam
    from songseg.serialize import save_checkpoint

    model = BoundaryNet(input_height=80)
    save_checkpoint(model, init_adam(model.params), path,
                    RunConfig.from_file(workspace["cfg"]).pipeline_hash(), epoch=0)
    return path


def test_predict_track_without_features_exits_1(workspace, tmp_path, capsys):
    ckpt = _untrained_checkpoint(workspace, tmp_path / "c.ckpt")
    assert main(["predict", "--config", str(workspace["cfg"]),
                 "--checkpoint", str(ckpt), "--features", str(workspace["feats"]),
                 "--track", "ghost", "--out", str(tmp_path / "ghost.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ghost" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "ghost.txt").exists()


@pytest.mark.parametrize("command", ["predict", "sweep-threshold", "train"])
def test_non_finite_feature_exits_1(workspace, tmp_path, capsys, command):
    from songseg.serialize import load_matrix, save_matrix

    feats = tmp_path / "features"
    shutil.copytree(workspace["feats"], feats)
    bad = feats / "track000.mls.mat"
    m = load_matrix(bad)
    m.values[5, 2] = np.nan
    save_matrix(m, bad)
    ckpt = _untrained_checkpoint(workspace, tmp_path / "c.ckpt")
    manifest = workspace["root"] / "all_train.tsv"
    common = ["--config", str(workspace["cfg"]), "--features", str(feats)]
    argv = {
        "predict": ["--checkpoint", str(ckpt), "--track", "track000",
                    "--out", str(tmp_path / "p.txt")],
        "sweep-threshold": ["--checkpoint", str(ckpt), "--split", str(manifest),
                            "--subset", "train",
                            "--refs", str(workspace["data"] / "refs"),
                            "--out-csv", str(tmp_path / "s.csv")],
        "train": ["--split", str(manifest), "--refs", str(workspace["data"] / "refs"),
                  "--out", str(tmp_path / "run")],
    }[command]
    assert main([command, *common, *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: non-finite value at row 5, column 2"]


def test_predict_header_only_checkpoint_exits_1(workspace, tmp_path, capsys):
    ckpt = _untrained_checkpoint(workspace, tmp_path / "c.ckpt")
    ckpt.write_bytes(ckpt.read_bytes()[:92] + bytes(4))  # a tensor count of 0
    assert main(["predict", "--config", str(workspace["cfg"]),
                 "--checkpoint", str(ckpt), "--features", str(workspace["feats"]),
                 "--track", "track000", "--out", str(tmp_path / "b.txt")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ckpt}: checkpoint lacks tensor 'conv1.w'"]


def test_predict_checkpoint_of_other_height_exits_1(workspace, tmp_path, capsys):
    ckpt = _untrained_checkpoint(workspace, tmp_path / "c.ckpt")
    data = ckpt.read_bytes()
    assert data[56:60] == struct.pack("<I", 80)  # the stored input height
    ckpt.write_bytes(data[:56] + struct.pack("<I", 16) + data[60:])
    assert main(["predict", "--config", str(workspace["cfg"]),
                 "--checkpoint", str(ckpt), "--features", str(workspace["feats"]),
                 "--track", "track000", "--out", str(tmp_path / "p.txt")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ckpt}: checkpoint tensor 'conv3.w' has shape "
        "(128, 1024, 1, 1), expected (128, 192, 1, 1)"]
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize("text, line", [
    ("thr,p,r,f\n0.000,1.0,1.0,1.0\n", 1),
    ("threshold,precision,recall,f_beta\n0.000,1.0,1.0,1.0\n0.005,1.0,1.0\n", 3),
    ("threshold,precision,recall,f_beta\n0.000,one,1.0,1.0\n", 2),
], ids=["header", "short-row", "not-a-number"])
def test_plot_malformed_csv_exits_1(tmp_path, capsys, text, line):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(text)
    assert main(["plot", "--csv", str(csv_path),
                 "--out", str(tmp_path / "bad.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}:{line}:")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "bad.svg").exists()


def test_sweep_reports_first_best_threshold(workspace, tmp_path, capsys):
    from songseg.postprocess import read_sweep_csv

    csv_path = tmp_path / "sweep.csv"
    ckpt = _untrained_checkpoint(workspace, tmp_path / "c.ckpt")
    assert main(["sweep-threshold", "--config", str(workspace["cfg"]),
                 "--checkpoint", str(ckpt),
                 "--features", str(workspace["feats"]),
                 "--refs", str(workspace["data"] / "refs"),
                 "--split", str(workspace["root"] / "all_train.tsv"),
                 "--subset", "train", "--out-csv", str(csv_path)]) == 0
    rows = read_sweep_csv(csv_path)
    best = max(rows, key=lambda r: r.f_score)
    assert sum(r.f_score == best.f_score for r in rows) > 1  # a tie to break
    assert f"optimum threshold {best.threshold:.3f} " in capsys.readouterr().out
