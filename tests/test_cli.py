import ast
import collections
import contextlib
import dataclasses
import fcntl
import hashlib
import io
import json
import math
import os
import platform
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from avfuse import cli, data, frontend, inference, model, numerics, training
from avfuse.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _DirLock, main
from avfuse.errors import ValidationError
from test_training import write_earlier_header
from wav_files import write_wav


def run(argv):
    return main([str(a) for a in argv])


def tree_bytes(directory) -> dict:
    """Every file under ``directory`` by its relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def exits_cleanly(argv) -> tuple[int, str]:
    """Run ``argv`` through ``main`` and return its exit code and stderr,
    having checked that the code is 0, 1 or 2, that no warning was raised,
    and that stderr holds only ``error:`` lines, some exactly when the code
    is nonzero.  An exception that escapes ``main`` fails the caller."""
    stderr = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
    assert [str(w.message) for w in caught] == []
    lines = stderr.getvalue().splitlines()
    assert all(line.startswith("error: ") for line in lines) and bool(lines) == (code != EXIT_OK)
    return code, stderr.getvalue()


@pytest.mark.parametrize("cls", [cli.RunSettings, model.ModelConfig, training.TrainConfig,
                                 data.SyntheticTaskSpec], ids=lambda cls: cls.__name__)
def test_every_config_field_is_declared_as_a_setting(cls):
    """Every field carries a kind and range from ``settings.setting``, so
    ``load_run_config`` and ``validate`` hold each value to its declaration."""
    assert [f.name for f in dataclasses.fields(cls) if "kind" not in f.metadata] == []


def untrained_checkpoint(path, manifest_path) -> model.ModelConfig:
    """An initialized audio_only model for the captions of ``manifest_path``."""
    vocab = data.build_vocabulary_from_manifest(data.load_manifest(manifest_path))
    config = model.ModelConfig(vocab_size=len(vocab), d=16, heads=2, encoder_blocks=1,
                               decoder_blocks=1, fusion_mode="audio_only", max_caption_len=6)
    model.save_checkpoint(path, model.init_params(config), config, vocab)
    return config


def rewrite_header(path, change) -> None:
    """Apply ``change`` in place to the JSON header of the checkpoint at ``path``."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    change(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(new).to_bytes(8, "little") + new + raw[16 + hlen:])


def tone_manifest(directory, seconds=0.25):
    """A one-record manifest over a WAV tone, ``tone.wav`` in ``directory``:
    25 frames by default, fewer than SpecAugment's 64-frame time mask."""
    t = np.arange(int(32000 * seconds)) / 32000.0
    wav = (0.3 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)
    write_wav(directory / "tone.wav", wav, 32000)
    path = directory / "m.jsonl"
    path.write_text(json.dumps({"id": "w", "audio": "tone.wav", "captions": ["a tone"]}) + "\n")
    return path


def ragged_manifest(directory, clips=8, visual=True):
    """``clips`` records with unequal audio and visual lengths and three captions."""
    rng = np.random.default_rng(5)
    words = ("a dog barks", "a car passes", "rain falls")
    lines = []
    for i in range(clips):
        rec = {"id": f"c{i}", "audio": f"a{i}.avf", "captions": [words[i % 3]]}
        data.write_feature_file(directory / rec["audio"],
                                rng.normal(size=(3 + i % 4, 8)).astype(np.float32))
        if visual:
            rec["visual_features"] = f"v{i}.avf"
            data.write_feature_file(directory / rec["visual_features"],
                                    rng.normal(size=(1 + i % 3, 8)).astype(np.float32))
        lines.append(json.dumps(rec))
    path = directory / "ragged.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def poison_rows(path, value) -> None:
    """Set the first value of the last row of the AVF1 file at ``path``."""
    rows = data.read_feature_file(path).copy()
    rows[-1, 0] = value
    data.write_feature_file(path, rows)


def peaked_checkpoint(path, manifest_path, mode="concatenate"):
    """A desk model whose weights are 7x the init scale, so captions vary by clip."""
    vocab = data.build_vocabulary_from_manifest(data.load_manifest(manifest_path))
    config = model.ModelConfig(vocab_size=len(vocab), d=16, heads=2, encoder_blocks=1,
                               decoder_blocks=2, fusion_mode=mode, max_caption_len=8,
                               audio_in_dim=8, visual_in_dim=8, max_audio_len=8, dropout=0.0)
    params = model.init_params(config, seed=3)
    for _, tensor in model.named_parameters(params):
        tensor.data = tensor.data * 7.0
    model.save_checkpoint(path, params, config, vocab)


# sha256 prefixes of the candidate files that ``avfuse eval`` writes over
# ``ragged_manifest`` with ``peaked_checkpoint`` of each fusion mode, as
# GOLDEN_FIT pins training: a decoding change must keep these bytes.
EVAL_PIN = {
    "adaava_audio": {"--greedy": "7a970a5ce06a1b80", "--beam": "417741327722a813"},
    "concatenate": {"--greedy": "079b6fc3eec51f0e", "--beam": "af176c82b97917ef"},
}


def synth_args(out, classes=2, pairs=1, per_class=4, seed=0):
    return [
        "synth", "--out", out, "--classes", classes, "--ambiguous-pairs", pairs,
        "--examples-per-class", per_class, "--eval-examples-per-class", 2,
        "--t-audio", 4, "--t-visual", 2, "--feature-dim", 8, "--noise-std", 0.05,
        "--seed", seed,
    ]


def train_args(data_dir, out, **overrides):
    flags = {
        "--train-manifest": data_dir / "train.jsonl",
        "--val-manifest": data_dir / "eval.jsonl",
        "--out": out,
        "--fusion-mode": "adaava_audio",
        "--d": 16,
        "--heads": 2,
        "--encoder-blocks": 1,
        "--decoder-blocks": 1,
        "--dropout": 0.0,
        "--epochs": 3,
        "--warmup-epochs": 1,
        "--lr": 2e-3,
        "--batch-size": 4,
        "--label-smoothing": 0.0,
        "--seed": 1,
    }
    flags.update(overrides)
    argv = ["train"]
    for k, v in flags.items():
        if v is True:  # a flag that takes no value
            argv.append(k)
        elif v is not None:
            argv += [k, v]
    return argv


def write_run_config(tmp_path, train_manifest, **sections):
    """A ``--config`` file for a 1-epoch audio-only run over ``train_manifest``
    into ``tmp_path / "r"``; each keyword updates the top level or a section."""
    cfg = {
        "train_manifest": str(train_manifest), "out_dir": str(tmp_path / "r"),
        "model": {"d": 16, "heads": 2, "encoder_blocks": 1, "decoder_blocks": 1,
                  "fusion_mode": "audio_only", "dropout": 0.0},
        "train": {"epochs": 1, "warmup_epochs": 0, "batch_size": 4, "label_smoothing": 0.0},
    }
    for key, value in sections.items():
        if isinstance(cfg.get(key), dict) and isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run(synth_args(out)) == EXIT_OK
    return out


class TestSynth:
    def test_default_outputs_load_cleanly(self, tmp_path):
        assert run(synth_args(tmp_path / "d")) == EXIT_OK
        train = data.load_manifest(tmp_path / "d" / "train.jsonl")
        eval_ = data.load_manifest(tmp_path / "d" / "eval.jsonl")
        assert len(train) == 8 and len(eval_) == 4

    def test_same_seed_byte_identical(self, tmp_path):
        run(synth_args(tmp_path / "a", seed=7))
        run(synth_args(tmp_path / "b", seed=7))
        for rel in ("train.jsonl", "eval.jsonl"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for fa in sorted((tmp_path / "a" / "features").iterdir()):
            assert fa.read_bytes() == (tmp_path / "b" / "features" / fa.name).read_bytes()

    def test_impossible_pairing_is_validation_error(self, tmp_path):
        assert run(["synth", "--out", tmp_path / "x", "--classes", 3,
                    "--ambiguous-pairs", 2]) == EXIT_VALIDATION

    def test_more_classes_than_object_words_is_validation_error(self, tmp_path, capsys):
        assert run(["synth", "--out", tmp_path / "x", "--classes", 17]) == EXIT_VALIDATION
        assert "need 17 object words, have 16" in capsys.readouterr().err

    def test_second_synth_into_a_used_out_is_validation_keeping_the_task(self, tmp_path,
                                                                          capsys):
        """No synth writes over another: the second exits 1 naming ``--out`` and
        an entry it holds, and ``--force``, which left a larger task's feature
        files behind, is no flag."""
        out = tmp_path / "d"
        assert run(synth_args(out, classes=4, pairs=2)) == EXIT_OK
        before = tree_bytes(out)
        capsys.readouterr()
        assert run(synth_args(out)) == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: --out {out}: the directory is not empty: "
                                           "it holds eval.jsonl\n")
        assert run(synth_args(out) + ["--force"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: unrecognized arguments: --force\n"
        assert tree_bytes(out) == before

    def test_out_holding_only_a_lock_file_is_accepted(self, tmp_path):
        """The one rule for output directories: a train run that ended, or was
        killed, leaves only its ``.lock`` behind (``TestTrain`` reclaims one)."""
        out = tmp_path / "d"
        out.mkdir()
        (out / ".lock").write_text("999999999")
        assert run(synth_args(out)) == EXIT_OK
        assert (out / "train.jsonl").exists()

    def test_out_that_is_a_file_is_validation_naming_it(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("keep")
        assert run(synth_args(out)) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --out {out}: {out} is not a directory\n")
        assert out.read_text() == "keep"


class TestTrain:
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_is_or_lies_under_a_file_is_validation_before_loading(self, tmp_path,
                                                                          capsys, out):
        afile = tmp_path / "file"
        afile.write_text("keep")
        # the manifest is missing: reading it first would exit 2
        rc = run(["train", "--train-manifest", tmp_path / "none.jsonl", "--out", tmp_path / out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: --out {tmp_path / out}: {afile} is not a directory\n")
        assert afile.read_text() == "keep"

    def test_config_out_dir_that_is_a_file_is_named_by_its_key(self, tmp_path, capsys):
        afile = tmp_path / "file"
        afile.write_text("keep")
        cfg = write_run_config(tmp_path, tmp_path / "none.jsonl", out_dir=str(afile))
        assert run(["train", "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: out_dir {afile}: {afile} is not a directory\n"

    def test_second_run_into_a_used_run_directory_is_validation_before_loading(
            self, dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert run(train_args(dataset, out, **{"--epochs": 1, "--warmup-epochs": 0})) == EXIT_OK
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def load_examples(*args, **kwargs):
            raise AssertionError("clips loaded")

        monkeypatch.setattr(data, "load_examples", load_examples)
        rc = run(train_args(dataset, out, **{"--epochs": 1, "--warmup-epochs": 0, "--seed": 2}))
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --out {out}: the directory is not empty: "
                                           "it holds best.avck\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_config_out_dir_of_an_earlier_run_is_named_by_its_key(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        (out / "metrics.jsonl").write_text("")
        cfg = write_run_config(tmp_path, tmp_path / "none.jsonl")
        assert run(["train", "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: out_dir {out}: the directory is not empty: "
                                           "it holds metrics.jsonl\n")

    def test_run_that_logs_first_into_the_same_directory_keeps_its_log(
            self, dataset, tmp_path, capsys, monkeypatch):
        """The output directory rule runs again under the lock, so a run
        that started alongside and wrote its log after the first check is
        not appended to."""
        out = tmp_path / "run"
        init_params = model.init_params

        def other_run_logs_first(config, seed=0):
            out.mkdir()
            (out / "metrics.jsonl").write_text("other run\n")
            return init_params(config, seed=seed)

        monkeypatch.setattr(model, "init_params", other_run_logs_first)
        assert run(train_args(dataset, out, **{"--epochs": 1})) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --out {out}: the directory is not empty: "
                                           "it holds metrics.jsonl\n")
        assert sorted(p.name for p in out.iterdir()) == [".lock", "metrics.jsonl"]
        assert (out / "metrics.jsonl").read_text() == "other run\n"

    def test_out_of_a_synth_task_is_validation_keeping_the_task(self, dataset, capsys):
        """A train run into the task's own directory would replace the task's
        ``resolved_config.json`` with its own."""
        before = tree_bytes(dataset)
        capsys.readouterr()
        assert run(train_args(dataset, dataset, **{"--epochs": 1})) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --out {dataset}: the directory is not "
                                           "empty: it holds eval.jsonl\n")
        assert tree_bytes(dataset) == before

    def test_out_holding_a_lock_file_and_another_is_validation_before_and_under_the_lock(
            self, dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("999999999")
        (out / "notes.txt").write_text("keep")

        def load_examples(*args, **kwargs):
            raise AssertionError("clips loaded")

        with monkeypatch.context() as patch:
            patch.setattr(data, "load_examples", load_examples)
            assert run(train_args(dataset, out, **{"--epochs": 1})) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --out {out}: the directory is not empty: "
                                           "it holds notes.txt\n")
        assert {p.name: p.read_text() for p in out.iterdir()} == {".lock": "999999999",
                                                                  "notes.txt": "keep"}
        other = tmp_path / "other"
        init_params = model.init_params

        def another_file_appears(config, seed=0):
            other.mkdir()
            (other / "notes.txt").write_text("keep")
            return init_params(config, seed=seed)

        monkeypatch.setattr(model, "init_params", another_file_appears)
        assert run(train_args(dataset, other, **{"--epochs": 1})) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --out {other}: the directory is not empty: "
                                           "it holds notes.txt\n")
        assert sorted(p.name for p in other.iterdir()) == [".lock", "notes.txt"]

    def test_smoke_val_loss_improves(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(dataset, out, **{"--epochs": 6})) == EXIT_OK
        lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        vals = [l["val_loss"] for l in lines if l["val_loss"] is not None]
        assert vals[-1] < vals[0]
        assert (out / "best.avck").exists() and (out / "last.avck").exists()

    def test_beta_flag_echoed_in_header(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(dataset, out, **{"--beta": 0.13, "--epochs": 1})) == EXIT_OK
        stdout = capsys.readouterr().out
        assert '"beta": 0.13' in stdout
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["model"]["beta"] == 0.13

    # flag -> (value, where resolved_config.json holds it); the path values
    # are relative to the test's tmp_path
    FLAG_CASES = {
        "--train-manifest": ("data/eval.jsonl", ("train_manifest",)),
        "--val-manifest": ("data/train.jsonl", ("val_manifest",)),
        "--out": ("elsewhere", ("out_dir",)),
        "--seed": (5, ("train", "seed")),
        "--fusion-mode": ("concatenate", ("model", "fusion_mode")),
        "--beta": (0.25, ("model", "beta")),
        "--d": (8, ("model", "d")),
        "--heads": (4, ("model", "heads")),
        "--encoder-blocks": (2, ("model", "encoder_blocks")),
        "--decoder-blocks": (2, ("model", "decoder_blocks")),
        "--dropout": (0.2, ("model", "dropout")),
        "--max-caption-len": (12, ("model", "max_caption_len")),
        "--epochs": (2, ("train", "epochs")),
        "--warmup-epochs": (1, ("train", "warmup_epochs")),
        "--lr": (0.004, ("train", "lr_peak")),
        "--batch-size": (3, ("train", "batch_size")),
        "--label-smoothing": (0.2, ("train", "label_smoothing")),
        "--checkpoint-interval": (2, ("train", "checkpoint_interval")),
        "--augment": (True, ("train", "augment")),
        "--no-clip": (True, ("train", "clip_norm")),
    }
    # what the flags that take no value (True above) land as
    BARE_FLAG_VALUES = {"--no-clip": None}

    def test_flag_cases_cover_every_train_flag(self):
        assert sorted(self.FLAG_CASES) == sorted(row[0] for row in cli._TRAIN_FLAGS)

    @pytest.mark.parametrize("flag", sorted(FLAG_CASES))
    def test_train_flag_lands_on_its_resolved_key(self, dataset, tmp_path, flag):
        value, where = self.FLAG_CASES[flag]
        if flag in ("--train-manifest", "--val-manifest", "--out"):
            value = str(tmp_path / value)
        out = tmp_path / ("elsewhere" if flag == "--out" else "out")
        flags = {"--epochs": 1, "--warmup-epochs": 0, flag: value}
        if flag == "--augment":  # SpecAugment masks WAV clips, of at least 64 frames
            tone = tone_manifest(tmp_path, seconds=1.0)
            flags.update({"--train-manifest": tone, "--val-manifest": tone,
                          "--fusion-mode": "audio_only"})
        argv = train_args(dataset, tmp_path / "out", **flags)
        assert run(argv) == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        for key in where:
            resolved = resolved[key]
        assert resolved == self.BARE_FLAG_VALUES.get(flag, value)

    def test_video_only_without_visual_features_is_config_error(self, tmp_path):
        feat = tmp_path / "a.avf"
        data.write_feature_file(feat, np.zeros((4, 8), dtype=np.float32))
        manifest = tmp_path / "train.jsonl"
        manifest.write_text(json.dumps(
            {"id": "x", "audio": "a.avf", "captions": ["a dog barks"]}) + "\n")
        rc = run(["train", "--train-manifest", manifest, "--out", tmp_path / "r",
                  "--fusion-mode", "video_only", "--epochs", 1])
        assert rc == EXIT_VALIDATION

    def test_two_runs_identical_logs_and_checkpoints(self, dataset, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(train_args(dataset, out1)) == EXIT_OK
        assert run(train_args(dataset, out2)) == EXIT_OK
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "last.avck").read_bytes() == (out2 / "last.avck").read_bytes()
        assert (out1 / "best.avck").read_bytes() == (out2 / "best.avck").read_bytes()

    def test_unknown_config_keys_all_reported(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train_manifest": str(dataset / "train.jsonl"),
            "bogus_key": 1,
            "model": {"d": 16, "not_a_field": 2},
        }))
        assert run(["train", "--config", cfg]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bogus_key" in err and "not_a_field" in err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path, tone_manifest(tmp_path, seconds=1.0),
                               model={"beta": 0.5},
                               train={"lr_peak": 1e-3, "augment": False, "clip_norm": 0.5})
        assert run(["train", "--config", cfg, "--beta", "0.13", "--augment",
                    "--no-clip"]) == EXIT_OK
        resolved = json.loads((tmp_path / "r" / "resolved_config.json").read_text())
        assert resolved["model"]["beta"] == 0.13  # flag wins over file
        assert resolved["train"]["augment"] is True
        assert resolved["train"]["clip_norm"] is None

    def test_seed_flag_overrides_file_train_seed(self, dataset, tmp_path):
        cfg = write_run_config(tmp_path, dataset / "train.jsonl", train={"seed": 5})
        assert run(["train", "--config", cfg, "--seed", 7]) == EXIT_OK
        resolved = json.loads((tmp_path / "r" / "resolved_config.json").read_text())
        assert resolved["train"]["seed"] == 7 and "seed" not in resolved
        ck = model.load_checkpoint(tmp_path / "r" / "last.avck")
        assert ck.state["train_config"]["seed"] == 7

    def test_resolved_config_echoes_file_values_as_given(self, dataset, tmp_path):
        cfg = write_run_config(tmp_path, dataset / "train.jsonl", min_count=2,
                               model={"beta": 0}, train={"clip_norm": None})
        assert run(["train", "--config", cfg]) == EXIT_OK
        resolved = json.loads((tmp_path / "r" / "resolved_config.json").read_text())
        assert resolved["min_count"] == 2
        assert type(resolved["model"]["beta"]) is int  # a JSON int passes for a float
        assert resolved["train"]["clip_norm"] is None

    @pytest.mark.parametrize("sections, message", [
        ({"min_count": "2"}, 'min_count must be int, got "2"'),
        ({"out_dir": 5}, "out_dir must be str, got 5"),
        ({"model": {"d": "16"}}, 'model.d must be int, got "16"'),
        ({"model": {"beta": True}}, "model.beta must be float, got true"),
        ({"model": {"fusion_mode": None}}, "model.fusion_mode must be str, got null"),
        ({"train": {"epochs": "1"}}, 'train.epochs must be int, got "1"'),
        ({"train": {"seed": 1.5}}, "train.seed must be int, got 1.5"),
        ({"train": {"batch_size": True}}, "train.batch_size must be int, got true"),
        ({"train": {"clip_norm": "1"}}, 'train.clip_norm must be float, got "1"'),
        ({"seed": 3}, "unknown config key 'seed'"),  # the seed is train.seed
        ({"seed": "3"}, "unknown config key 'seed'"),
        ({"model": 5}, "model must be an object, got 5"),
    ])
    def test_wrong_typed_config_value_is_validation(self, dataset, tmp_path, capsys,
                                                    sections, message):
        cfg = write_run_config(tmp_path, dataset / "train.jsonl", **sections)
        assert run(["train", "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("raw", [
        b"\xff\xfe{\x00}\x00",  # UTF-16, with its byte-order mark
        b'{"train": {"seed": ' + b"9" * 5000 + b"}}",  # past int's digit limit
        b'{"train": ',
    ], ids=["utf-16", "long-int", "truncated"])
    def test_undecodable_config_is_validation_naming_it(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        code, err = exits_cleanly(["train", "--config", cfg])
        assert code == EXIT_VALIDATION
        assert err.startswith(f"error: {cfg}: not valid JSON: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_non_object_config_is_validation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        assert run(["train", "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}: a run config must be an object, got [1]\n"

    @pytest.mark.parametrize("augment, code, resolved", [
        (5, EXIT_VALIDATION, None),
        (True, EXIT_OK, True),
        (False, EXIT_OK, False),
        ({}, EXIT_VALIDATION, None),
        (dataclasses.asdict(frontend.SPEC_AUGMENT), EXIT_VALIDATION, None),
        ("true", EXIT_VALIDATION, None),
        (None, EXIT_VALIDATION, None),
    ])
    def test_augment_config_value(self, tmp_path, capsys, augment, code, resolved):
        """``train.augment`` on a 1 s WAV clip: true or false trains and is
        echoed as given; anything else, null and the policy's object form
        included, is the standard validation error naming the key."""
        cfg = write_run_config(tmp_path, tone_manifest(tmp_path, seconds=1.0),
                               train={"batch_size": 1, "augment": augment})
        assert run(["train", "--config", cfg]) == code
        if code == EXIT_OK:
            echo = json.loads((tmp_path / "r" / "resolved_config.json").read_text())
            assert echo["train"]["augment"] is resolved
        else:
            assert capsys.readouterr().err == (f"error: {cfg}: train.augment must be bool, "
                                               f"got {json.dumps(augment)}\n")
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("mode", ["adaava_audio", "video_only"])
    def test_augment_where_it_cannot_act_is_rejected(self, dataset, tmp_path, capsys, mode):
        """``--augment`` on the synthetic task's feature files, which hold no
        waveform to mask, or in a fusion mode that reads no audio exits 1
        naming ``train.augment`` (and the manifest that holds no waveform)
        before anything is written."""
        out = tmp_path / "r"
        rc = run(train_args(dataset, out, **{"--fusion-mode": mode, "--augment": True}))
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: train.augment: ") and err.count("\n") == 1
        assert (str(dataset / "train.jsonl") in err) == (mode != "video_only")
        assert not out.exists()

    def test_augment_rejects_clip_shorter_than_mask(self, tmp_path, capsys):
        """A 0.5 s clip has 50 frames, fewer than SpecAugment's 64-frame time
        mask: the run stops before anything is written and names the clip."""
        lines = []
        for name, seconds in (("long", 1.0), ("short", 0.5)):
            t = np.arange(int(32000 * seconds)) / 32000.0
            write_wav(tmp_path / f"{name}.wav",
                      (0.3 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32), 32000)
            lines.append(json.dumps({"id": name, "audio": f"{name}.wav", "captions": ["a tone"]}))
        (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
        rc = run(["train", "--train-manifest", tmp_path / "m.jsonl", "--out", tmp_path / "r",
                  "--fusion-mode", "audio_only", "--d", 16, "--heads", 2, "--encoder-blocks", 1,
                  "--decoder-blocks", 1, "--epochs", 1, "--warmup-epochs", 0,
                  "--batch-size", 1, "--augment"])
        assert rc == EXIT_VALIDATION
        error = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(error) == 1 and "'short'" in error[0] and "'long'" not in error[0]
        assert "train.augment" in error[0] and str(tmp_path / "m.jsonl") in error[0]
        assert not (tmp_path / "r").exists()  # no lock, echo or log in --out

    def test_lockfile_blocks_second_owner(self, dataset, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        with open(out / ".lock", "w") as fh:  # a second open file, like another process's
            fh.write(str(os.getpid()))
            fh.flush()
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run(train_args(dataset, out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(out) in err and f"pid {os.getpid()}" in err

    def test_stale_lock_reclaimed(self, dataset, tmp_path):
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".lock").write_text("999999999")
        assert run(train_args(dataset, out, **{"--epochs": 1})) == EXIT_OK

    def test_parameters_too_large_for_memory_exit_2_before_any_write(self, dataset, tmp_path,
                                                                     capsys, monkeypatch):
        def out_of_memory(config, seed=0):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(model, "init_params", out_of_memory)
        out = tmp_path / "r"
        assert run(train_args(dataset, out)) == EXIT_RUNTIME
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 72.8 TiB for an array"]
        assert not out.exists()

    @pytest.mark.parametrize("clips, mode", [("avf1", "concatenate"), ("wav", "audio_only")])
    def test_train_reads_each_clip_once(self, tmp_path, monkeypatch, clips, mode):
        """The widths that neither file nor flag gives come from the loaded
        rows, so no input file is read a second time to learn them."""
        manifest_path = ragged_manifest(tmp_path) if clips == "avf1" else tone_manifest(tmp_path)
        reads = collections.Counter()
        for name in ("load_audio_input", "read_feature_file"):
            def counted(path, _read=getattr(data, name), _name=name):
                reads[_name, str(path)] += 1
                return _read(path)

            monkeypatch.setattr(data, name, counted)
        argv = ["train", "--train-manifest", manifest_path, "--out", tmp_path / "r",
                "--fusion-mode", mode, "--d", 8, "--heads", 2, "--encoder-blocks", 1,
                "--decoder-blocks", 1, "--epochs", 0]
        assert run(argv) == EXIT_OK
        assert reads and set(reads.values()) == {1}, reads
        resolved = json.loads((tmp_path / "r" / "resolved_config.json").read_text())["model"]
        width = 8 if clips == "avf1" else frontend.MelConfig().n_mels * 4
        assert resolved["audio_in_dim"] == width
        assert resolved["visual_in_dim"] == (8 if mode == "concatenate" else 512)

    def test_zero_wide_first_clip_is_validation_naming_the_width(self, tmp_path, capsys):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        data.write_feature_file(tmp_path / "a0.avf", np.zeros((3, 0), np.float32))
        rc = run(["train", "--train-manifest", manifest_path, "--out", tmp_path / "r",
                  "--fusion-mode", "audio_only", "--epochs", 0])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: audio_in_dim must be >= 1, got 0\n"
        assert not (tmp_path / "r").exists()


def test_dir_lock_is_released_on_exit_and_its_file_kept(tmp_path):
    run_dir = tmp_path / "run"
    with _DirLock(run_dir):
        assert (run_dir / ".lock").read_text() == str(os.getpid())
        with pytest.raises(ValidationError):
            with _DirLock(run_dir):
                pass
    assert (run_dir / ".lock").exists()
    with _DirLock(run_dir):
        pass


class TestEvalInfer:
    @pytest.fixture
    def trained(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(dataset, out, **{"--epochs": 8})) == EXIT_OK
        return out / "best.avck"

    def test_beam1_and_greedy_reports_identical(self, trained, dataset, tmp_path):
        r1, r2 = tmp_path / "beam1.json", tmp_path / "greedy.json"
        assert run(["eval", "--checkpoint", trained, "--manifest", dataset / "eval.jsonl",
                    "--beam", 1, "--report", r1]) == EXIT_OK
        assert run(["eval", "--checkpoint", trained, "--manifest", dataset / "eval.jsonl",
                    "--greedy", "--report", r2]) == EXIT_OK
        a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
        # the echoed flags and the wall-clock timing legitimately differ
        a.pop("settings"), b.pop("settings"), a.pop("timing"), b.pop("timing")
        assert a == b

    @pytest.mark.parametrize("flags, settings", [(["--greedy"], {"beam": 1, "greedy": True}),
                                                 ([], {"beam": 3, "greedy": False})])
    def test_report_names_the_beam_that_ran(self, tmp_path, flags, settings):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        report_path = tmp_path / "rep.json"
        assert run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                    "--report", report_path] + flags) == EXIT_OK
        reported = json.loads(report_path.read_text())["settings"]
        assert {key: reported[key] for key in settings} == settings

    @pytest.mark.parametrize("flags, beam", [(["--beam", 1], 1), (["--greedy", "--beam", 2], 2),
                                             (["--beam", 2, "--greedy"], 1)])
    def test_greedy_is_beam_1_and_the_last_flag_wins(self, tmp_path, flags, beam):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        report_path = tmp_path / "rep.json"
        assert run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                    "--report", report_path] + flags) == EXIT_OK
        reported = json.loads(report_path.read_text())["settings"]
        assert (reported["beam"], reported["greedy"]) == (beam, beam == 1)

    def test_report_times_the_decode_loop(self, trained, dataset, tmp_path):
        report_path = tmp_path / "rep.json"
        for flags in (["--greedy"], ["--beam", 3]):
            assert run(["eval", "--checkpoint", trained, "--manifest", dataset / "eval.jsonl",
                        "--report", report_path] + flags) == EXIT_OK
            timing = json.loads(report_path.read_text())["timing"]
            assert set(timing) == {"clips", "decode_s", "clips_per_s", "ms_per_clip_p50",
                                   "ms_per_clip_p95"}
            assert timing["ms_per_clip_p50"] <= timing["ms_per_clip_p95"]
            assert timing["clips"] == len(data.load_manifest(dataset / "eval.jsonl").records)
            assert all(value > 0 for value in timing.values())

    def test_report_names_its_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        report_path = tmp_path / "rep.json"
        assert run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                    "--report", report_path]) == EXIT_OK
        env = json.loads(report_path.read_text())["environment"]
        assert env == {"python": platform.python_version(), "numpy": np.__version__,
                       "cpu_count": os.cpu_count(), "OPENBLAS_NUM_THREADS": None,
                       "OMP_NUM_THREADS": "1"}

    @staticmethod
    def assert_chunked_candidates_equal_per_clip_decoding(tmp_path, monkeypatch, mode, beam):
        """3-clip chunks over 8 ragged clips: a chunk boundary and a short last chunk."""
        manifest_path = ragged_manifest(tmp_path)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path, mode)
        monkeypatch.setattr(cli, "_EVAL_CHUNK", 3)
        out = tmp_path / "cands.jsonl"
        assert run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                    "--beam", beam, "--candidates-out", out]) == EXIT_OK
        ck = model.load_checkpoint(tmp_path / "m.avck")
        manifest = data.load_manifest(manifest_path)
        lines, captions = [], set()
        for ex in data.load_examples(manifest, ck.vocab, ck.config.max_caption_len):
            enc = model.encode_modalities(ck.params, ck.config, audio=ex.audio_patches,
                                          visual=ex.visual)
            [ids] = inference.caption_clips(ck.params, ck.config, enc[None], beam)
            caption = " ".join(data.decode_caption(ids, ck.vocab))
            captions.add(caption)
            lines.append(json.dumps({"id": ex.id, "caption": caption}, sort_keys=True) + "\n")
        assert len(captions) > 1
        assert out.read_bytes() == "".join(lines).encode("utf-8")

    @pytest.mark.parametrize("mode", ["concatenate", "adaava_video"])
    def test_chunked_beam_candidates_equal_per_clip_decoding(self, tmp_path, monkeypatch, mode):
        self.assert_chunked_candidates_equal_per_clip_decoding(tmp_path, monkeypatch, mode, 3)

    @pytest.mark.parametrize("mode", ["concatenate", "adaava_video"])
    def test_chunked_greedy_candidates_equal_per_clip_decoding(self, tmp_path, monkeypatch,
                                                               mode):
        self.assert_chunked_candidates_equal_per_clip_decoding(tmp_path, monkeypatch, mode, 1)

    @pytest.mark.parametrize("beam", [1, 3])
    def test_row_bounded_chunks_write_the_one_chunk_candidates(self, tmp_path, monkeypatch,
                                                               beam):
        """8 ragged clips of 3 to 6 patch rows in chunks of at most 8 padded
        rows: pairs and single clips.  A shorter padding may move encoder
        bits, not the captions."""
        manifest_path = ragged_manifest(tmp_path)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        argv = ["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                "--beam", beam, "--candidates-out"]
        assert run(argv + [tmp_path / "one.jsonl"]) == EXIT_OK
        encode, encoded = model.encode_modalities, []

        def counting_encode(*args, audio, **kwargs):
            encoded.append(len(audio))
            return encode(*args, audio=audio, **kwargs)

        monkeypatch.setattr(model, "encode_modalities", counting_encode)
        monkeypatch.setattr(cli, "_EVAL_ROWS", 8)
        assert run(argv + [tmp_path / "split.jsonl"]) == EXIT_OK
        assert encoded == [2, 1, 1, 2, 1, 1]
        assert (tmp_path / "split.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()

    @pytest.mark.parametrize("mode, flags", [(mode, flags) for mode in sorted(EVAL_PIN)
                                             for flags in (["--greedy"], ["--beam", 3])])
    def test_candidate_bytes_pinned(self, tmp_path, mode, flags):
        manifest_path = ragged_manifest(tmp_path)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path, mode)
        out = tmp_path / "cands.jsonl"
        assert run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                    "--candidates-out", out] + flags) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
        assert digest == EVAL_PIN[mode][flags[0]]

    @pytest.mark.parametrize("beam", [1, 3])
    def test_infer_prints_the_eval_caption(self, tmp_path, capsys, beam):
        manifest_path = ragged_manifest(tmp_path)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        out = tmp_path / "cands.jsonl"
        assert run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                    "--beam", beam, "--candidates-out", out]) == EXIT_OK
        evaluated = [json.loads(line)["caption"] for line in out.read_text().splitlines()]
        capsys.readouterr()
        printed = []
        for i in range(len(evaluated)):
            assert run(["infer", "--checkpoint", tmp_path / "m.avck",
                        "--audio", tmp_path / f"a{i}.avf", "--visual", tmp_path / f"v{i}.avf",
                        "--beam", beam]) == EXIT_OK
            printed.append(capsys.readouterr().out.rstrip("\n"))
        assert printed == evaluated
        assert len(set(printed)) > 1

    def test_eval_rejects_records_without_visual_features_first(self, tmp_path, capsys):
        manifest_path = ragged_manifest(tmp_path, visual=False)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)  # reads visual features
        out = tmp_path / "cands.jsonl"
        rc = run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                  "--candidates-out", out])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "concatenate" in err and "c0" in err
        assert not out.exists()

    def test_report_contains_all_six_metrics(self, trained, dataset, tmp_path, capsys):
        report_path = tmp_path / "rep.json"
        assert run(["eval", "--checkpoint", trained, "--manifest", dataset / "eval.jsonl",
                    "--report", report_path]) == EXIT_OK
        report = json.loads(report_path.read_text())
        for key in ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider"):
            assert key in report

    def test_infer_deterministic_and_traced(self, trained, dataset, capsys):
        manifest = data.load_manifest(dataset / "eval.jsonl")
        rec = manifest.records[0]
        argv = ["infer", "--checkpoint", trained,
                "--audio", manifest.resolve(rec.audio),
                "--visual", manifest.resolve(rec.visual_features), "--trace"]
        assert run(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        trace_lines = [l for l in first.splitlines() if l.startswith("block ")]
        assert trace_lines, "trace lines missing"
        for line in trace_lines:
            for field in line.split()[2:]:
                value = float(field.split("=")[1])
                assert 0.0 <= value <= 1.0

    def test_eval_rejects_audio_longer_than_positional_table(self, tmp_path, capsys):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)  # max_audio_len 8
        data.write_feature_file(tmp_path / "a1.avf", np.zeros((12, 8), np.float32))
        rc = run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path])
        assert rc == EXIT_VALIDATION
        assert "audio of 12 patches exceeds" in capsys.readouterr().err

    def test_infer_rejects_audio_longer_than_positional_table(self, tmp_path, capsys):
        manifest_path = ragged_manifest(tmp_path, clips=1)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)  # max_audio_len 8
        data.write_feature_file(tmp_path / "long.avf", np.zeros((12, 8), np.float32))
        rc = run(["infer", "--checkpoint", tmp_path / "m.avck", "--audio", tmp_path / "long.avf",
                  "--visual", tmp_path / "v0.avf"])
        assert rc == EXIT_VALIDATION
        assert "audio of 12 patches exceeds" in capsys.readouterr().err

    def test_infer_missing_visual_names_mode(self, trained, dataset, capsys):
        manifest = data.load_manifest(dataset / "eval.jsonl")
        rec = manifest.records[0]
        rc = run(["infer", "--checkpoint", trained, "--audio", manifest.resolve(rec.audio)])
        assert rc == EXIT_VALIDATION
        assert "adaava_audio" in capsys.readouterr().err

    def test_infer_reads_only_the_sides_its_mode_uses(self, tmp_path, capsys):
        """``--audio`` is needed only where the fusion mode reads audio, as
        ``--visual`` is only where it reads video."""
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "v.avck", manifest_path, mode="video_only")
        peaked_checkpoint(tmp_path / "c.avck", manifest_path)
        capsys.readouterr()
        assert run(["infer", "--checkpoint", tmp_path / "v.avck",
                    "--visual", tmp_path / "v0.avf"]) == EXIT_OK
        assert capsys.readouterr().out.strip()
        assert run(["infer", "--checkpoint", tmp_path / "c.avck",
                    "--visual", tmp_path / "v0.avf"]) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", "error: fusion mode 'concatenate' needs --audio features\n")

    def test_infer_wav_patches_equal_load_examples(self, tmp_path, monkeypatch):
        manifest_path = tone_manifest(tmp_path)
        config = untrained_checkpoint(tmp_path / "ck.avck", manifest_path)
        seen, encode = [], model.encode_modalities

        def spy(params, config, audio=None, **kw):
            seen.append(audio)
            return encode(params, config, audio=audio, **kw)

        monkeypatch.setattr(model, "encode_modalities", spy)
        assert run(["infer", "--checkpoint", tmp_path / "ck.avck",
                    "--audio", tmp_path / "tone.wav", "--beam", 1]) == EXIT_OK
        manifest = data.load_manifest(manifest_path)
        vocab = data.build_vocabulary_from_manifest(manifest)
        [example] = data.load_examples(manifest, vocab, config.max_caption_len)
        assert seen[0].shape == (6, frontend.FRAMES_PER_PATCH * frontend.MelConfig().n_mels)
        assert np.array_equal(seen[0], example.audio_patches)

    def test_silence_wav_through_audio_only_model(self, tmp_path, capsys):
        t = np.arange(32000) / 32000.0
        for i, freq in enumerate((440.0, 880.0)):
            wav = (0.3 * np.sin(2 * np.pi * freq * t)).astype(np.float32)
            write_wav(tmp_path / f"clip{i}.wav", wav, 32000)
        lines = [json.dumps({"id": f"w{i}", "audio": f"clip{i}.wav",
                             "captions": [f"tone number {i}"]}) for i in range(2)]
        (tmp_path / "train.jsonl").write_text("\n".join(lines) + "\n")
        rc = run(["train", "--train-manifest", tmp_path / "train.jsonl",
                  "--out", tmp_path / "wavrun", "--fusion-mode", "audio_only",
                  "--d", 16, "--heads", 2, "--encoder-blocks", 1, "--decoder-blocks", 1,
                  "--dropout", 0.0, "--epochs", 1, "--warmup-epochs", 0,
                  "--lr", 1e-3, "--batch-size", 2, "--seed", 0])
        assert rc == EXIT_OK
        capsys.readouterr()

        write_wav(tmp_path / "silence.wav", np.zeros(32000, dtype=np.float32), 32000)
        rc = run(["infer", "--checkpoint", tmp_path / "wavrun" / "last.avck",
                  "--audio", tmp_path / "silence.wav", "--trace"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip(), "expected some caption"
        assert "no fusion trace" in out  # --trace on a non-fusion mode says so


class TestEarlierCheckpointHeaders:
    """A checkpoint whose header holds the MLP ratio, LayerNorm's epsilon and
    Adam's hyperparameters, and null for an augment that is off, as the header
    did before they became constants."""

    @pytest.fixture
    def checkpoints(self, dataset, tmp_path):
        """A one-epoch run's last.avck and a copy of it in the earlier form."""
        out = tmp_path / "run"
        assert run(train_args(dataset, out, **{"--epochs": 1})) == EXIT_OK
        earlier = tmp_path / "earlier.avck"
        earlier.write_bytes((out / "last.avck").read_bytes())
        write_earlier_header(earlier)
        return out / "last.avck", earlier

    @staticmethod
    def inputs(command, dataset) -> list:
        """The flags of ``command``'s inputs other than ``--checkpoint``."""
        if command == "eval":
            return ["--manifest", dataset / "eval.jsonl"]
        return ["--audio", dataset / "features" / "eval-00-000_audio.avf",
                "--visual", dataset / "features" / "eval-00-000_visual.avf"]

    def outputs(self, checkpoint, dataset, tmp_path, capsys) -> tuple[bytes, str]:
        """``checkpoint``'s eval candidates and infer output on the first clip."""
        candidates = tmp_path / f"{checkpoint.stem}.jsonl"
        assert run(["eval", "--checkpoint", checkpoint, "--candidates-out", candidates]
                   + self.inputs("eval", dataset)) == EXIT_OK
        capsys.readouterr()
        assert run(["infer", "--checkpoint", checkpoint]
                   + self.inputs("infer", dataset)) == EXIT_OK
        return candidates.read_bytes(), capsys.readouterr().out

    def test_earlier_form_evals_and_infers_the_same(self, checkpoints, dataset, tmp_path,
                                                   capsys):
        now, earlier = checkpoints
        assert (self.outputs(earlier, dataset, tmp_path, capsys)
                == self.outputs(now, dataset, tmp_path, capsys))

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("key, value, message", [
        ("mlp_ratio", 2.0, "config.mlp_ratio is fixed at 4.0, got 2.0"),
        ("adam_eps", 1e-6, "train_config.adam_eps is fixed at 1e-08, got 1e-06"),
    ])
    def test_retired_key_at_another_value_is_runtime_naming_it(
            self, checkpoints, dataset, tmp_path, capsys, command, key, value, message):
        now, _ = checkpoints
        earlier = tmp_path / "other.avck"
        earlier.write_bytes(now.read_bytes())
        write_earlier_header(earlier, **{key: value})
        capsys.readouterr()
        assert run([command, "--checkpoint", earlier] + self.inputs(command, dataset)) \
            == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: {earlier}: malformed checkpoint config or vocab: {message}\n")


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run(["gradcheck", "--coords-per-group", 2]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        assert "conf_fc" in out  # the confidence FC group is covered

    def test_near_threshold_without_exclusion_fails(self, capsys):
        rc = run(["gradcheck", "--coords-per-group", 2, "--near-threshold", "--no-exclusion"])
        assert rc == EXIT_RUNTIME
        assert "FAIL" in capsys.readouterr().out

    def test_near_threshold_with_exclusion_passes(self):
        assert run(["gradcheck", "--coords-per-group", 2, "--near-threshold"]) == EXIT_OK

    def test_seed_varies_errors_not_verdict(self):
        for seed in (0, 1, 2):
            assert run(["gradcheck", "--coords-per-group", 2, "--seed", seed]) == EXIT_OK

    def test_group_error_of_5e_5_fails_the_1e_5_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "gradcheck", lambda *args, **kwargs: 5e-5)
        assert run(["gradcheck", "--coords-per-group", 1]) == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "max_rel_err=5.000e-05 FAIL" in out
        assert out.endswith("worst group error: 5.000e-05\ngradcheck FAILED\n")

    def test_each_group_runs_the_block_once_per_probe(self, monkeypatch):
        """One block pass for the analytic gradient and two per probed
        coordinate, excluded ones included: the exclusion reads the fusion
        masks of the probes' own passes."""
        passes, per_group = [0], []
        block, check = model.decoder_block, numerics.gradcheck

        def counted_block(*args, **kwargs):
            passes[0] += 1
            return block(*args, **kwargs)

        def counted_check(*args, **kwargs):
            before = passes[0]
            err = check(*args, **kwargs)
            per_group.append(passes[0] - before)
            return err

        monkeypatch.setattr(model, "decoder_block", counted_block)
        monkeypatch.setattr(numerics, "gradcheck", counted_check)
        assert run(["gradcheck", "--coords-per-group", 2, "--near-threshold"]) == EXIT_OK
        assert per_group and set(per_group) == {1 + 2 * 2}

    def test_near_threshold_excludes_the_conf_fc_probes_that_flip_a_mask(self, capsys):
        assert run(["gradcheck", "--coords-per-group", 8, "--near-threshold"]) == EXIT_OK
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
                 if "max_rel_err=" in line}
        assert lines["decoder.0.conf_fc.weight"].endswith(" ok (excluded 4)")
        assert lines["decoder.0.conf_fc.bias"].endswith(" ok (excluded 5)")


class TestExitCodes:
    def test_unknown_flag_is_validation(self):
        assert run(["synth", "--nope"]) == EXIT_VALIDATION

    def test_missing_subcommand_is_validation(self):
        assert run([]) == EXIT_VALIDATION

    # (command, the flag or config key whose path is bad)
    INPUTS = [("train", "--config"), ("train", "--train-manifest"), ("train", "--val-manifest"),
              ("train", "train_manifest"), ("train", "val_manifest"), ("eval", "--checkpoint"),
              ("eval", "--manifest"), ("infer", "--checkpoint"), ("infer", "--audio"),
              ("infer", "--visual")]

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    @pytest.mark.parametrize("command, flag", INPUTS, ids=["-".join(c) for c in INPUTS])
    def test_missing_or_directory_input_is_validation_before_any_read(
            self, dataset, tmp_path, capsys, monkeypatch, command, flag, bad):
        """Every path a command reads is checked, naming the flag (or the
        config key that gave it), before a manifest or checkpoint is read."""
        def no_read(*args, **kwargs):
            raise AssertionError("read or trained")

        for module, name in ((model, "load_checkpoint"), (training, "fit"),
                             (data, "load_manifest")):
            monkeypatch.setattr(module, name, no_read)
        path = tmp_path / "bad"
        if bad == "directory":
            path.mkdir()
        out = tmp_path / "r"
        if command == "train":
            if flag == "--config":
                argv = ["train", "--config", path]
            elif flag.startswith("--"):
                argv = train_args(dataset, out, **{flag: path})
            else:  # the config file gives the path
                cfg = write_run_config(tmp_path, dataset / "train.jsonl")
                cfg.write_text(json.dumps({**json.loads(cfg.read_text()), flag: str(path)}))
                argv = ["train", "--config", cfg]
        else:
            manifest_path = ragged_manifest(tmp_path, clips=2)
            (tmp_path / "m.avck").write_bytes(b"not read")
            paths = ({"--checkpoint": tmp_path / "m.avck", "--manifest": manifest_path}
                     if command == "eval" else
                     {"--checkpoint": tmp_path / "m.avck", "--audio": tmp_path / "a0.avf",
                      "--visual": tmp_path / "v0.avf"})
            paths[flag] = path
            argv = [command] + [arg for pair in paths.items() for arg in pair]
        assert run(argv) == EXIT_VALIDATION
        problem = "does not exist" if bad == "missing" else "is a directory"
        assert capsys.readouterr() == ("", f"error: {flag} {path}: {problem}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--beam", 0], ["--beam", -1], ["--greedy", "--beam", 0]])
    def test_eval_beam_below_one_is_validation(self, tmp_path, capsys, flags):
        # rejected before the (missing) checkpoint is read, which would exit 2
        rc = run(["eval", "--checkpoint", tmp_path / "none.avck",
                  "--manifest", tmp_path / "none.jsonl", *flags])
        assert rc == EXIT_VALIDATION
        assert "--beam" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [40, 200])
    def test_truncated_checkpoint_is_runtime(self, tmp_path, capsys, keep):
        manifest_path = tone_manifest(tmp_path)
        ck = tmp_path / "ck.avck"
        untrained_checkpoint(ck, manifest_path)
        ck.write_bytes(ck.read_bytes()[:keep])
        rc = run(["eval", "--checkpoint", ck, "--manifest", manifest_path, "--greedy"])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: ")

    def test_tensor_entry_without_offset_is_runtime(self, tmp_path, capsys):
        manifest_path = tone_manifest(tmp_path)
        ck = tmp_path / "ck.avck"
        untrained_checkpoint(ck, manifest_path)
        rewrite_header(ck, lambda header: header["tensors"][0].pop("offset"))
        rc = run(["eval", "--checkpoint", ck, "--manifest", manifest_path, "--greedy"])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tensors entry 0" in err

    @pytest.mark.parametrize("key, value, message", [
        ("heads", 0, "heads must be >= 1, got 0"),
        ("d", "8", 'd must be int, got "8"'),
        ("dropout", None, "dropout must be float, got null"),
    ])
    def test_invalid_checkpoint_config_is_runtime_naming_it(self, tmp_path, capsys, key, value,
                                                            message):
        manifest_path = tone_manifest(tmp_path)
        ck = tmp_path / "ck.avck"
        untrained_checkpoint(ck, manifest_path)
        rewrite_header(ck, lambda header: header["config"].update({key: value}))
        rc = run(["eval", "--checkpoint", ck, "--manifest", manifest_path, "--greedy"])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: {ck}: malformed checkpoint config or vocab: {message}\n")

    # Each probe ended in a traceback, wrote a run directory first, or trained.
    @pytest.mark.parametrize("command, sections, flags, messages", [
        ("train", {}, ["--heads", 0], ["heads must be >= 1, got 0"]),
        # the MLP ratio, LayerNorm's epsilon and Adam's are constants, set by no run
        ("train", {"model": {"mlp_ratio": 0}}, [], ["{cfg}: unknown config key 'model.mlp_ratio'"]),
        ("train", {"train": {"seed": -1}}, [], ["{cfg}: train.seed must be >= 0, got -1"]),
        ("train", {"model": {"ln_eps": 0}}, [], ["{cfg}: unknown config key 'model.ln_eps'"]),
        ("train", {"train": {"adam_beta1": 1.5, "adam_eps": -1}}, [],
         ["{cfg}: unknown config key 'train.adam_beta1'",
          "{cfg}: unknown config key 'train.adam_eps'"]),
        ("train", {"train": {"adam_beta2": 1.0}}, [],
         ["{cfg}: unknown config key 'train.adam_beta2'"]),
        ("synth", {}, ["--seed", -1], ["seed must be >= 0, got -1"]),
    ], ids=["heads-flag", "mlp_ratio", "train-seed", "ln_eps", "adam_beta1-and-eps",
            "adam_beta2", "synth-seed"])
    def test_out_of_range_setting_is_validation_naming_it(self, dataset, tmp_path, capsys,
                                                          command, sections, flags, messages):
        cfg = write_run_config(tmp_path, dataset / "train.jsonl", **sections)
        argv = ["train", "--config", cfg] if command == "train" else ["synth", "--out", tmp_path / "r"]
        assert run(argv + flags) == EXIT_VALIDATION
        assert capsys.readouterr().err == "".join(f"error: {m.format(cfg=cfg)}\n" for m in messages)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("table, name", [("tensors", "out_proj.bias"),
                                             ("state_tensors", "v.out_proj.bias")])
    def test_non_finite_checkpoint_tensor_is_named(self, tmp_path, capsys, table, name):
        """A NaN in a parameter or a stored Adam moment is a format error
        naming the file and the tensor."""
        manifest_path = tone_manifest(tmp_path)
        ck = tmp_path / "ck.avck"
        untrained_checkpoint(ck, manifest_path)
        loaded = model.load_checkpoint(ck)
        moments = {f"{kind}.{n}": np.zeros(t.shape) for kind in "mv"
                   for n, t in model.named_parameters(loaded.params)}
        model.save_checkpoint(ck, loaded.params, loaded.config, loaded.vocab,
                              state_tensors=moments)
        raw = bytearray(ck.read_bytes())
        hlen = int.from_bytes(raw[8:16], "little")
        [entry] = [e for e in json.loads(raw[16:16 + hlen])[table] if e["name"] == name]
        at = 16 + hlen + entry["offset"]
        raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        ck.write_bytes(bytes(raw))
        rc = run(["eval", "--checkpoint", ck, "--manifest", manifest_path, "--greedy"])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {ck}: tensor {name!r} holds non-finite values\n"

    @pytest.mark.parametrize("fault", ["parameter-alias", "trailing-bytes", "vocabulary"])
    def test_checkpoint_index_or_vocabulary_fault_is_runtime_naming_it(self, tmp_path, capsys,
                                                                      fault):
        manifest_path = tone_manifest(tmp_path)
        ck = tmp_path / "ck.avck"
        untrained_checkpoint(ck, manifest_path)
        if fault == "parameter-alias":
            def alias(header):  # wk's entry points at wq's bytes
                entries = {e["name"]: e for e in header["tensors"]}
                entries["decoder.0.self_attn.wk"]["offset"] = (
                    entries["decoder.0.self_attn.wq"]["offset"])

            rewrite_header(ck, alias)
        elif fault == "trailing-bytes":
            ck.write_bytes(ck.read_bytes() + bytes(64))
        else:
            rewrite_header(ck, lambda header: header["vocab"].update(tokens=["a"]))
        for argv in (["eval", "--manifest", manifest_path, "--greedy"],
                     ["infer", "--audio", tmp_path / "tone.wav"]):
            assert run(argv + ["--checkpoint", ck]) == EXIT_RUNTIME
            assert capsys.readouterr().err.startswith(f"error: {ck}: ")

    def test_non_object_manifest_line_is_validation(self, tmp_path, capsys):
        manifest_path = tone_manifest(tmp_path)
        untrained_checkpoint(tmp_path / "ck.avck", manifest_path)
        with open(manifest_path, "a") as fh:
            fh.write("5\n")
        rc = run(["eval", "--checkpoint", tmp_path / "ck.avck", "--manifest", manifest_path])
        assert rc == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "\n  \n"])
    def test_empty_eval_manifest_is_validation_before_checkpoint_read(self, tmp_path, capsys,
                                                                      content):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(content)
        # the checkpoint is no checkpoint: reading it first would exit 2
        (tmp_path / "junk.avck").write_bytes(b"junk")
        rc = run(["eval", "--checkpoint", tmp_path / "junk.avck", "--manifest", empty,
                  "--report", tmp_path / "report.json",
                  "--candidates-out", tmp_path / "cands.jsonl"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {empty}: manifest has no records\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl", "junk.avck"]

    @pytest.mark.parametrize("which", ["--train-manifest", "--val-manifest"])
    def test_empty_train_manifest_is_validation_before_anything_is_written(
            self, dataset, tmp_path, capsys, which):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "run"
        rc = run(train_args(dataset, out, **{which: empty}))
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {empty}: manifest has no records\n"
        assert not out.exists()

    @pytest.mark.parametrize("val", ["wide", "no_visual"])
    def test_unreadable_val_clip_is_validation_before_anything_is_written(
            self, dataset, tmp_path, capsys, val):
        (tmp_path / val).mkdir()
        if val == "wide":
            assert run(synth_args(tmp_path / val) + ["--feature-dim", 16]) == EXIT_OK
            val_manifest, problem = tmp_path / val / "eval.jsonl", (
                "audio features have width 16, the model reads 8")
        else:
            val_manifest, problem = ragged_manifest(tmp_path / val, visual=False), (
                "fusion mode 'adaava_audio' reads visual features, and there are none")
        out = tmp_path / "run"
        rc = run(train_args(dataset, out, **{"--val-manifest": val_manifest}))
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {val_manifest}: clip ") and err.endswith(problem + "\n")
        assert not out.exists()

    @pytest.mark.parametrize("side", ["audio", "visual"])
    def test_eval_and_infer_feature_width_is_validation(self, tmp_path, capsys, side):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)  # reads 8-wide rows
        wide = tmp_path / f"{side[0]}1.avf"
        data.write_feature_file(wide, np.zeros((2, 16), np.float32))
        out = tmp_path / "cands.jsonl"
        rc = run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                  "--candidates-out", out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {manifest_path}: clip 'c1': {side} features "
                                           "have width 16, the model reads 8\n")
        assert not out.exists()
        rc = run(["infer", "--checkpoint", tmp_path / "m.avck", "--audio", tmp_path / "a1.avf",
                  "--visual", tmp_path / "v1.avf"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {wide}: {side} features have width 16, "
                                           "the model reads 8\n")

    @pytest.mark.parametrize("side", ["audio", "visual"])
    def test_clip_without_rows_is_validation_naming_it(self, dataset, tmp_path, capsys, side):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        empty = tmp_path / f"{side[0]}1.avf"
        data.write_feature_file(empty, np.zeros((0, 8), np.float32))
        problem = f"{side} features have no rows\n"
        out = tmp_path / "run"
        rc = run(train_args(dataset, out, **{"--train-manifest": manifest_path,
                                              "--fusion-mode": "concatenate"}))
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {manifest_path}: clip 'c1': {problem}"
        assert not out.exists()
        rc = run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {manifest_path}: clip 'c1': {problem}"
        rc = run(["infer", "--checkpoint", tmp_path / "m.avck", "--audio", tmp_path / "a1.avf",
                  "--visual", tmp_path / "v1.avf"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {empty}: {problem}"

    @pytest.mark.parametrize("side, value", [("audio", np.nan), ("visual", np.inf)])
    def test_train_clip_with_non_finite_rows_is_validation_naming_it(
            self, dataset, tmp_path, capsys, side, value):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        poison_rows(tmp_path / f"{side[0]}1.avf", value)
        out = tmp_path / "run"
        rc = run(train_args(dataset, out, **{"--train-manifest": manifest_path,
                                              "--fusion-mode": "concatenate"}))
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {manifest_path}: clip 'c1': {side} "
                                           "features hold NaN or Inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("side, value", [("audio", np.inf), ("visual", np.nan)])
    def test_eval_clip_with_non_finite_rows_is_validation_naming_it(
            self, tmp_path, capsys, side, value):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        peaked_checkpoint(tmp_path / "m.avck", manifest_path)
        poison_rows(tmp_path / f"{side[0]}1.avf", value)
        out = tmp_path / "cands.jsonl"
        rc = run(["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
                  "--candidates-out", out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {manifest_path}: clip 'c1': {side} "
                                           "features hold NaN or Inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("side", ["audio", "visual", "wav"])
    def test_infer_clip_with_non_finite_rows_is_validation_naming_it(
            self, tmp_path, capsys, side):
        if side == "wav":  # a float32 WAV: NaN samples reach the log-mel patches
            manifest_path = tone_manifest(tmp_path)
            untrained_checkpoint(tmp_path / "m.avck", manifest_path)
            t = np.arange(8000) / 32000.0
            samples = 0.3 * np.sin(2 * np.pi * 440.0 * t)
            samples[4000] = np.nan
            bad = tmp_path / "tone.wav"
            write_wav(bad, samples, 32000)
            argv = ["--audio", bad]
        else:
            manifest_path = ragged_manifest(tmp_path, clips=2)
            peaked_checkpoint(tmp_path / "m.avck", manifest_path)
            bad = tmp_path / f"{side[0]}1.avf"
            poison_rows(bad, np.nan)
            argv = ["--audio", tmp_path / "a1.avf", "--visual", tmp_path / "v1.avf"]
        rc = run(["infer", "--checkpoint", tmp_path / "m.avck", *argv])
        assert rc == EXIT_VALIDATION
        side = "audio" if side == "wav" else side
        assert capsys.readouterr().err == f"error: {bad}: {side} features hold NaN or Inf\n"

    def test_one_record_eval_is_validation_before_decoding(self, tmp_path, capsys):
        manifest_path = tone_manifest(tmp_path)
        untrained_checkpoint(tmp_path / "ck.avck", manifest_path)
        out = tmp_path / "cands.jsonl"
        rc = run(["eval", "--checkpoint", tmp_path / "ck.avck", "--manifest", manifest_path,
                  "--greedy", "--candidates-out", out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: {manifest_path}: CIDEr needs at least 2 "
                                           "records, the manifest has 1\n")
        assert not out.exists()

    def test_eval_candidates_out_in_missing_directory_is_validation_before_checkpoint_read(
            self, tmp_path, capsys):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        out = tmp_path / "missing" / "cands.jsonl"
        # the checkpoint is missing: reading it first would exit 2
        rc = run(["eval", "--checkpoint", tmp_path / "none.avck", "--manifest", manifest_path,
                  "--candidates-out", out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: --candidates-out {out}: directory "
                                           f"{out.parent} does not exist\n")

    def test_eval_report_in_missing_directory_is_validation_before_checkpoint_read(
            self, tmp_path, capsys):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        report = tmp_path / "missing" / "report.json"
        rc = run(["eval", "--checkpoint", tmp_path / "none.avck", "--manifest", manifest_path,
                  "--report", report])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: --report {report}: directory "
                                           f"{report.parent} does not exist\n")

    @pytest.mark.parametrize("flag, out", [("--candidates-out", "file/cands.jsonl"),
                                           ("--report", "file/sub/report.json")])
    def test_eval_output_path_under_a_file_is_validation_before_checkpoint_read(
            self, tmp_path, capsys, flag, out):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        afile = tmp_path / "file"
        afile.write_text("keep")
        # the checkpoint is missing: reading it first would exit 2
        rc = run(["eval", "--checkpoint", tmp_path / "none.avck", "--manifest", manifest_path,
                  flag, tmp_path / out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: {flag} {tmp_path / out}: {afile} is not a directory\n")
        assert afile.read_text() == "keep"

    @pytest.mark.parametrize("flag", ["--candidates-out", "--report"])
    def test_eval_output_path_that_is_a_directory_is_validation_before_checkpoint_read(
            self, tmp_path, capsys, flag):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        out = tmp_path / "out"
        out.mkdir()
        # the checkpoint is missing: reading it first would exit 2
        rc = run(["eval", "--checkpoint", tmp_path / "none.avck", "--manifest", manifest_path,
                  flag, out])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {flag} {out}: is a directory\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, other", [("--report", "--manifest"),
                                             ("--candidates-out", "--manifest"),
                                             ("--report", "--candidates-out"),
                                             ("--candidates-out", "--checkpoint")])
    def test_eval_output_at_an_input_or_the_other_output_is_validation_before_checkpoint_read(
            self, tmp_path, capsys, flag, other):
        manifest_path = ragged_manifest(tmp_path, clips=2)
        before = manifest_path.read_bytes()
        (tmp_path / "sub").mkdir()
        # the checkpoint is missing: reading it first would exit 2
        paths = {"--manifest": manifest_path, "--checkpoint": tmp_path / "none.avck",
                 "--candidates-out": tmp_path / "cands.jsonl"}
        paths[flag] = tmp_path / "sub" / ".." / paths[other].name  # the same file, spelled apart
        argv = ["eval"] + [arg for pair in paths.items() for arg in pair]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: {flag} {paths[flag]}: the same file as {other} {paths[other]}\n")
        assert manifest_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".avf") == [
            "ragged.jsonl", "sub"]

    @pytest.mark.parametrize("samples", [300, 600])  # too short to frame; frames < one patch
    def test_wav_too_short_is_runtime_naming_it(self, tmp_path, capsys, samples):
        manifest_path = tone_manifest(tmp_path)
        ck = tmp_path / "ck.avck"
        untrained_checkpoint(ck, manifest_path)
        wav = tmp_path / "tone.wav"
        write_wav(wav, np.full(samples, 0.1), 32000)
        for argv in (["eval", "--manifest", manifest_path], ["infer", "--audio", wav]):
            assert run(argv + ["--checkpoint", ck]) == EXIT_RUNTIME
            assert capsys.readouterr().err.startswith(f"error: {wav}: ")

    def test_infer_beam_below_one_is_validation(self, tmp_path, capsys):
        rc = run(["infer", "--checkpoint", tmp_path / "none.avck",
                  "--audio", tmp_path / "none.wav", "--beam", 0])
        assert rc == EXIT_VALIDATION
        assert "--beam" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# whole-or-nothing writes
# ---------------------------------------------------------------------------


class TornFile(io.FileIO):
    """A file whose every write stores the first half of its bytes and raises."""

    def write(self, b):
        view = memoryview(b).cast("B")
        super().write(view[:len(view) // 2])
        raise OSError("injected write failure")


def write_site(tmp_path, site) -> tuple[list, Path, int]:
    """The argv of a command that writes ``site``'s file, that file, and which
    of the command's writes to it is to fail.  No command writes over a
    manifest or ``resolved_config.json``, so synth's first write of one fails;
    train's second epoch writes over its first epoch's checkpoint; and eval
    writes over candidates and report files that hold a previous version."""
    if site in ("manifest", "resolved_config.json"):
        task = tmp_path / "task"
        return synth_args(task), task / ("train.jsonl" if site == "manifest" else site), 1
    if site == "checkpoint":
        task, out = tmp_path / "task", tmp_path / "run"
        assert run(synth_args(task)) == EXIT_OK
        return train_args(task, out, **{"--epochs": 2}), out / "last.avck", 2
    manifest_path = ragged_manifest(tmp_path, clips=2)
    peaked_checkpoint(tmp_path / "m.avck", manifest_path)
    for name in ("cands.jsonl", "report.json"):
        (tmp_path / name).write_text("previous\n")
    argv = ["eval", "--checkpoint", tmp_path / "m.avck", "--manifest", manifest_path,
            "--candidates-out", tmp_path / "cands.jsonl", "--report", tmp_path / "report.json"]
    return argv, tmp_path / ("cands.jsonl" if site == "candidates" else "report.json"), 1


@pytest.mark.parametrize("fault", ["fsync", "write"])
@pytest.mark.parametrize("site", ["resolved_config.json", "candidates", "report", "manifest",
                                  "checkpoint"])
def test_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(
        tmp_path, capsys, monkeypatch, site, fault):
    """The write that fails leaves its file as it was before that write,
    absent where it is the file's first, and no temp file."""
    argv, target, failing = write_site(tmp_path, site)
    tmp = Path(f"{target}.tmp")
    writes, before = [], []

    def fails_now() -> bool:  # once per write of ``target``
        writes.append(target)
        if len(writes) != failing:
            return False
        before.append(target.read_bytes() if target.exists() else None)
        return True

    if fault == "fsync":
        fsync = os.fsync

        def failing_fsync(fd):
            if tmp.exists() and os.path.samestat(os.fstat(fd), tmp.stat()) and fails_now():
                raise OSError("injected fsync failure")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
    else:
        def tearing_open(file, mode="r", *args, **kwargs):
            if Path(file) == tmp and fails_now():
                return TornFile(file, mode)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(data, "open", tearing_open, raising=False)
    capsys.readouterr()
    assert run(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: injected {fault} failure\n"
    assert before == [target.read_bytes() if target.exists() else None]
    assert (before[0] is None) == (site in ("manifest", "resolved_config.json"))
    assert not tmp.exists()


# The writes that are not whole-or-nothing, each by (module, function, mode):
# an AVF1 feature file, which the reader rejects when torn by its declared size
# and of which a synth writes hundreds; the metrics log, which training appends
# to step by step; and the run directory's lock file, which holds its owner's pid.
PLAIN_WRITES = {("data", "write_feature_file", "wb"), ("training", "fit", "a"),
                ("cli", "_DirLock.__enter__", "os.open")}


def _write_mode(call: ast.Call) -> str | None:
    """How ``call`` writes a file: its open mode, ``os.open``, ``write_text``
    or ``write_bytes``; None if it does not.  A mode that is not a literal
    counts as a write."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return name
    if name != "open":
        return None
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        flags = {n.attr for arg in call.args[1:2] for n in ast.walk(arg)
                 if isinstance(n, ast.Attribute)}
        return "os.open" if flags & {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND"} else None
    # open(file, mode) or path.open(mode)
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return None
    if not (isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)):
        return "?"
    return modes[0].value if set(modes[0].value) & set("wax+") else None


def test_every_file_write_is_whole_or_nothing_or_named_as_plain():
    """Only ``data.write_whole`` and the :data:`PLAIN_WRITES` open a file to
    write, or call ``write_text`` or ``write_bytes``, in ``src/avfuse``."""
    found = set()

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and (mode := _write_mode(child)):
                found.add((module, ".".join(scope), mode))
            visit(module, child, scope)

    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(source.stem, ast.parse(source.read_text(encoding="utf-8")), [])
    assert found == {("data", "write_whole", "wb")} | PLAIN_WRITES


# ---------------------------------------------------------------------------
# random run configs
# ---------------------------------------------------------------------------

# Small JSON values of every type.  Integers and finite floats stay small, so
# that a valid width or epoch count trains in milliseconds: no setting's range
# has an upper bound, and a huge width meets a memory limit, not a config check.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-2.0, 8.0)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=3)


def _setting_values(section, key):
    """Values for one run-config setting: often of its declared kind, and any
    small JSON value.  A run lasts at most one epoch, and a run directory (a
    ("work", name) marker) lies in the example's own directory."""
    declared = {f.name: f for f in dataclasses.fields(cli._SECTIONS[section])}[key].metadata
    kind, within = declared.get("kind"), declared.get("within")
    values = JSON_VALUES | (st.sampled_from(within) if isinstance(within, tuple)
                            else st.integers(0, 4) if kind is int
                            else st.floats(0.0, 1.0) if kind is float else st.nothing())
    if key == "epochs":
        return values.map(lambda v: min(v, 1) if type(v) is int else v)
    if key == "out_dir":
        return (JSON_VALUES.filter(lambda v: not isinstance(v, str))
                | st.text(alphabet="ab\0", max_size=2).map(lambda t: ("work", "r" + t)))
    if key.endswith("manifest"):
        return values | st.sampled_from([("task", "train.jsonl"), ("task", "eval.jsonl")])
    return values


RUN_SETTINGS = [(section, f.name) for section, cls in cli._SECTIONS.items()
                for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
RUN_OVERRIDES = st.lists(st.sampled_from(RUN_SETTINGS).flatmap(
    lambda where: st.tuples(st.just(where), _setting_values(*where))), max_size=3)


@pytest.fixture(scope="module")
def tiny_task(tmp_path_factory):
    spec = data.SyntheticTaskSpec(n_classes=2, n_ambiguous_pairs=1, feature_dim=8,
                                  noise_std=0.05, examples_per_class=4,
                                  eval_examples_per_class=2, t_audio=4, t_visual=2)
    return data.generate_synthetic_task(spec, tmp_path_factory.mktemp("tiny-task"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(overrides=RUN_OVERRIDES)
def test_random_run_config_exits_cleanly(tiny_task, tmp_path_factory, overrides):
    """A run config with up to three settings drawn at random exits 0, 1 or
    2 and prints no warning.  A failure prints only ``error:`` lines, and
    exit 1 writes nothing."""
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    dirs = {"work": work, "task": tiny_task.train_manifest.parent}
    cfg = {"train_manifest": str(tiny_task.train_manifest),
           "val_manifest": str(tiny_task.eval_manifest), "out_dir": str(work / "r"),
           "model": {"d": 8, "heads": 2, "encoder_blocks": 1, "decoder_blocks": 1,
                     "dropout": 0.0},
           "train": {"epochs": 1, "warmup_epochs": 0, "batch_size": 4}}
    for (section, key), value in overrides:
        if isinstance(value, tuple):
            value = str(dirs[value[0]] / value[1])
        (cfg if section is None else cfg[section])[key] = value
    path = work / "cfg.json"
    path.write_text(json.dumps(cfg))
    if exits_cleanly(["train", "--config", path])[0] == EXIT_VALIDATION:
        assert os.listdir(work) == ["cfg.json"]


# ---------------------------------------------------------------------------
# random input files
# ---------------------------------------------------------------------------

# Each reader fuzz runs ``avfuse train --epochs 0`` on a manifest over the
# drawn bytes, so that the width read, the example load and the input checks
# all meet them.
FILE_FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def fuzz_train(work, manifest_lines: list[bytes], mode: str) -> tuple[int, str]:
    """Write ``manifest_lines`` as ``work/m.jsonl``, train on it for zero
    epochs into ``work/r`` with ``exits_cleanly``, and return the exit code
    and stderr; exit 1 writes nothing."""
    manifest = work / "m.jsonl"
    manifest.write_bytes(b"\n".join(manifest_lines) + b"\n")
    code, err = exits_cleanly(["train", "--train-manifest", manifest, "--out", work / "r",
                               "--fusion-mode", mode, "--d", 8, "--heads", 2,
                               "--encoder-blocks", 1, "--decoder-blocks", 1, "--epochs", 0])
    if code == EXIT_VALIDATION:
        assert not (work / "r").exists()
    event(f"exit {code}")
    return code, err


def record_line(audio, visual=None, id="x", caption="a dog barks") -> bytes:
    rec = {"id": id, "audio": str(audio), "captions": [caption]}
    if visual is not None:
        rec["visual_features"] = str(visual)
    return json.dumps(rec).encode()


@pytest.fixture(scope="module")
def fuzz_inputs(tiny_task, tmp_path_factory):
    """An audio and a visual AVF1 file of the tiny task, and a 0.125 s PCM16
    tone: the files that the fuzzed manifests point at."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    t = np.arange(4000) / 32000.0
    tone = np.round(0.3 * np.sin(2 * np.pi * 440.0 * t) * 32767).astype(np.int16)
    wavfile.write(root / "tone.wav", 32000, tone)
    features = tiny_task.train_manifest.parent / "features"
    return {"audio": features / "train-00-000_audio.avf",
            "visual": features / "train-00-000_visual.avf", "wav": root / "tone.wav"}


def work_dir(tmp_path_factory) -> Path:
    return Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))


def drawn_lines(files):
    """A manifest line drawn at random: a record with fields drawn from
    ``files``, missing files, the manifest's own directory and small JSON
    values; a record missing fields; any small JSON value; a blank line; or
    raw bytes."""
    paths = st.sampled_from([str(f) for f in files] + ["missing.avf", "", "."]) | JSON_VALUES
    record = st.fixed_dictionaries(
        {"id": st.text(max_size=2) | JSON_VALUES, "audio": paths,
         "captions": st.lists(st.text(max_size=12) | JSON_VALUES, max_size=6) | JSON_VALUES},
        optional={"visual_features": paths})
    partial = st.dictionaries(st.sampled_from(["id", "audio", "captions", "visual_features"]),
                              paths, max_size=3)
    return ((record | partial | JSON_VALUES).map(lambda v: json.dumps(v).encode())
            | st.sampled_from([b"", b"  \t"]) | st.binary(max_size=12))


@st.composite
def manifest_lines(draw, inputs):
    """One to four manifest lines, each a well-formed record over ``inputs``
    or a line of :func:`drawn_lines`."""
    lines = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            audio = draw(st.sampled_from([inputs["audio"], inputs["wav"]]))
            visual = draw(st.sampled_from([None, inputs["visual"]]))
            caption = draw(st.text(max_size=12))
            lines.append(record_line(audio, visual, id=f"r{i}", caption=caption))
        else:
            lines.append(draw(drawn_lines(inputs.values())))
    return lines


@FILE_FUZZ
@given(data_=st.data(), mode=st.sampled_from(model.FUSION_MODES))
def test_random_manifest_lines_exit_cleanly(fuzz_inputs, tmp_path_factory, data_, mode):
    fuzz_train(work_dir(tmp_path_factory), data_.draw(manifest_lines(fuzz_inputs)), mode)


DIMS = st.integers(0, 3) | st.sampled_from([2**16, 2**31, 2**32 - 1])


@st.composite
def avf1_bytes(draw):
    """A well-formed AVF1 file of 8-wide rows, the tiny task's width, with
    up to two of its header fields or lengths redrawn: the magic, T and d
    (each small or past any payload), the dtype code, the header's length,
    or the payload's length by a few bytes."""
    fields = {"magic": data.FEATURE_MAGIC, "t": draw(st.integers(0, 3)), "d": 8, "code": 0}
    payload = np.ones((fields["t"], 8), "<f4").tobytes()
    header_len, extra = 13, 0
    changes = st.one_of(
        st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4)),
        st.tuples(st.just("shape"), st.tuples(DIMS, DIMS)),
        st.tuples(st.just("code"), st.integers(0, 255)),
        st.tuples(st.just("header_len"), st.integers(0, 12)),
        st.tuples(st.just("extra"), st.integers(-4, 4)))
    for key, value in draw(st.lists(changes, max_size=2)):
        if key == "header_len":
            header_len = value
        elif key == "extra":
            extra = value
        elif key == "shape":
            fields["t"], fields["d"] = value
        else:
            fields[key] = value
    header = struct.pack("<4sIIB", *fields.values())[:header_len]
    return header + payload[:len(payload) + extra] + bytes(max(extra, 0))


@FILE_FUZZ
@given(raw=avf1_bytes(), mode=st.sampled_from(model.FUSION_MODES))
def test_random_avf1_headers_exit_cleanly(fuzz_inputs, tmp_path_factory, raw, mode):
    """The drawn file is the first clip's audio and visual features, whose
    widths the run takes, and a second clip is well formed.  A runtime error
    names the file."""
    work = work_dir(tmp_path_factory)
    (work / "x.avf").write_bytes(raw)
    code, err = fuzz_train(work, [record_line(work / "x.avf", work / "x.avf", id="x"),
                                  record_line(fuzz_inputs["audio"], fuzz_inputs["visual"],
                                              id="y")], mode)
    if code == EXIT_RUNTIME:
        assert f"error: {work / 'x.avf'}: " in err


@st.composite
def wav_bytes(draw, base: bytes):
    """``base`` with up to two changes drawn: one byte of its 44-byte
    header, one of its 4-byte header fields (small, large or any), or its
    length."""
    raw = bytearray(base)
    changes = st.one_of(
        st.tuples(st.just(1), st.integers(0, 43), st.integers(0, 255)),
        st.tuples(st.just(4), st.sampled_from(range(4, 44, 4)),
                  st.sampled_from([0, 1, 2, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)),
        st.tuples(st.just(0), st.integers(0, len(base)), st.just(0)))
    length = len(raw)
    for width, offset, value in draw(st.lists(changes, max_size=2)):
        if width == 0:
            length = offset
        else:
            raw[offset:offset + width] = value.to_bytes(width, "little")
    return bytes(raw[:length])


@FILE_FUZZ
@given(data_=st.data())
def test_random_wav_headers_exit_cleanly(fuzz_inputs, tmp_path_factory, data_):
    """The drawn WAV is the one clip's audio, whose width the run takes."""
    work = work_dir(tmp_path_factory)
    (work / "x.wav").write_bytes(data_.draw(wav_bytes(fuzz_inputs["wav"].read_bytes())))
    fuzz_train(work, [record_line(work / "x.wav")], "audio_only")

