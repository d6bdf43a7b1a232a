import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adapterkit import package_io
from adapterkit.backbone import ModelConfig, init_backbone
from adapterkit.cli import (_model_config, build_parser, main, read_labels, read_sequences, write_labels,
                            write_sequences)
from adapterkit.manager import AdapterModel
from adapterkit.training import ToyTask, TrainConfig
from conftest import negative_size_package, reheader

TINY_FLAGS = ["--hidden-size", "8", "--layers", "1", "--heads", "2",
              "--ffn-size", "16", "--vocab-size", "64", "--max-seq-len", "8"]


def _train(tmp_path, capsys, mode="adapter_only", steps="30", extra=()):
    out_dir = tmp_path / f"train-{mode}"
    args = ["train", "--task", "copy-first-label", "--mode", mode,
            "--steps", steps, "--seq-len", "6", "--train-size", "64",
            "--dev-size", "16", "--out-dir", str(out_dir), *TINY_FLAGS, *extra]
    if mode == "adapter_only":
        args += ["--adapter-name", "copycat", "--reduction-factor", "2"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return out_dir, json.loads(captured.out)


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train", "--task", "copy-first-label", "--out-dir", "/tmp/x"]) == 1
    assert main(["run", "--checkpoint", "x", "--inputs", "y"]) == 1  # no source
    assert main(["run", "--checkpoint", "x", "--inputs", "y",
                 "--package", "p", "--archive", "a"]) == 1  # two sources
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_train_defaults_come_from_the_configs():
    args = build_parser().parse_args(["train", "--task", "copy-first-label", "--out-dir", "x"])
    assert _model_config(args) == ModelConfig()
    defaults = TrainConfig()
    assert (args.mode, args.steps, args.batch_size, args.lr) == (
        defaults.mode, defaults.max_steps, defaults.batch_size, defaults.learning_rate)
    task = ToyTask("copy-first-label", seed=0)
    train_seqs, _, dev_seqs, _ = task.datasets()
    assert (args.seq_len, args.train_size, args.dev_size) == (task.seq_len, len(train_seqs), len(dev_seqs))


def test_sequence_and_label_files_round_trip(tmp_path):
    seqs = [[1, 2, 3], [7], [0, 5]]
    labels = [0, 1, 1]
    write_sequences(tmp_path / "s.txt", seqs)
    write_labels(tmp_path / "l.txt", labels)
    assert read_sequences(tmp_path / "s.txt") == seqs
    assert read_labels(tmp_path / "l.txt") == labels


def test_lifecycle_chain(tmp_path, capsys):
    """train -> validate -> run -> pack -> index -> explore -> search -> run."""
    out_dir, train_payload = _train(tmp_path, capsys)
    ckpt = out_dir / "backbone.ckpt"
    pkg = out_dir / "copycat.pkg"
    inputs = out_dir / "dev_inputs.txt"
    labels = out_dir / "dev_labels.txt"
    for artifact in (ckpt, pkg, inputs, labels):
        assert artifact.exists()
    assert train_payload["adapter"]["name"] == "copycat"

    # validate, including compatibility with the checkpoint it came from
    assert main(["validate", "--package", str(pkg), "--checkpoint", str(ckpt)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["compatible_with_checkpoint"]
    assert report["has_head"]
    assert report["bytes_per_param"] == 4.0

    # run with gold labels reproduces the train-time dev accuracy exactly
    assert main(["run", "--checkpoint", str(ckpt), "--package", str(pkg),
                 "--inputs", str(inputs), "--labels", str(labels)]) == 0
    run_metrics = json.loads(capsys.readouterr().out)
    assert run_metrics["accuracy"] == train_payload["dev"]["accuracy"]
    assert run_metrics["loss"] == train_payload["dev"]["loss"]

    # run without labels emits one prediction per input line
    assert main(["run", "--checkpoint", str(ckpt), "--package", str(pkg),
                 "--inputs", str(inputs)]) == 0
    predictions = capsys.readouterr().out.splitlines()
    assert len(predictions) == len(read_sequences(inputs))
    assert set(predictions) <= {"0", "1"}

    # pack into a shareable archive plus hub card
    archive = tmp_path / "copycat.zip"
    card = tmp_path / "copycat.yaml"
    assert main(["pack", "--package", str(pkg), "--out", str(archive),
                 "--adapter-id", "copycat", "--level2", "toy", "--level3", "copy",
                 "--card", str(card), "--author", "someone"]) == 0
    pack_payload = json.loads(capsys.readouterr().out)
    assert len(pack_payload["sha256"]) == 64
    assert pack_payload["card"]["preset"] == "pfeiffer"
    assert archive.exists() and card.exists()

    # index the card and explore the hierarchy
    index = tmp_path / "index.json"
    assert main(["index", "--cards", str(card), "--out", str(index)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 1
    assert main(["explore", "--index", str(index)]) == 0
    tree = capsys.readouterr().out
    assert "text_task" in tree and "  toy" in tree and "copy: copycat" in tree

    # search resolves, fetches into the cache, and is a cache hit on repeat
    cache = tmp_path / "cache"
    assert main(["search", "--index", str(index), "--query", "copy",
                 "--checkpoint", str(ckpt), "--fetch", "--cache-dir", str(cache)]) == 0
    hit1 = json.loads(capsys.readouterr().out)
    assert hit1["downloaded"] and hit1["entry"]["adapter_id"] == "copycat"
    assert main(["search", "--index", str(index), "--query", "copy",
                 "--checkpoint", str(ckpt), "--fetch", "--cache-dir", str(cache)]) == 0
    hit2 = json.loads(capsys.readouterr().out)
    assert not hit2["downloaded"]

    # running from the archive matches running from the bare package
    assert main(["run", "--checkpoint", str(ckpt), "--archive", hit2["local_path"],
                 "--inputs", str(inputs), "--labels", str(labels)]) == 0
    archive_metrics = json.loads(capsys.readouterr().out)
    assert archive_metrics == run_metrics


def test_full_finetune_train(tmp_path, capsys):
    out_dir, payload = _train(tmp_path, capsys, mode="full_finetune", steps="5")
    assert payload["mode"] == "full_finetune"
    assert "package" not in payload["artifacts"]
    assert "accuracy" in payload["dev"]


def test_train_rejects_non_finite_learning_rate_before_writing(tmp_path, capsys):
    for name, flags, message in (
            ("nan", ["--lr", "nan"], "learning_rate must be finite"),
            ("inf", ["--lr", "inf"], "learning_rate must be finite"),
            ("seq-len", ["--seq-len", "3"], "seq_len must be"),
            ("train-size", ["--train-size", "3"], "split sizes must be"),
            ("dev-size", ["--dev-size", "5"], "split sizes must be"),
            ("reduction-factor", ["--reduction-factor", "0"], "reduction_factor"),
            ("full-finetune-name", ["--mode", "full_finetune", "--seq-len", "6"],
             "adapter_name must be None")):
        out_dir = tmp_path / name
        assert main(["train", "--task", "copy-first-label", "--adapter-name", "a", "--steps", "1",
                     *flags, "--out-dir", str(out_dir), *TINY_FLAGS]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


def test_validate_detects_corruption_and_incompatibility(tmp_path, capsys):
    out_dir, _ = _train(tmp_path, capsys, steps="2")
    pkg = out_dir / "copycat.pkg"

    data = bytearray(pkg.read_bytes())
    data[len(data) // 2] ^= 0xFF
    broken = tmp_path / "broken.pkg"
    broken.write_bytes(bytes(data))
    assert main(["validate", "--package", str(broken)]) == 2
    assert "error:" in capsys.readouterr().err

    body = bytearray(pkg.read_bytes()[:-32])
    body[16] = 0xFF  # header text is no longer UTF-8, but the trailing digest is valid
    resealed = tmp_path / "header.pkg"
    resealed.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
    assert main(["validate", "--package", str(resealed)]) == 2
    assert "error:" in capsys.readouterr().err

    negative = tmp_path / "negative.pkg"
    negative.write_bytes(negative_size_package(tmp_path))
    assert main(["validate", "--package", str(negative)]) == 2
    assert "head_num_labels" in capsys.readouterr().err

    # resealed identity fields the registry would refuse: both validate and run refuse them
    for field, value in (("adapter_type", "text_image"), ("name", "a b"), ("head_name", "c/s")):
        bad = tmp_path / f"{field}.pkg"
        bad.write_bytes(reheader(pkg.read_bytes(), **{field: value}))
        assert main(["validate", "--package", str(bad)]) == 2, field
        assert main(["run", "--checkpoint", str(out_dir / "backbone.ckpt"), "--package", str(bad),
                     "--inputs", str(out_dir / "dev_inputs.txt")]) == 2, field
        assert "error:" in capsys.readouterr().err

    other_config = ModelConfig(hidden_size=16, num_layers=1, num_heads=2,
                               ffn_size=32, vocab_size=64, max_seq_len=8)
    other_ckpt = tmp_path / "other.ckpt"
    package_io.save_backbone_checkpoint(other_ckpt, other_config,
                                        init_backbone(other_config, np.random.default_rng(0)))
    assert main(["validate", "--package", str(pkg), "--checkpoint", str(other_ckpt)]) == 2
    assert "error:" in capsys.readouterr().err


def test_index_rejects_bad_cards_with_file_context(tmp_path, capsys):
    cards = tmp_path / "cards"
    cards.mkdir()
    good = cards / "good.yaml"
    good.write_text(
        "adapter_id: sst-2\nadapter_type: text_task\nlevel2: sentiment\n"
        "level3: sst-2\nmodel_type: mini-bert\n"
        f"model_config_hash: {'a' * 64}\nadapter_config_hash: {'b' * 64}\n"
        "url: file:///tmp/a.zip\n"
        f"sha256: {'c' * 64}\n", encoding="utf-8")
    assert main(["index", "--cards", str(cards), "--out", str(tmp_path / "i.json")]) == 0
    capsys.readouterr()

    bad = cards / "bad.yaml"
    bad.write_text("adapter_id: NOPE!\n", encoding="utf-8")
    assert main(["index", "--cards", str(cards), "--out", str(tmp_path / "i2.json")]) == 2
    err = capsys.readouterr().err
    assert "bad.yaml" in err and "invalid metadata" in err
    bad.write_bytes(b"adapter_id: caf\xe9\n")  # latin-1, not UTF-8
    assert main(["index", "--cards", str(cards), "--out", str(tmp_path / "i2.json")]) == 2
    err = capsys.readouterr().err
    assert f"invalid metadata: {bad}: not UTF-8 text" in err
    bad.write_text("1: 2\nfoo: 3\n", encoding="utf-8")  # an int key beside a string key
    assert main(["index", "--cards", str(bad), "--out", str(tmp_path / "i2.json")]) == 2
    assert "unknown field 1" in capsys.readouterr().err
    empty = tmp_path / "void"
    empty.mkdir()
    assert main(["index", "--cards", str(empty),
                 "--out", str(tmp_path / "i3.json")]) == 2  # dir with no cards
    assert main(["index", "--cards", str(tmp_path / "nowhere.yaml"),
                 "--out", str(tmp_path / "i4.json")]) == 3  # missing file is I/O
    capsys.readouterr()


def _write_card(cards, name):
    (cards / f"{name}.yaml").write_text(
        f"adapter_id: {name}\nadapter_type: text_task\nlevel2: toy\n"
        f"level3: {name}\nmodel_type: mini-bert\n"
        f"model_config_hash: {'a' * 64}\nadapter_config_hash: {'b' * 64}\n"
        f"url: file:///tmp/{name}.zip\nsha256: {'c' * 64}\n", encoding="utf-8")


def test_index_and_card_outputs_survive_a_failed_write(tmp_path, capsys, monkeypatch, tiny_config):
    cards = tmp_path / "cards"
    cards.mkdir()
    out = tmp_path / "index.json"

    _write_card(cards, "sst-2")
    assert main(["index", "--cards", str(cards), "--out", str(out)]) == 0
    index = out.read_bytes()
    _write_card(cards, "sts-b")  # the refused index would list both cards
    model = AdapterModel(tiny_config, seed=1)
    model.add_adapter("probe", reduction_factor=2)
    model.save_adapter("probe", tmp_path / "probe.pkg")
    card = tmp_path / "card.yaml"
    card.write_bytes(b"kept")

    replace = os.replace

    def refuse(src, dst):  # as if the disk filled up before the rename
        if Path(dst).name in ("index.json", "card.yaml"):
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["index", "--cards", str(cards), "--out", str(out)]) == 3
    assert main(["pack", "--package", str(tmp_path / "probe.pkg"), "--out", str(tmp_path / "probe.zip"),
                 "--adapter-id", "probe", "--level2", "toy", "--level3", "probe",
                 "--card", str(card)]) == 3
    capsys.readouterr()
    assert out.read_bytes() == index and card.read_bytes() == b"kept"
    assert not list(tmp_path.glob("*.tmp-*"))


def test_index_output_survives_a_failed_preallocation(tmp_path, capsys, monkeypatch):
    cards = tmp_path / "cards"
    cards.mkdir()
    out = tmp_path / "index.json"
    _write_card(cards, "sst-2")
    assert main(["index", "--cards", str(cards), "--out", str(out)]) == 0
    index = out.read_bytes()
    _write_card(cards, "sts-b")

    def no_space(fd, offset, size):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", no_space)
    assert main(["index", "--cards", str(cards), "--out", str(out)]) == 3
    capsys.readouterr()
    assert out.read_bytes() == index
    assert not list(tmp_path.glob("*.tmp-*"))


def test_search_failure_modes(tmp_path, capsys):
    cards = tmp_path / "cards"
    cards.mkdir()
    for name, l2 in (("sst-2", "sentiment"), ("sts-b", "similarity")):
        (cards / f"{name}.yaml").write_text(
            f"adapter_id: {name}\nadapter_type: text_task\nlevel2: {l2}\n"
            f"level3: {name}\nmodel_type: mini-bert\n"
            f"model_config_hash: {'a' * 64}\nadapter_config_hash: {'b' * 64}\n"
            f"url: file:///tmp/{name}.zip\nsha256: {'c' * 64}\n", encoding="utf-8")
    index = tmp_path / "index.json"
    assert main(["index", "--cards", str(cards), "--out", str(index)]) == 0
    capsys.readouterr()

    assert main(["search", "--index", str(index), "--query", "s",
                 "--model-config-hash", "a" * 64]) == 2  # ambiguous
    assert "sst-2" in capsys.readouterr().err
    assert main(["search", "--index", str(index), "--query", "mnli",
                 "--model-config-hash", "a" * 64]) == 2  # no match
    assert main(["search", "--index", str(index), "--query", "sst",
                 "--model-config-hash", "f" * 64]) == 2  # incompatible
    err = capsys.readouterr().err
    assert "other backbones" in err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(index.read_bytes().replace(b"sst-2", b"sst-\xe9"))
    assert main(["explore", "--index", str(latin1)]) == 2
    assert main(["search", "--index", str(latin1), "--query", "sst"]) == 2
    assert capsys.readouterr().err.count(f"{latin1}: not UTF-8 text") == 2
    # the advertised archive does not exist: transport failure
    assert main(["search", "--index", str(index), "--query", "sst",
                 "--model-config-hash", "a" * 64, "--fetch",
                 "--cache-dir", str(tmp_path / "cache")]) == 3
    capsys.readouterr()


def test_pack_refuses_a_card_before_writing(tmp_path, capsys, tiny_config):
    model = AdapterModel(tiny_config, seed=1)
    model.add_adapter("probe", reduction_factor=2)
    pkg = tmp_path / "probe.pkg"
    model.save_adapter("probe", pkg)
    out = tmp_path / "probe.zip"
    out.write_bytes(b"kept")  # a refused card leaves --out as it was
    for flags, fault in ((["--adapter-id", "Bad ID"], "adapter_id"),
                         (["--adapter-id", "probe", "--url", "ftp://x/y.zip"], "url scheme")):
        assert main(["pack", "--package", str(pkg), "--out", str(out), "--level2", "toy",
                     "--level3", "probe", *flags]) == 2
        assert fault in capsys.readouterr().err
        assert out.read_bytes() == b"kept"


def test_run_rejects_unreadable_archive_metadata(tmp_path, capsys):
    out_dir, _ = _train(tmp_path, capsys, steps="2")
    archive = tmp_path / "bad.zip"
    data = (out_dir / "copycat.pkg").read_bytes()
    archive.write_bytes(package_io._archive_bytes(data, package_io.parse_adapter_package(data),
                                                  b"a: [unclosed"))
    assert main(["run", "--checkpoint", str(out_dir / "backbone.ckpt"), "--archive", str(archive),
                 "--inputs", str(out_dir / "dev_inputs.txt")]) == 2
    assert "unreadable archive: ParserError" in capsys.readouterr().err
    inputs = tmp_path / "inputs.txt"
    inputs.write_bytes(b"1 2\n\xff\xfe\n")
    assert main(["run", "--checkpoint", str(out_dir / "backbone.ckpt"),
                 "--package", str(out_dir / "copycat.pkg"), "--inputs", str(inputs)]) == 2
    assert f"error: {inputs}: not UTF-8 text" in capsys.readouterr().err


def test_run_io_failures(tmp_path, capsys):
    assert main(["run", "--checkpoint", str(tmp_path / "no.ckpt"),
                 "--package", str(tmp_path / "no.pkg"),
                 "--inputs", str(tmp_path / "no.txt")]) == 3
    capsys.readouterr()


_ROOT = Path(__file__).resolve().parents[1]


def _console_script_target():
    """(module, function) of the ``adapterkit`` script in pyproject.toml, read without tomllib."""
    text = (_ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^adapterkit\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert match, "pyproject.toml declares no adapterkit console script"
    return match.groups()


def test_console_script_is_wired():
    exe = shutil.which("adapterkit")
    if exe is not None:
        cmd, env = [exe, "--help"], None
    else:  # not installed: call the declared entry point the way the script would
        module, function = _console_script_target()
        cmd = [sys.executable, "-c", f"import sys; from {module} import {function}; sys.exit({function}())",
               "--help"]
        env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "train" in proc.stdout


def test_module_entry_runs():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "adapterkit.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "train" in proc.stdout
