"""Command line interface for the whole adapter lifecycle.

Commands: train, run, pack, validate, index, explore, search. Results go
to stdout as JSON (or plain prediction lines); diagnostics go to stderr.

Exit codes are stable: 0 success, 1 usage problems, 2 validation or
compatibility failures (bad metadata, corrupt packages, undecodable input
files, unresolvable queries), 3 I/O and network failures.
"""

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import hub, package_io, training
from .adapters import ADAPTER_TYPES, PRESET_NAMES
from .adapters import preset as adapter_preset
from .backbone import ModelConfig
from .errors import (AdapterKitError, CompatibilityError, HubLookupError, MetadataError,
                     PackageFormatError, RegistryError, TransportError)
from .manager import AdapterModel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _info(message):
    sys.stderr.write(message + "\n")


# ---------------------------------------------------------------------------
# small file formats: one token id sequence per line / one label per line


def write_sequences(path, sequences):
    text = "\n".join(" ".join(str(t) for t in seq) for seq in sequences)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _read_text(path, error):
    """The text of a UTF-8 file; undecodable bytes raise ``error(message)``, naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def _read_lines(path, parse, what):
    """``parse(line)`` for each non-blank line of a UTF-8 text file."""
    values = []
    for lineno, line in enumerate(_read_text(path, PackageFormatError).splitlines(), 1):
        if line.strip():
            try:
                values.append(parse(line))
            except ValueError:
                raise PackageFormatError(f"{path}:{lineno}: {what} must be integers") from None
    return values


def read_sequences(path):
    sequences = _read_lines(path, lambda line: [int(t) for t in line.split()], "token ids")
    if not sequences:
        raise PackageFormatError(f"{path}: no input sequences")
    return sequences


def write_labels(path, labels):
    Path(path).write_text("\n".join(str(int(l)) for l in labels) + "\n", encoding="utf-8")


def read_labels(path):
    return _read_lines(path, int, "labels")


# ---------------------------------------------------------------------------
# shared helpers


def _add_model_flags(p):
    g = p.add_argument_group("model shape")
    g.add_argument("--hidden-size", type=int, default=ModelConfig.hidden_size)
    g.add_argument("--layers", type=int, default=ModelConfig.num_layers)
    g.add_argument("--heads", type=int, default=ModelConfig.num_heads)
    g.add_argument("--ffn-size", type=int, default=ModelConfig.ffn_size)
    g.add_argument("--vocab-size", type=int, default=ModelConfig.vocab_size)
    g.add_argument("--max-seq-len", type=int, default=ModelConfig.max_seq_len)


def _model_config(args):
    return ModelConfig(hidden_size=args.hidden_size, num_layers=args.layers,
                       num_heads=args.heads, ffn_size=args.ffn_size,
                       vocab_size=args.vocab_size, max_seq_len=args.max_seq_len)


def _child_seed(seed_seq):
    return int(seed_seq.generate_state(1)[0])


def _load_runtime(checkpoint_path, pkg):
    """Rebuild a ready-to-run model from a checkpoint and a decoded adapter package.

    Used by both ``train`` (to report dev metrics at shipped precision) and
    ``run``, so the two always agree bit for bit.
    """
    config, weights = package_io.load_backbone_checkpoint(checkpoint_path)
    model = AdapterModel(config, weights=weights)
    model.set_active_adapters([model.load_adapter(pkg)])
    if pkg.head is None:
        raise PackageFormatError(
            f"package {pkg.name!r} has no bundled prediction head; cannot run it standalone")
    return model


def _match_preset(config):
    """Name the preset this config instantiates, if any."""
    for name in PRESET_NAMES:
        if config == adapter_preset(name, reduction_factor=config.reduction_factor):
            return name
    return None


# ---------------------------------------------------------------------------
# commands


def cmd_train(args):
    if args.mode == "adapter_only" and not args.adapter_name:
        raise _UsageError("--adapter-name is required in adapter_only mode")
    config = _model_config(args)
    root = np.random.SeedSequence(args.seed)
    data_ss, model_ss, train_ss = root.spawn(3)
    train_config = training.TrainConfig(
        mode=args.mode, seed=_child_seed(train_ss), learning_rate=args.lr,
        batch_size=args.batch_size, max_steps=args.steps)

    task = training.generate_toy_task(args.task, _child_seed(data_ss),
                                      seq_len=args.seq_len, vocab_size=config.vocab_size)
    train_seqs, train_labels, dev_seqs, dev_labels = task.datasets(args.train_size, args.dev_size)

    model = AdapterModel(config, seed=_child_seed(model_ss))
    model.add_head(args.task, num_labels=2)
    if args.mode == "adapter_only":
        model.add_adapter(args.adapter_name, adapter_type="text_task", config=args.preset,
                          reduction_factor=args.reduction_factor)

    _info(f"training {args.task} in {args.mode} mode for {args.steps} steps")
    result = training.run_training(model, train_seqs, train_labels, train_config,
                                   adapter_name=args.adapter_name)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "backbone.ckpt"
    dev_inputs_path = out_dir / "dev_inputs.txt"
    dev_labels_path = out_dir / "dev_labels.txt"
    package_io.save_backbone_checkpoint(checkpoint_path, config, model.weights)
    write_sequences(dev_inputs_path, dev_seqs)
    write_labels(dev_labels_path, dev_labels)

    payload = {
        "task": args.task,
        **result.to_dict(),
        "artifacts": {
            "checkpoint": str(checkpoint_path),
            "dev_inputs": str(dev_inputs_path),
            "dev_labels": str(dev_labels_path),
        },
    }

    if args.mode == "adapter_only":
        package_path = out_dir / f"{args.adapter_name}.pkg"
        model.save_adapter(args.adapter_name, package_path, with_head=args.task)
        # report dev metrics from the artifacts just written, at their
        # shipped float32 precision, so `run` reproduces the number exactly
        runtime = _load_runtime(checkpoint_path, package_io.load_adapter_package(package_path))
        payload["dev"] = training.evaluate(runtime, dev_seqs, dev_labels)
        payload["artifacts"]["package"] = str(package_path)
        payload["adapter"] = {
            "name": args.adapter_name,
            "params": model.adapter_param_count(args.adapter_name),
        }
    else:
        payload["dev"] = training.evaluate(model, dev_seqs, dev_labels)

    _emit(payload)
    return EXIT_OK


def cmd_run(args):
    if (args.package is None) == (args.archive is None):
        raise _UsageError("provide exactly one of --package or --archive")
    if args.archive is not None:
        pkg, _ = package_io.read_archive(args.archive)
    else:
        pkg = package_io.load_adapter_package(args.package)
    model = _load_runtime(args.checkpoint, pkg)
    sequences = read_sequences(args.inputs)
    if args.labels is not None:
        labels = read_labels(args.labels)
        if len(labels) != len(sequences):
            raise PackageFormatError(
                f"{len(sequences)} inputs but {len(labels)} labels")
        _emit({"adapter": pkg.name, "n": len(sequences),
               **training.evaluate(model, sequences, labels)})
    else:
        for label in model.predict(sequences):
            sys.stdout.write(f"{label}\n")
    return EXIT_OK


def cmd_pack(args):
    pkg = package_io.load_adapter_package(args.package)
    zip_path = Path(args.out)
    embedded = {
        "adapter_id": args.adapter_id,
        "adapter_type": pkg.adapter_type,
        "level2": args.level2,
        "level3": args.level3,
        "model_type": pkg.model_config.model_type,
        "model_config_hash": pkg.model_config_hash,
        "adapter_config_hash": pkg.adapter_config_hash,
    }
    for key, value in (("description", args.description), ("author", args.author)):
        if value:
            embedded[key] = value
    # refuse a card the hub would reject before anything is written; only the archive's
    # digest needs the archive, and any 64 hex digits stand in for it here
    card = {**embedded, "url": args.url or zip_path.resolve().as_uri(), "sha256": "0" * 64,
            "preset": _match_preset(pkg.adapter_config),
            "reduction_factor": pkg.adapter_config.reduction_factor}
    entry = hub.ingest_metadata(card)
    entry.sha256 = package_io.pack_archive(zip_path, args.package, embedded)
    if args.card:
        package_io._atomic_write_bytes(
            args.card, [yaml.safe_dump(entry.to_dict(), sort_keys=True).encode("utf-8")])
    _emit({"archive": str(zip_path), "sha256": entry.sha256, "card": entry.to_dict()})
    return EXIT_OK


def cmd_validate(args):
    report = package_io.verify_package(args.package)
    if args.checkpoint:
        config, _ = package_io.load_backbone_checkpoint(args.checkpoint)
        if config.config_hash() != report["model_config_hash"]:
            raise CompatibilityError(
                f"package was extracted from model hash {report['model_config_hash'][:12]}..., "
                f"checkpoint is {config.config_hash()[:12]}...")
        report["compatible_with_checkpoint"] = True
    _emit(report)
    return EXIT_OK


def cmd_index(args):
    entries = []
    for path in args.cards:
        p = Path(path)
        files = sorted(p.glob("*.yaml")) + sorted(p.glob("*.yml")) if p.is_dir() else [p]
        if not files:
            raise HubLookupError(f"no metadata cards under {path}")
        for f in files:
            text = _read_text(f, lambda message: MetadataError([message]))
            try:
                entries.append(hub.ingest_metadata(text))
            except MetadataError as exc:
                raise MetadataError([f"{f}: {v}" for v in exc.violations]) from None
    text = hub.build_index(entries)
    package_io._atomic_write_bytes(args.out, [text.encode("utf-8")])
    _emit({"out": str(args.out), "entries": len(entries)})
    return EXIT_OK


def cmd_explore(args):
    entries = hub.parse_index(_read_text(args.index, RegistryError))
    if args.type:
        entries = [e for e in entries if e.adapter_type == args.type]
    sys.stdout.write(hub.format_explore_tree(hub.explore_tree(entries)))
    return EXIT_OK


def cmd_search(args):
    entries = hub.parse_index(_read_text(args.index, RegistryError))
    model_hash = args.model_config_hash
    if args.checkpoint:
        config, _ = package_io.load_backbone_checkpoint(args.checkpoint)
        model_hash = config.config_hash()
    entry = hub.resolve(entries, args.query, model_config_hash=model_hash, adapter_type=args.type)
    payload = {"entry": entry.to_dict()}
    if args.fetch:
        path, downloaded = hub.fetch(entry.url, entry.sha256, args.cache_dir)
        payload["local_path"] = str(path)
        payload["downloaded"] = downloaded
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = _Parser(prog="adapterkit",
                     description="Train, package, share, and run bottleneck adapters.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("train", help="train an adapter (or the full model) on a synthetic task")
    p.add_argument("--task", choices=training.TASKS, required=True)
    p.add_argument("--mode", choices=training.MODES, default=training.TrainConfig.mode)
    p.add_argument("--adapter-name", default=None)
    p.add_argument("--preset", default="pfeiffer", choices=PRESET_NAMES)
    p.add_argument("--reduction-factor", type=int, default=None)
    p.add_argument("--steps", type=int, default=training.TrainConfig.max_steps)
    p.add_argument("--batch-size", type=int, default=training.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    split_sizes = inspect.signature(training.ToyTask.datasets).parameters
    p.add_argument("--train-size", type=int, default=split_sizes["train_size"].default)
    p.add_argument("--dev-size", type=int, default=split_sizes["dev_size"].default)
    p.add_argument("--seq-len", type=int, default=training.ToyTask.seq_len)
    p.add_argument("--out-dir", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="label token id sequences with a packaged adapter")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--package", default=None)
    p.add_argument("--archive", default=None)
    p.add_argument("--inputs", required=True)
    p.add_argument("--labels", default=None,
                   help="gold labels; when given, print metrics instead of predictions")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("pack", help="bundle a package into a shareable archive with metadata")
    p.add_argument("--package", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--adapter-id", required=True)
    p.add_argument("--level2", required=True)
    p.add_argument("--level3", required=True)
    p.add_argument("--url", default=None, help="defaults to the archive's file:// url")
    p.add_argument("--description", default=None)
    p.add_argument("--author", default=None)
    p.add_argument("--card", default=None, help="also write the metadata card to this path")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("validate", help="check a package's integrity and report its facts")
    p.add_argument("--package", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="also require compatibility with this checkpoint")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("index", help="validate metadata cards and build the hub index")
    p.add_argument("--cards", nargs="+", required=True,
                   help="card files or directories of *.yaml cards")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("explore", help="show the hub hierarchy: type / category / dataset")
    p.add_argument("--index", required=True)
    p.add_argument("--type", choices=ADAPTER_TYPES, default=None)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("search", help="resolve a query to exactly one hub entry")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--model-config-hash", default=None)
    p.add_argument("--checkpoint", default=None,
                   help="filter to entries compatible with this checkpoint")
    p.add_argument("--type", choices=ADAPTER_TYPES, default=None)
    p.add_argument("--fetch", action="store_true", help="also download into the cache")
    p.add_argument("--cache-dir", default=None,
                   help=f"cache directory (default: ${hub.CACHE_ENV_VAR} or ~/.cache/adapterkit)")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (_UsageError, ValueError) as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE
    except (TransportError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_IO
    except AdapterKitError as exc:
        if isinstance(exc, MetadataError):
            for v in exc.violations:
                _info(f"invalid metadata: {v}")
        else:
            _info(f"error: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
