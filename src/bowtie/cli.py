"""Command-line surface: four named scenarios plus utility commands.

Commands: prepare, scenario, train, eval, transfer, stats, replay.  Every
optional flag can be set through an environment variable BOWTIE_<FLAG>
(uppercase, dashes become underscores); explicit flags win, and positionals
never read one.  Exit codes: 0 success, 1 usage, 2 data error, 3 numerical
divergence, 4 verdict failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import sys
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import corpus, encode, net, optim, train, transfer
from .errors import DataError, DivergenceError
from .fileio import read_text, replacing
from .rngseed import mix_seed

ENV_PREFIX = "BOWTIE_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_VERDICT = 4

MAX_EPOCHS = 10_000  # the paper trains 20; the bound makes every run end

# early-stop training targets per scenario
SCENARIO_TARGET = {1: 0.88, 2: 0.8795, 3: 0.89, 4: 0.89}
# verdict threshold = weakest reported accuracy minus a 0.5-point allowance
SCENARIO_VERDICT = {
    1: (0.8758, "88.08"),
    2: (0.8745, "87.95"),
    3: (0.8852, "89.02"),
    4: (0.9106, "91.56"),
}


class _UsageError(Exception):
    """Bad usage found while parsing; ``parser`` is the (sub)parser whose
    usage line applies."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this surface reserves 2 for data errors,
    so a usage error is raised for ``main`` (exit 1) or ``replay`` (a malformed
    manifest, exit 2) to report.

    Each optional flag (not -h) takes its default from ``BOWTIE_<DEST>`` in
    ``environ`` when that is set; its subcommands' parsers share the mapping."""

    def __init__(self, *args, environ, **kwargs):
        self.environ = environ
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        name = ENV_PREFIX + action.dest.upper()
        if action.option_strings and action.default is not argparse.SUPPRESS and name in self.environ:
            action.default = (name, self.environ[name])  # not a str, so argparse leaves it
        return action

    def add_subparsers(self, **kwargs):
        kwargs.setdefault("parser_class", partial(_Parser, environ=self.environ))
        return super().add_subparsers(**kwargs)

    def error(self, message):
        raise _UsageError(self, message)

    def parse_known_args(self, args=None, namespace=None):
        """A value that came from the environment goes through its flag's
        ``type`` and ``choices`` here, before any file is read, and an error
        names the variable.  Each subcommand's parser checks its own flags."""
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            if isinstance(var := getattr(namespace, action.dest, None), tuple):
                name, text = var
                try:
                    value = action.type(text) if action.type else text
                except argparse.ArgumentTypeError as exc:
                    self.error(f"{name}={text!r} {exc}")
                except (TypeError, ValueError):
                    self.error(f"{name}={text!r} is not a valid {action.type.__name__}")
                if action.choices and value not in action.choices:
                    choices = ", ".join(map(str, action.choices))
                    self.error(f"{name}={text!r} is not one of {choices}")
                setattr(namespace, action.dest, value)
        return namespace, extras


def _thread_count(text: str) -> int:
    if not text.strip().isdecimal():  # a sign, or no integer at all
        raise argparse.ArgumentTypeError(f"must be an integer of 0 or more, got {text!r}")
    return int(text)


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--hidden expects comma-separated integers, got {text!r}")
    if not widths:
        raise ValueError("--hidden needs at least the final width-1 layer")
    return widths


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", default="16,8,1",
                   help="comma-separated layer widths ending in 1 (default 16,8,1)")
    p.add_argument("--activation", choices=net.ACTIVATIONS, default="none")
    p.add_argument("--l2", type=float, default=0.019,
                   help="L2 regularization weight")
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.5,
                   help="decision threshold on the output probability")
    p.add_argument("--optimizer", choices=optim.OPTIMIZERS, default="nadam")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--rms-decay", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=1e-7)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--epochs", type=int, default=20, help=f"at most {MAX_EPOCHS}")
    p.add_argument("--target-acc", type=float,
                   help="stop at the first epoch whose validation accuracy reaches this")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; init/shuffle/dropout streams derive from it")
    _add_exec_flags(p)


def _add_exec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_thread_count, default=0,
                   help="cap on the threads the optimizer step, the L2 term and "
                   "evaluate share, the caller included; 0 (default) means every "
                   "usable CPU, up to 4; no bit depends on it")


def _resolve_run_config(args) -> dict:
    """The recorded config: every flag but --out as parsed, ``hidden`` as a
    list of widths, and the three seeds derived from ``seed``."""
    if args.epochs > MAX_EPOCHS:
        raise ValueError(f"--epochs {args.epochs} is above the limit of {MAX_EPOCHS}")
    skip = ("command", "func", "number", "out")
    cfg = {key: value for key, value in vars(args).items() if key not in skip}
    cfg["hidden"] = list(_parse_hidden(args.hidden))
    for stream, key in enumerate(("init_seed", "data_seed", "dropout_seed"), 1):
        cfg[key] = mix_seed(args.seed, stream)
    return cfg


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DataError(f"{path}: not found; {hint}")
    return path


def _polarity(encoding: str, path, vocab):
    """The polarity table ``encoding`` needs over ``vocab``; None for multi-hot."""
    if encoding != encode.POLARITY_WEIGHTED:
        return None
    if not path:
        raise DataError(f"the {encoding} encoding needs --polarity")
    return corpus.load_polarity(path, vocab)


def _corpus(path, vocab):
    """A canonical corpus file over ``vocab``; a file without reviews is a data error."""
    reviews = corpus.load_corpus_file(path, width=vocab.size)
    if not len(reviews):
        raise DataError(f"{path}: no reviews")
    return reviews


def _encoded(path, vocab, encoding: str, polarity):
    """``_corpus`` encoded as soon as it loads, so a multi-hot file's counts
    are freed before the next file is read."""
    return encode.encode_corpus(
        _corpus(path, vocab), encoding, polarity=polarity, width=vocab.size
    )


def _scenario_inputs(cfg: dict):
    """Scenario N's inputs from the prepared slmrd/ and kid/ directories, each
    split encoded as it loads.

    Scenario 1 trains and validates on the two halves of the kid corpus,
    shuffled once it is encoded; scenario 4 also returns (kid vocabulary,
    kid corpus) for its transfer check.
    """
    n = cfg["scenario"]
    data_dir = Path(cfg["data_dir"])
    encoding = encode.POLARITY_WEIGHTED if n in (3, 4) else encode.MULTI_HOT

    def need(name: str, file: str) -> Path:
        return _need(data_dir / name / file, f"run `bowtie prepare {name}` first")

    if n == 1:
        vocab, polarity = corpus.load_slmrd_vocab(need("kid", "vocab.txt")), None
        mixed = corpus.shuffle(
            _encoded(need("kid", "full.corpus"), vocab, encoding, polarity), cfg["data_seed"]
        )
        half = len(mixed) // 2
        train_set = mixed.take(slice(None, half))
        val_set = mixed.take(slice(half, None))
    else:
        vocab = corpus.load_slmrd_vocab(need("slmrd", "vocab.txt"))
        polarity = _polarity(encoding, need("slmrd", "polarity.txt"), vocab)
        train_set = _encoded(need("slmrd", "train.corpus"), vocab, encoding, polarity)
        val_set = _encoded(need("slmrd", "test.corpus"), vocab, encoding, polarity)
    kid = None
    if n == 4:
        kid_vocab = corpus.load_slmrd_vocab(need("kid", "vocab.txt"))
        kid = (kid_vocab, _corpus(need("kid", "full.corpus"), kid_vocab))
    return vocab, encoding, polarity, train_set, val_set, kid


def _train_inputs(cfg: dict):
    """``bowtie train``'s inputs from the explicit files it names, each split
    encoded."""
    vocab, encoding = corpus.load_slmrd_vocab(cfg["vocab"]), cfg["encoding"]
    polarity = _polarity(encoding, cfg["polarity"], vocab)
    train_set = _encoded(cfg["train_corpus"], vocab, encoding, polarity)
    val_set = _encoded(cfg["val_corpus"], vocab, encoding, polarity) if cfg["val_corpus"] else None
    return vocab, encoding, polarity, train_set, val_set, None


def _run(command: str, cfg: dict, out: Path) -> int:
    """Train on the command's inputs; write metrics.csv, model.ckpt, for
    scenario 4 the transfer report.txt, and last manifest.json into ``out``;
    print their paths and the command's result line.

    The manifest commits the run: the previous run's is removed before the
    first artifact is written, so a run that fails after that leaves none."""
    resolve = _scenario_inputs if command == "scenario" else _train_inputs
    vocab, encoding, polarity, train_set, val_set, kid = resolve(cfg)
    model = net.init_model(net.ModelConfig(
        input_width=vocab.size,
        hidden_widths=tuple(cfg["hidden"]),
        activation=cfg["activation"],
        dropout_rate=cfg["dropout"],
        l2_weight=cfg["l2"],
        discriminator=cfg["delta"],
        init_seed=cfg["init_seed"],
    ))
    spec = optim.OptimizerSpec(
        kind=cfg["optimizer"],
        learning_rate=cfg["lr"],
        beta1=cfg["beta1"],
        beta2=cfg["beta2"],
        rms_decay=cfg["rms_decay"],
        epsilon=cfg["epsilon"],
    )
    model, metrics = train.train(model, train_set, val_set, train.TrainConfig(
        optimizer=spec,
        batch_size=cfg["batch_size"],
        max_epochs=cfg["epochs"],
        target_accuracy=cfg["target_acc"],
        data_seed=cfg["data_seed"],
        dropout_seed=cfg["dropout_seed"],
    ))

    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics_csv": out / "metrics.csv",
        "checkpoint": out / "model.ckpt",
        "report": out / "report.txt" if kid else None,
        "manifest": out / "manifest.json",
    }
    paths["manifest"].unlink(missing_ok=True)
    train.emit_metrics_csv(metrics, str(paths["metrics_csv"]))
    provenance = {
        key: cfg[key]
        for key in ("optimizer", "seed", "init_seed", "data_seed", "dropout_seed")
    }
    provenance.update(command=command, epochs_run=len(metrics))
    if command == "scenario":
        provenance["scenario"] = cfg["scenario"]
    param_sha = train.save_checkpoint(
        str(paths["checkpoint"]), model, vocab.size, vocab.fingerprint(), encoding,
        provenance=provenance,
    )
    # absolute, like the config's input paths, so the manifest is readable from anywhere
    artifacts = {key: path and str(path.resolve()) for key, path in paths.items()}
    artifacts["checkpoint_param_sha256"] = param_sha
    versions = {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__
    }
    if kid:
        kid_vocab, kid_corpus = kid
        report = transfer.transfer_evaluate(
            train.load_checkpoint(str(paths["checkpoint"])), kid_corpus, kid_vocab, vocab,
            polarity=polarity, batch_size=cfg["batch_size"],
        )
        transfer.write_transfer_report(report, str(paths["report"]))
    body = {"command": command, "config": cfg, "artifacts": artifacts, "versions": versions}
    with replacing(paths["manifest"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
    for key, path in paths.items():
        if path:
            print(f"{key}={path}")
    last = metrics[-1] if metrics else None
    val_accuracy = last.val_accuracy if last else float("nan")
    if command == "train":
        print(
            f"epochs_run={len(metrics)} val_accuracy={val_accuracy:.6f}"
            f" val_bce={last.val_bce if last else float('nan'):.6f}"
        )
        return EXIT_OK

    n = cfg["scenario"]
    metric, value = (
        ("transfer_accuracy", report.result.accuracy) if kid
        else ("val_accuracy", val_accuracy)
    )
    threshold, weakest = SCENARIO_VERDICT[n]
    passed = value >= threshold
    print(
        f"scenario={n} verdict={'PASS' if passed else 'FAIL'} metric={metric}"
        f" value={value:.6f} threshold={threshold:.4f}"
        f' basis="weakest reported {weakest}% minus 0.5pt allowance"'
    )
    return EXIT_OK if passed else EXIT_VERDICT


def _scenario_config(args) -> dict:
    cfg = _resolve_run_config(args)
    cfg["scenario"] = args.number
    cfg["data_dir"] = str(Path(args.data_dir).resolve())
    if cfg["target_acc"] is None:
        cfg["target_acc"] = SCENARIO_TARGET[args.number]
    return cfg


def cmd_scenario(args) -> int:
    out = Path(args.out or f"runs/scenario-{args.number}")
    return _run("scenario", _scenario_config(args), out)


def _train_config(args) -> dict:
    if not args.train_corpus or not args.vocab:
        raise ValueError("train requires --train-corpus and --vocab")
    cfg = _resolve_run_config(args)
    cfg["train_corpus"] = str(Path(args.train_corpus).resolve())
    cfg["val_corpus"] = str(Path(args.val_corpus).resolve()) if args.val_corpus else None
    cfg["vocab"] = str(Path(args.vocab).resolve())
    cfg["polarity"] = str(Path(args.polarity).resolve()) if args.polarity else None
    return cfg


def cmd_train(args) -> int:
    return _run("train", _train_config(args), Path(args.out or "runs/train"))


def cmd_eval(args) -> int:
    if not args.checkpoint or not args.corpus or not args.vocab:
        raise ValueError("eval requires --checkpoint, --corpus, and --vocab")
    ckpt = train.load_checkpoint(args.checkpoint)
    vocab = corpus.load_slmrd_vocab(args.vocab)
    train.check_fingerprint(ckpt, vocab.size, vocab.fingerprint())
    polarity = _polarity(ckpt.encoding, args.polarity, vocab)
    dataset = _encoded(args.corpus, vocab, ckpt.encoding, polarity)
    result = train.evaluate(ckpt.model, dataset, batch_size=args.batch_size)
    print(
        f"examples={result.count} accuracy={result.accuracy:.6f} bce={result.bce:.6f}"
    )
    return EXIT_OK


def cmd_transfer(args) -> int:
    needed = (args.checkpoint, args.source_corpus, args.source_vocab, args.target_vocab)
    if not all(needed):
        raise ValueError(
            "transfer requires --checkpoint, --source-corpus, "
            "--source-vocab, and --target-vocab"
        )
    ckpt = train.load_checkpoint(args.checkpoint)
    source_vocab = corpus.load_slmrd_vocab(args.source_vocab)
    target_vocab = corpus.load_slmrd_vocab(args.target_vocab)
    polarity = _polarity(ckpt.encoding, args.polarity, target_vocab)
    source = _corpus(args.source_corpus, source_vocab)
    report = transfer.transfer_evaluate(
        ckpt, source, source_vocab, target_vocab,
        polarity=polarity, batch_size=args.batch_size,
    )
    if args.report:
        transfer.write_transfer_report(report, args.report)
        print(f"report={args.report}")
    print(
        f"mapped={report.mapped_count} dropped={len(report.dropped)}"
        f" examples={report.result.count}"
        f" accuracy={report.result.accuracy:.6f} bce={report.result.bce:.6f}"
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    if not args.corpus or not args.vocab:
        raise ValueError("stats requires --corpus and --vocab")
    vocab = corpus.load_slmrd_vocab(args.vocab)
    polarity = _polarity(args.encoding, args.polarity, vocab)
    dataset = _encoded(args.corpus, vocab, args.encoding, polarity)
    s = encode.polarity_stats(dataset)
    print(
        f"encoding={args.encoding} examples={len(dataset)}"
        f" element_min={s.element_min:.9g} element_max={s.element_max:.9g}"
        f" rowsum_min={s.rowsum_min:.9g} rowsum_max={s.rowsum_max:.9g}"
    )
    return EXIT_OK


def _write_vocab(vocab, path: Path) -> None:
    """The canonical vocabulary file: one token per line."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(vocab.tokens) + "\n")


def cmd_prepare(args) -> int:
    # --out is created once every input has loaded: an error leaves no directory
    if not args.out:
        raise ValueError("prepare requires --out")
    out = Path(args.out)

    if args.dataset == "slmrd":
        if not args.input:
            raise ValueError("prepare slmrd requires --input (the distribution directory)")
        base = Path(args.input)
        hint = (
            "expected the SLMRD layout: imdb.vocab, imdbEr.txt, "
            "train/labeledBow.feat, test/labeledBow.feat"
        )
        vocab = corpus.load_slmrd_vocab(_need(base / "imdb.vocab", hint))
        polarity = corpus.load_polarity(_need(base / "imdbEr.txt", hint), vocab)
        splits = {
            split: corpus.load_slmrd_bow(_need(base / split / "labeledBow.feat", hint), vocab)
            for split in ("train", "test")
        }
        out.mkdir(parents=True, exist_ok=True)
        _write_vocab(vocab, out / "vocab.txt")
        with replacing(out / "polarity.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(map(repr, polarity.tolist())) + "\n")
        print(f"dataset=slmrd vocab={vocab.size}")
        for split, reviews in splits.items():
            corpus.save_corpus_file(reviews, out / f"{split}.corpus")
            neg, pos = reviews.label_counts()
            print(f"split={split} reviews={len(reviews)} negative={neg} positive={pos}")
        return EXIT_OK

    if not args.word_index or not args.sequences:
        raise ValueError("prepare kid requires --word-index and --sequences")
    vocab, reviews = corpus.load_kid(args.word_index, args.sequences, args.index_offset)
    out.mkdir(parents=True, exist_ok=True)
    _write_vocab(vocab, out / "vocab.txt")
    corpus.save_corpus_file(reviews, out / "full.corpus")
    neg, pos = reviews.label_counts()
    print(
        f"dataset=kid vocab={vocab.size} reviews={len(reviews)}"
        f" negative={neg} positive={pos}"
    )
    return EXIT_OK


def _metrics_rows(path: Path) -> list[dict]:
    """metrics.csv as a {column: cell} dict per row, less the wall-time
    column (timings never replay)."""
    rows = list(csv.DictReader(io.StringIO(read_text(path))))
    for row in rows:
        row.pop("seconds", None)
    return rows


def _metrics_differences(recorded: list[dict], replayed: list[dict]) -> list[str]:
    """A line naming the first cell that differs, with both values, or both row counts."""
    if len(recorded) != len(replayed):
        return [f"differs=metrics_rows recorded={len(recorded)} replayed={len(replayed)}"]
    for old, new in zip(recorded, replayed):
        for column in dict.fromkeys([*old, *new]):
            if old.get(column) != new.get(column):
                return [f"differs=metrics epoch={old.get('epoch')} column={column}"
                        f" recorded={old.get(column)} replayed={new.get(column)}"]
    return []


def _replay_config(command: str, cfg: dict, manifest: Path) -> dict:
    """The config that parsing ``cfg`` back through the command's own flags
    resolves to.  A config those flags could not have produced (a missing,
    unknown or mistyped key, or a derived seed that does not match the seed)
    is a data error naming the manifest, raised before any file is read."""
    argv = [command]
    for key, value in cfg.items():
        # None has no spelling as a flag value, so a None is left to the flag's
        # default; the derived seeds have no flag and are checked by the comparison
        if value is None or key in ("init_seed", "data_seed", "dropout_seed"):
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv.append(text if key == "scenario" else f"--{key.replace('_', '-')}={text}")
    try:
        # the defaults are the flags' own, never this process's BOWTIE_* variables
        args = build_parser({}).parse_args(argv)
        resolved = (_scenario_config if command == "scenario" else _train_config)(args)
    except (_UsageError, ValueError) as exc:
        raise DataError(f"{manifest}: malformed manifest: {exc}") from exc
    for key in sorted(cfg.keys() | resolved.keys()):
        got, want = (repr(c[key]) if key in c else "missing" for c in (cfg, resolved))
        if got != want:
            raise DataError(
                f"{manifest}: malformed manifest: config {key!r} is {got},"
                f" its flags give {want}"
            )
    return resolved


def cmd_replay(args) -> int:
    if not args.manifest:
        raise ValueError("replay requires --manifest")
    manifest_path = Path(args.manifest)
    try:
        body = json.loads(read_text(manifest_path))
        command = body["command"]
        cfg = body["config"]
        artifacts = body["artifacts"]
        versions = body.get("versions", {})  # absent in older manifests
        if not all(isinstance(part, dict) for part in (cfg, artifacts, versions)):
            raise TypeError("config, artifacts and versions must be JSON objects")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if command not in ("scenario", "train"):
        raise DataError(f"{manifest_path}: cannot replay command {command!r}")

    cfg = _replay_config(command, cfg, manifest_path)
    # read beside the manifest, where _run wrote it, before the run can overwrite it
    original = manifest_path.parent / "metrics.csv"
    rows = _metrics_rows(original) if original.exists() else None
    out = Path(args.out) if args.out else manifest_path.parent / "replay"
    code = _run(command, cfg, out)

    recorded = artifacts.get("checkpoint_param_sha256")  # absent in older manifests
    replay = json.loads(read_text(out / "manifest.json"))
    replayed = replay["artifacts"]["checkpoint_param_sha256"]
    differs = [] if recorded in (None, replayed) else [
        f"differs=checkpoint_param_sha256 recorded={recorded} replayed={replayed}"
    ]
    if rows is None and not differs:
        print("replay_match=unknown (original metrics file is gone)")
        return code
    if rows is not None:
        differs += _metrics_differences(rows, _metrics_rows(out / "metrics.csv"))
    if differs:  # name what the two runs' builds differ in
        differs += [
            f"differs={name}_version recorded={versions[name]} replayed={version}"
            for name, version in replay["versions"].items()
            if versions.get(name, version) != version
        ]
    for line in differs:
        print(line)
    print(f"replay_match={0 if differs else 1}")
    return EXIT_VERDICT if differs else code


def build_parser(environ=os.environ) -> argparse.ArgumentParser:
    """The CLI parser; optional flags default to ``environ``'s BOWTIE_* values."""
    parser = _Parser(
        environ=environ,
        prog="bowtie",
        description="Train and evaluate the BowTie sentiment classifier.",
        epilog=(
            "Any optional flag may be supplied via the environment as BOWTIE_<FLAG> "
            "(uppercase, dashes to underscores); explicit flags win."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("prepare", help="convert a raw distribution to canonical files")
    p.add_argument("dataset", choices=("slmrd", "kid"))
    p.add_argument("--input", help="SLMRD distribution directory")
    p.add_argument("--word-index", help="KID token-to-rank JSON file")
    p.add_argument("--sequences", help="KID labeled integer-sequence file")
    p.add_argument("--index-offset", type=int, default=3,
                   help="reserved control codes below this sequence value")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("scenario", help="run one of the four benchmark scenarios")
    p.add_argument("number", type=int, choices=sorted(SCENARIO_TARGET))
    p.add_argument("--data-dir", default="data",
                   help="directory holding prepared slmrd/ and kid/ subdirectories")
    p.add_argument("--out", help="artifact directory (default runs/scenario-N)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("train", help="train on explicit corpus files")
    p.add_argument("--train-corpus")
    p.add_argument("--val-corpus")
    p.add_argument("--vocab")
    p.add_argument("--polarity")
    p.add_argument("--encoding", choices=encode.ENCODING_KINDS, default="multi-hot")
    p.add_argument("--out")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--polarity")
    p.add_argument("--batch-size", type=int, default=512)
    _add_exec_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transfer", help="score a checkpoint on a foreign-vocabulary corpus")
    p.add_argument("--checkpoint")
    p.add_argument("--source-corpus")
    p.add_argument("--source-vocab")
    p.add_argument("--target-vocab")
    p.add_argument("--polarity", help="polarity table over the target vocabulary")
    p.add_argument("--report", help="report file to write")
    p.add_argument("--batch-size", type=int, default=512)
    _add_exec_flags(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("stats", help="print encoding value ranges for a corpus")
    p.add_argument("--corpus")
    p.add_argument("--vocab")
    p.add_argument("--polarity")
    p.add_argument("--encoding", choices=encode.ENCODING_KINDS, default="polarity-weighted")
    _add_exec_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("replay", help="re-run a recorded manifest and compare metrics")
    p.add_argument("--manifest")
    p.add_argument("--out", help="artifact directory (default: replay/ beside the manifest)")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.error("a command is required")
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f'error=usage detail="{exc}"', file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    default = net._THREADS  # replay has no --threads, so it runs at the default
    net._THREADS = min(getattr(args, "threads", 0) or default, default)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f'error=divergence detail="{exc}"', file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, OSError) as exc:
        print(f'error=data detail="{exc}"', file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f'error=usage detail="{exc}"', file=sys.stderr)
        return EXIT_USAGE
    finally:
        net._THREADS = default


if __name__ == "__main__":
    raise SystemExit(main())
