import argparse
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy
from scipy import sparse

import bowtie
from bowtie import cli, net
from bowtie import corpus as corpus_module
from bowtie import optim as optim_module
from bowtie import train as train_module
from bowtie.cli import main
from bowtie.corpus import Corpus, Vocabulary, load_slmrd_vocab, shuffle
from bowtie.encode import MULTI_HOT, encode_corpus
from bowtie.errors import DataError
from bowtie.net import ModelConfig, init_model
from bowtie.train import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
import oracles
from synth import (
    copy_of, edit_checkpoint_manifest, planted_corpus, rating_table, token_list, write_kid_tree, write_slmrd_tree,
)


FAST_FLAGS = [
    "--hidden", "8,1",
    "--activation", "none",
    "--dropout", "0",
    "--l2", "0",
    "--optimizer", "adam",
    "--lr", "0.05",
    "--batch-size", "50",
    "--epochs", "30",
]


@pytest.fixture()
def raw_trees(tmp_path):
    slmrd_tokens = token_list(40)
    ratings = rating_table(100, 40)
    train_c = planted_corpus(101, 300, ratings)
    test_c = planted_corpus(102, 300, ratings)
    slmrd_root = write_slmrd_tree(
        tmp_path / "raw" / "slmrd", slmrd_tokens, ratings, train_c, test_c
    )
    kid_tokens = slmrd_tokens[:36] + ["walmington", "zzyzx", "qwrk", "vblorp"]
    kid_ratings = np.concatenate([ratings[:36], np.zeros(4)])
    kid_c = planted_corpus(103, 400, kid_ratings, margin=0.8)
    kid_root = write_kid_tree(tmp_path / "raw" / "kid", kid_tokens, kid_c)
    return slmrd_root, kid_root


@pytest.fixture()
def prepared(tmp_path, raw_trees, capsys):
    slmrd_root, kid_root = raw_trees
    data = tmp_path / "data"
    assert main(
        ["prepare", "slmrd", "--input", str(slmrd_root), "--out", str(data / "slmrd")]
    ) == 0
    assert main(
        [
            "prepare", "kid",
            "--word-index", str(kid_root / "word_index.json"),
            "--sequences", str(kid_root / "sequences.tsv"),
            "--out", str(data / "kid"),
        ]
    ) == 0
    capsys.readouterr()
    return data


def run_scenario(n, data, out, extra=()):
    return main(
        ["scenario", str(n), "--data-dir", str(data), "--out", str(out), *FAST_FLAGS, *extra]
    )


# a script that runs the command line on its arguments, for fresh_python
MAIN = "import sys\nfrom bowtie.cli import main\nsys.exit(main(sys.argv[1:]))"


def fresh_python(script, *argv, **variables):
    """Run ``script`` in a new interpreter that imports this package and sees
    no BOWTIE_* variable, with ``variables`` set, or unset where None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BOWTIE_")}
    env["PYTHONPATH"] = str(Path(bowtie.__file__).resolve().parents[1])
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )


# --------------------------------------------------------------------- usage


def test_no_command_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    assert "error=usage" in capsys.readouterr().err


def test_unknown_scenario_number_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scenario", "5"])
    assert err.value.code == 1
    assert "error=usage" in capsys.readouterr().err


def test_bad_flag_value_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scenario", "1", "--lr", "fast"])
    assert err.value.code == 1


def test_help_says_only_optional_flags_read_the_environment(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "Any optional flag may be supplied via the environment as BOWTIE_<FLAG>" in text


@pytest.mark.parametrize("argv, detail", [
    (["prepare", "slmrd", "--input", "in"], "prepare requires --out"),
    (["prepare", "slmrd", "--out", "out"],
     "prepare slmrd requires --input (the distribution directory)"),
    (["prepare", "kid", "--word-index", "w.json", "--out", "out"],
     "prepare kid requires --word-index and --sequences"),
    (["train", "--vocab", "v.txt"], "train requires --train-corpus and --vocab"),
    (["eval", "--checkpoint", "m.ckpt", "--corpus", "c"],
     "eval requires --checkpoint, --corpus, and --vocab"),
    (["transfer", "--checkpoint", "m.ckpt"],
     "transfer requires --checkpoint, --source-corpus, --source-vocab, and --target-vocab"),
    (["stats", "--corpus", "c"], "stats requires --corpus and --vocab"),
    (["replay"], "replay requires --manifest"),
], ids=["prepare", "prepare-slmrd", "prepare-kid", "train", "eval", "transfer", "stats",
        "replay"])
def test_missing_required_flag_reports_usage(tmp_path, monkeypatch, capsys, argv, detail):
    monkeypatch.chdir(tmp_path)  # the paths need not exist: none is read or made
    assert main(argv) == 1
    assert capsys.readouterr().err == f'error=usage detail="{detail}"\n'
    assert not any(tmp_path.iterdir())


def test_train_and_eval_leave_scipy_special_unloaded(tmp_path, prepared):
    """The sigmoid needs numpy alone: a command never imports scipy.special."""
    slmrd = prepared / "slmrd"
    files = ["--vocab", str(slmrd / "vocab.txt"), "--polarity", str(slmrd / "polarity.txt")]
    train = ["train", "--train-corpus", str(slmrd / "train.corpus"), *files,
             "--out", str(tmp_path / "run"), *FAST_FLAGS, "--epochs", "1"]
    evaluate = ["eval", "--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                "--corpus", str(slmrd / "test.corpus"), *files]
    script = (
        "import sys\n"
        "from bowtie.cli import main\n"
        f"assert main({train!r}) == 0\n"
        f"assert main({evaluate!r}) == 0\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    result = fresh_python(script)
    assert result.returncode == 0, result.stderr


# a refused value of each variable, and the usage detail after its name
REFUSED = {
    "BOWTIE_ENCODING": ("bogus", "is not one of multi-hot, polarity-weighted"),
    "BOWTIE_OPTIMIZER": ("bogus", "is not one of sgd, rmsprop, adam, nadam"),
    "BOWTIE_ACTIVATION": ("bogus", "is not one of none, relu"),
    "BOWTIE_LR": ("fast", "is not a valid float"),
    "BOWTIE_EPOCHS": ("many", "is not a valid int"),
    "BOWTIE_THREADS": ("-1", "must be an integer of 0 or more, got '-1'"),
}


@pytest.mark.parametrize(
    "command, variable",
    [("stats", "BOWTIE_ENCODING")] + [("train", variable) for variable in REFUSED],
)
def test_environment_value_outside_choices_exits_one_before_reading(
    tmp_path, monkeypatch, capsys, command, variable
):
    """A variable's value that its flag's type or choices refuse is a usage
    error naming the variable, not the flag; the same flag given explicitly
    wins over it."""
    value, detail = REFUSED[variable]
    monkeypatch.setenv(variable, value)
    missing = str(tmp_path / "missing")  # reading any file would exit 2
    argv = {
        "stats": ["stats", "--corpus", missing, "--vocab", missing, "--polarity", missing],
        "train": ["train", "--train-corpus", missing, "--vocab", missing,
                  "--polarity", missing, "--out", str(tmp_path / "out")],
    }[command]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert f'error=usage detail="{variable}={value!r} {detail}' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    flag = "--" + variable.removeprefix("BOWTIE_").lower()
    explicit = {"--encoding": "multi-hot", "--optimizer": "sgd", "--activation": "relu"}
    assert main(argv + [flag, explicit.get(flag, "1")]) == 2  # reads, and finds no file
    assert "error=data" in capsys.readouterr().err


def test_environment_choices_are_checked_for_the_chosen_command_only(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("BOWTIE_ENCODING", "bogus")
    monkeypatch.setenv("BOWTIE_OPTIMIZER", "bogus")
    missing = str(tmp_path / "missing")
    assert main(["eval", "--checkpoint", missing, "--corpus", missing, "--vocab", missing]) == 2
    assert "error=data" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "environment"])
@pytest.mark.parametrize("command", ["train", "scenario"])
def test_epochs_above_the_limit_exit_one_before_reading(
    tmp_path, monkeypatch, capsys, command, source
):
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")  # reading would exit 2
    argv = {
        "train": ["train", "--train-corpus", missing, "--vocab", missing, "--out", out],
        "scenario": ["scenario", "3", "--data-dir", missing, "--out", out],
    }[command]
    if source == "flag":
        argv += ["--epochs", str(2**70)]
    else:
        monkeypatch.setenv("BOWTIE_EPOCHS", str(2**70))
    assert main(argv) == 1
    detail = f"--epochs {2**70} is above the limit of {cli.MAX_EPOCHS}"
    assert f'error=usage detail="{detail}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_epochs_at_the_limit_resolve():
    args = cli.build_parser({}).parse_args(
        ["train", "--train-corpus", "t", "--vocab", "v", "--epochs", str(cli.MAX_EPOCHS)])
    assert cli.MAX_EPOCHS == 10_000 and cli._train_config(args)["epochs"] == 10_000
    args.epochs += 1
    with pytest.raises(ValueError, match="above the limit"):
        cli._train_config(args)


# ------------------------------------------------------------------- prepare


def test_prepare_slmrd_reports_counts(tmp_path, raw_trees, capsys):
    slmrd_root, _ = raw_trees
    out = tmp_path / "data" / "slmrd"
    assert main(["prepare", "slmrd", "--input", str(slmrd_root), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dataset=slmrd vocab=40"
    assert lines[1].startswith("split=train reviews=300 negative=")
    assert lines[2].startswith("split=test reviews=300 negative=")
    for name in ("vocab.txt", "polarity.txt", "train.corpus", "test.corpus"):
        assert (out / name).exists()


def test_prepare_kid_reports_counts(tmp_path, raw_trees, capsys):
    _, kid_root = raw_trees
    out = tmp_path / "data" / "kid"
    code = main(
        [
            "prepare", "kid",
            "--word-index", str(kid_root / "word_index.json"),
            "--sequences", str(kid_root / "sequences.tsv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[0]
    assert line.startswith("dataset=kid vocab=40 reviews=400")
    assert (out / "vocab.txt").exists()
    assert (out / "full.corpus").exists()


# perfbench/gen.py's paper-shape raw tree, the sha256 of each file prepare must
# write from it, and the transfer counts and oracle accuracy of its fixed
# checkpoint; run in a process that runs nothing but prepare and transfer
PAPER_SHAPE_INGEST = """
import hashlib, sys
from pathlib import Path
import gen
import numpy as np
from bowtie.cli import main
from bowtie.corpus import load_corpus_file, load_kid, load_slmrd_bow, load_slmrd_vocab
tmp = Path(sys.argv[1])
expect = gen.generate(tmp / "in", "raw", "paper", 1)
raw = tmp / "in" / "raw"
assert main(["prepare", "slmrd", "--input", str(raw / "slmrd"),
             "--out", str(tmp / "slmrd")]) == 0
assert main(["prepare", "kid", "--word-index", str(raw / "kid" / "word_index.json"),
             "--sequences", str(raw / "kid" / "sequences.tsv"),
             "--out", str(tmp / "kid")]) == 0
wrong = [name for name, sha in sorted(expect["sha256"].items())
         if hashlib.sha256((tmp / name).read_bytes()).hexdigest() != sha]
if wrong:
    sys.exit(f"prepare wrote other bytes than expect.json for {wrong}")
# each corpus read back, about 40 blocks a file, equals its raw load
vocab = load_slmrd_vocab(raw / "slmrd" / "imdb.vocab")
loaded = {f"slmrd/{split}.corpus": load_slmrd_bow(raw / "slmrd" / split / "labeledBow.feat", vocab)
          for split in ("train", "test")}
loaded["kid/full.corpus"] = load_kid(raw / "kid" / "word_index.json",
                                     raw / "kid" / "sequences.tsv")[1]
for name, direct in loaded.items():
    back = load_corpus_file(tmp / name, width=direct.width)
    for what in ("indptr", "indices", "data", "labels"):
        a, b = (c.labels if what == "labels" else getattr(c.matrix, what) for c in (back, direct))
        if a.dtype != b.dtype or not np.array_equal(a, b):
            sys.exit(f"{name} loads other {what} than its raw files")
report = tmp / "report.txt"
assert main(["transfer", "--checkpoint", str(raw / "model.ckpt"),
             "--source-corpus", str(tmp / "kid" / "full.corpus"),
             "--source-vocab", str(tmp / "kid" / "vocab.txt"),
             "--target-vocab", str(tmp / "slmrd" / "vocab.txt"),
             "--polarity", str(tmp / "slmrd" / "polarity.txt"),
             "--report", str(report)]) == 0
assert "scipy.special" not in sys.modules
lines = report.read_text(encoding="utf-8").splitlines()
last = len(lines) - 1 - lines[::-1].index("---")
footer = dict(line.split("=", 1) for line in lines[last + 1:])
want = {"mapped": expect["mapped"], "dropped": expect["dropped"],
        "examples": expect["kid_reviews"]}
got = {key: int(footer[key]) for key in want}
if got != want:
    sys.exit(f"transfer report says {got}, expect.json {want}")
accuracy, oracle = float(footer["accuracy"]), expect["oracle_accuracy"]
if abs(accuracy - oracle) > 1 / expect["kid_reviews"] + 1e-6:
    sys.exit(f"transfer accuracy {accuracy}, oracle accuracy {oracle}")
"""


def test_prepare_writes_the_benchmarks_bytes_and_transfer_scores_them(tmp_path):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    path = os.pathsep.join([str(Path(bowtie.__file__).resolve().parents[1]), str(perfbench)])
    result = fresh_python(PAPER_SHAPE_INGEST, str(tmp_path), PYTHONPATH=path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("offset", [str(10**20 - 1), str(2**63), str(-10**20)])
@pytest.mark.parametrize("through", ["flag", "environment"])
def test_prepare_kid_takes_an_offset_past_int64(
    tmp_path, raw_trees, monkeypatch, capsys, offset, through
):
    """An offset from --index-offset or BOWTIE_INDEX_OFFSET that int64 cannot
    hold drops every value, or names the first line, as the reference does."""
    _, kid_root = raw_trees
    wi, seq = kid_root / "word_index.json", kid_root / "sequences.tsv"
    out = tmp_path / "data" / "kid"
    argv = ["prepare", "kid", "--word-index", str(wi), "--sequences", str(seq), "--out", str(out)]
    if through == "flag":
        argv += ["--index-offset", offset]
    else:
        monkeypatch.setenv("BOWTIE_INDEX_OFFSET", offset)
    code = main(argv)
    stdout, stderr = capsys.readouterr()
    try:
        vocab, want = oracles.load_kid(wi, seq, int(offset))
    except DataError as exc:
        assert (code, stderr.splitlines()) == (2, [f'error=data detail="{exc}"'])
        assert not out.exists()
    else:
        assert code == 0
        assert stdout.startswith(f"dataset=kid vocab={vocab.size} reviews={len(want)} ")
        assert want.nnz == 0
        assert corpus_module.load_corpus_file(out / "full.corpus", width=vocab.size).nnz == 0


@pytest.mark.parametrize("token", ["bad\ntoken", "bad\rtoken"])
def test_prepare_kid_rejects_token_with_line_break(tmp_path, capsys, token):
    root = write_kid_tree(
        tmp_path / "raw", ["alpha", token, "omega"],
        planted_corpus(5, 4, np.array([1.0, -1.0, 2.0])),
    )
    code = main(
        [
            "prepare", "kid",
            "--word-index", str(root / "word_index.json"),
            "--sequences", str(root / "sequences.tsv"),
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error=data" in err and repr(token) in err
    assert not (tmp_path / "data" / "vocab.txt").exists()


def test_prepare_missing_distribution_exits_two(tmp_path, capsys):
    code = main(
        ["prepare", "slmrd", "--input", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error=data" in err
    assert "imdb.vocab" in err


@pytest.mark.parametrize(
    "dataset, drop, break_file, code",
    [
        ("slmrd", "--input", None, 1),
        ("kid", "--sequences", None, 1),
        ("kid", "--word-index", None, 1),
        ("slmrd", None, "imdbEr.txt", 2),
        ("slmrd", None, "test/labeledBow.feat", 2),
        ("kid", None, "sequences.tsv", 2),
    ],
    ids=["slmrd-no-input", "kid-no-sequences", "kid-no-word-index",
         "slmrd-missing-polarity", "slmrd-missing-test-split", "kid-missing-sequences"],
)
def test_prepare_error_leaves_no_out_directory(
    tmp_path, raw_trees, capsys, dataset, drop, break_file, code
):
    slmrd_root, kid_root = raw_trees
    root = slmrd_root if dataset == "slmrd" else kid_root
    if break_file:
        (root / break_file).unlink()
    flags = {"slmrd": {"--input": str(slmrd_root)},
             "kid": {"--word-index": str(kid_root / "word_index.json"),
                     "--sequences": str(kid_root / "sequences.tsv")}}[dataset]
    flags.pop(drop, None)
    out = tmp_path / "out"
    argv = ["prepare", dataset, *(x for pair in flags.items() for x in pair), "--out", str(out)]
    assert main(argv) == code
    assert not out.exists()


@pytest.mark.parametrize("dataset,name", [
    ("slmrd", "imdb.vocab"), ("slmrd", "imdbEr.txt"), ("kid", "word_index.json"),
])
def test_prepare_input_that_is_not_utf8_exits_two(tmp_path, raw_trees, capsys, dataset, name):
    slmrd_root, kid_root = raw_trees
    root = slmrd_root if dataset == "slmrd" else kid_root
    path = root / name
    data = path.read_bytes()
    path.write_bytes(data[:1] + b"\xff" + data[1:])
    inputs = (["--input", str(slmrd_root)] if dataset == "slmrd" else
              ["--word-index", str(path), "--sequences", str(kid_root / "sequences.tsv")])
    code = main(["prepare", dataset, *inputs, "--out", str(tmp_path / "data")])
    assert code == 2
    err = capsys.readouterr().err
    assert f'error=data detail="{path}: not UTF-8: byte 0xff at offset 1 ' in err


def test_prepare_writes_each_rating_as_its_repr(tmp_path, raw_trees):
    slmrd_root, _ = raw_trees
    lines = (slmrd_root / "imdbEr.txt").read_text().splitlines()
    # spellings whose repr switches between plain and exponent form, or sits at an extreme
    edges = ["1E-5", " 0.0001", "1e16", "1234567890123456", "5e-324", "-0",
             "0.30000000000000004", "1.7976931348623157e308"]
    (slmrd_root / "imdbEr.txt").write_text("\n".join(edges + lines[len(edges):]) + "\n")
    out = tmp_path / "data"
    assert main(["prepare", "slmrd", "--input", str(slmrd_root), "--out", str(out)]) == 0
    ratings = [float(line) for line in (slmrd_root / "imdbEr.txt").read_text().splitlines()]
    written = (out / "polarity.txt").read_text(encoding="utf-8")
    assert written == "".join(f"{rating!r}\n" for rating in ratings)
    assert written.splitlines()[:len(edges)] == [
        "1e-05", "0.0001", "1e+16", "1234567890123456.0", "5e-324", "-0.0",
        "0.30000000000000004", "1.7976931348623157e+308",
    ]


# ----------------------------------------------------------------- scenarios


def test_scenario_three_passes_on_planted_data(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "s3"
    code = run_scenario(3, prepared, out)
    assert code == 0
    stdout = capsys.readouterr().out
    verdict = [l for l in stdout.splitlines() if l.startswith("scenario=3")][0]
    assert "verdict=PASS" in verdict
    assert "metric=val_accuracy" in verdict
    assert 'basis="weakest reported 89.02% minus 0.5pt allowance"' in verdict
    for name in ("metrics.csv", "model.ckpt", "manifest.json"):
        assert (out / name).exists()


def test_scenario_four_writes_transfer_report(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "s4"
    code = run_scenario(4, prepared, out)
    stdout = capsys.readouterr().out
    verdict = [l for l in stdout.splitlines() if l.startswith("scenario=4")][0]
    assert "metric=transfer_accuracy" in verdict
    assert code == 0 and "verdict=PASS" in verdict
    report = (out / "report.txt").read_text(encoding="utf-8")
    for token in ("qwrk", "vblorp", "walmington", "zzyzx"):
        assert f"\n{token}\n" in report or report.splitlines()[1] == token
    assert "mapped=36" in report
    assert "dropped=4" in report


def test_scenario_one_runs_the_kid_split(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "s1"
    code = run_scenario(1, prepared, out, extra=["--epochs", "10"])
    assert code in (0, 4)
    stdout = capsys.readouterr().out
    assert any(l.startswith("scenario=1 verdict=") for l in stdout.splitlines())
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "scenario"
    assert manifest["config"]["scenario"] == 1
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "epoch,train_bce,train_acc,val_bce,val_acc,seconds"
    assert 2 <= len(rows) <= 11


def test_scenario_one_inputs_hold_two_copies_of_the_kid_corpus(tmp_path, monkeypatch):
    """The kid corpus is encoded as it loads, then shuffled and halved, so the
    halves equal the loaded corpus's shuffled halves, encoded.  Only the
    shuffled copy and its halves are held; a loaded corpus kept alive beside
    them would be a third copy."""
    rows, per, width = 6000, 50, 200
    rng = np.random.default_rng(12)
    indices = (np.arange(per) * 4 + rng.integers(0, 4, (rows, 1))).ravel()
    template = Corpus(
        sparse.csr_matrix(
            (rng.integers(1, 9, rows * per), indices, np.arange(0, rows * per + 1, per)),
            shape=(rows, width),
        ),
        rng.integers(0, 2, rows),
    )
    for name in ("vocab.txt", "full.corpus"):
        (tmp_path / "kid").mkdir(exist_ok=True)
        (tmp_path / "kid" / name).touch()
    monkeypatch.setattr(corpus_module, "load_slmrd_vocab", lambda path: Vocabulary(token_list(width)))
    monkeypatch.setattr(cli, "_corpus", lambda path, vocab: copy_of(template))
    m = template.matrix
    one_copy = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + template.labels.nbytes
    tracemalloc.start()
    try:
        _, _, _, train_c, val_c, kid = cli._scenario_inputs(
            {"scenario": 1, "data_dir": str(tmp_path), "data_seed": 5}
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * one_copy, peak / one_copy
    mixed = shuffle(template, 5)
    for got, half in ((train_c, slice(None, rows // 2)), (val_c, slice(rows // 2, None))):
        want = encode_corpus(mixed.take(half), MULTI_HOT, width=width)
        for a, b in ((got.matrix.data, want.matrix.data), (got.matrix.indices, want.matrix.indices),
                     (got.matrix.indptr, want.matrix.indptr), (got.labels, want.labels)):
            assert a.dtype == b.dtype
            npt.assert_array_equal(a, b)
    assert kid is None


def test_scenario_flags_recorded_in_manifest(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "flags"
    run_scenario(3, prepared, out, extra=["--seed", "7"])
    capsys.readouterr()
    cfg = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert cfg["seed"] == 7
    assert cfg["optimizer"] == "adam"
    assert cfg["hidden"] == [8, 1]
    assert {"init_seed", "data_seed", "dropout_seed"} <= set(cfg)
    assert len({cfg["init_seed"], cfg["data_seed"], cfg["dropout_seed"]}) == 3


def test_scenario_missing_data_dir_exits_two(tmp_path, capsys):
    code = run_scenario(3, tmp_path / "none", tmp_path / "out")
    assert code == 2
    assert "prepare" in capsys.readouterr().err


def test_a_command_hashes_a_vocabulary_only_to_record_or_check_a_checkpoint(
    tmp_path, raw_trees, monkeypatch
):
    """prepare hashes nothing; train hashes the vocabulary its checkpoint
    records, eval and transfer the one they check the checkpoint against."""
    calls = []
    fingerprint = Vocabulary.fingerprint

    def counted(vocab):
        calls.append(vocab.size)
        return fingerprint(vocab)

    def hashes(*argv):
        calls.clear()
        assert main(list(argv)) == 0
        return len(calls)

    monkeypatch.setattr(Vocabulary, "fingerprint", counted)
    slmrd_root, kid_root = raw_trees
    slmrd, kid, run = tmp_path / "slmrd", tmp_path / "kid", tmp_path / "run"
    ckpt, polarity = str(run / "model.ckpt"), str(slmrd / "polarity.txt")
    assert hashes("prepare", "slmrd", "--input", str(slmrd_root), "--out", str(slmrd)) == 0
    assert hashes("prepare", "kid", "--word-index", str(kid_root / "word_index.json"),
                  "--sequences", str(kid_root / "sequences.tsv"), "--out", str(kid)) == 0
    assert hashes("train", "--train-corpus", str(slmrd / "train.corpus"),
                  "--val-corpus", str(slmrd / "test.corpus"), "--vocab", str(slmrd / "vocab.txt"),
                  "--polarity", polarity, "--encoding", "polarity-weighted", "--out", str(run),
                  *FAST_FLAGS, "--epochs", "1") == 1
    assert hashes("eval", "--checkpoint", ckpt, "--corpus", str(slmrd / "test.corpus"),
                  "--vocab", str(slmrd / "vocab.txt"), "--polarity", polarity) == 1
    assert hashes("transfer", "--checkpoint", ckpt, "--source-corpus", str(kid / "full.corpus"),
                  "--source-vocab", str(kid / "vocab.txt"),
                  "--target-vocab", str(slmrd / "vocab.txt"), "--polarity", polarity,
                  "--report", str(tmp_path / "report.txt")) == 1


# --------------------------------------------------------------------- train


def test_train_command_with_explicit_files(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "train"
    slmrd = prepared / "slmrd"
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--val-corpus", str(slmrd / "test.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
            "--encoding", "polarity-weighted",
            "--out", str(out),
            *FAST_FLAGS,
            "--epochs", "3",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "epochs_run=3" in stdout
    assert (out / "model.ckpt").exists()


def test_train_early_stop_via_target(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "early"
    slmrd = prepared / "slmrd"
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--val-corpus", str(slmrd / "test.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
            "--encoding", "polarity-weighted",
            "--out", str(out),
            *FAST_FLAGS,
            "--target-acc", "0.01",
        ]
    )
    assert code == 0
    assert "epochs_run=1" in capsys.readouterr().out


def peak_over_one_split(monkeypatch, argv):
    """(exit code, traced peak memory of ``main(argv)`` over the bytes of one
    loaded split): every corpus file the command reads loads as a copy of one
    6 000-review int64 corpus, over a 200-token vocabulary."""
    rows, per, width = 6000, 50, 200
    rng = np.random.default_rng(13)
    indices = (np.arange(per) * 4 + rng.integers(0, 4, (rows, 1))).ravel()
    template = Corpus(
        sparse.csr_matrix(
            (rng.integers(1, 9, rows * per), indices, np.arange(0, rows * per + 1, per)),
            shape=(rows, width),
        ),
        rng.integers(0, 2, rows),
    )
    monkeypatch.setattr(corpus_module, "load_slmrd_vocab", lambda path: Vocabulary(token_list(width)))
    monkeypatch.setattr(cli, "_corpus", lambda path, vocab: copy_of(template))
    m = template.matrix
    one_split = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + template.labels.nbytes
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak / one_split


def test_train_encodes_each_multi_hot_split_before_loading_the_next(tmp_path, monkeypatch, capsys):
    """The first split's int64 counts are freed by its encoding before the
    second split loads, so the command never holds two loaded splits."""
    code, peak = peak_over_one_split(monkeypatch, [
        "train", "--train-corpus", str(tmp_path / "train.corpus"),
        "--val-corpus", str(tmp_path / "test.corpus"), "--vocab", str(tmp_path / "vocab.txt"),
        "--encoding", "multi-hot", "--epochs", "0", "--out", str(tmp_path / "run"),
    ])
    assert code == 0
    assert "epochs_run=0" in capsys.readouterr().out
    assert peak < 2, peak


def test_scenario_one_encodes_the_kid_corpus_before_shuffling_it(tmp_path, monkeypatch, capsys):
    """Scenario 1's kid corpus is encoded as it loads, so its int64 counts are
    gone before the shuffle and the halves copy it."""
    kid = tmp_path / "data" / "kid"
    kid.mkdir(parents=True)
    for name in ("vocab.txt", "full.corpus"):
        (kid / name).touch()  # each read is replaced; the command checks they exist
    code, peak = peak_over_one_split(monkeypatch, [
        "scenario", "1", "--data-dir", str(tmp_path / "data"), "--epochs", "0",
        "--out", str(tmp_path / "run"),
    ])
    assert code == 4  # no epoch, so no accuracy to pass on
    assert "scenario=1 verdict=FAIL" in capsys.readouterr().out
    assert peak < 1.5, peak


def test_train_divergence_exits_three(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "diverge"
    slmrd = prepared / "slmrd"
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
            "--encoding", "polarity-weighted",
            "--out", str(out),
            "--hidden", "8,1",
            "--optimizer", "sgd",
            "--lr", "1e200",
            "--epochs", "1",
            "--dropout", "0",
            "--l2", "0",
            "--batch-size", "50",
        ]
    )
    assert code == 3
    assert "error=divergence" in capsys.readouterr().err


def test_train_divergence_while_evaluating_names_epoch_and_split(tmp_path, prepared, capsys):
    """100 more tokens rated 1.7e308, used by one validation row only, make
    the epoch-end evaluate overflow the first layer."""
    slmrd = prepared / "slmrd"
    width = load_slmrd_vocab(slmrd / "vocab.txt").size
    extra = [f"huge{i}" for i in range(100)]
    vocab, polarity, val = tmp_path / "vocab.txt", tmp_path / "polarity.txt", tmp_path / "val.corpus"
    vocab.write_text((slmrd / "vocab.txt").read_text(encoding="utf-8") + "\n".join(extra) + "\n",
                     encoding="utf-8")
    polarity.write_text((slmrd / "polarity.txt").read_text(encoding="utf-8") + "1.7e308\n" * 100,
                        encoding="utf-8")
    val.write_text("1\t" + " ".join(f"{width + i}:1" for i in range(100)) + "\n", encoding="utf-8")
    code = main([
        "train", "--train-corpus", str(slmrd / "train.corpus"), "--val-corpus", str(val),
        "--vocab", str(vocab), "--polarity", str(polarity), "--encoding", "polarity-weighted",
        "--out", str(tmp_path / "runs" / "diverge"), *FAST_FLAGS, "--epochs", "1",
    ])
    assert code == 3
    detail = "epoch 1 validation split: non-finite activation in forward pass"
    assert f'error=divergence detail="{detail}"' in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--l2", "nan"), ("--l2", "inf"),
    ("--epsilon", "nan"), ("--epsilon", "inf"),
])
def test_non_finite_training_value_exits_one(tmp_path, prepared, capsys, flag, value):
    slmrd = prepared / "slmrd"
    code = main([
        "train", "--train-corpus", str(slmrd / "train.corpus"),
        "--vocab", str(slmrd / "vocab.txt"), "--polarity", str(slmrd / "polarity.txt"),
        "--out", str(tmp_path / "out"), *FAST_FLAGS, "--optimizer", "nadam", "--epochs", "1",
        flag, value,
    ])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err


# Each width asks for weights of more than 2**57 bytes, beyond any address
# space, so the allocation is refused at once whatever the overcommit policy.
@pytest.mark.parametrize("hidden,layer,shape", [
    (f"{2**52},1", 0, f"(40, {2**52})"),
    (f"4,{2**55},1", 1, f"(4, {2**55})"),
], ids=["layer0", "layer1"])
def test_weights_too_large_to_allocate_exit_one(tmp_path, prepared, capsys, hidden, layer, shape):
    slmrd = prepared / "slmrd"
    code = main([
        "train", "--train-corpus", str(slmrd / "train.corpus"),
        "--vocab", str(slmrd / "vocab.txt"), "--out", str(tmp_path / "out"),
        *FAST_FLAGS, "--epochs", "1", "--hidden", hidden,
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f'error=usage detail="cannot allocate layer {layer} weights of shape {shape}"\n'
    )


# ------------------------------------------------------------ eval and stats


@pytest.fixture()
def s3_run(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "base"
    assert run_scenario(3, prepared, out) == 0
    capsys.readouterr()
    return out


def test_eval_checkpoint_on_corpus(tmp_path, prepared, s3_run, capsys):
    slmrd = prepared / "slmrd"
    code = main(
        [
            "eval",
            "--checkpoint", str(s3_run / "model.ckpt"),
            "--corpus", str(slmrd / "test.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("examples=300 accuracy=")
    accuracy = float(line.split("accuracy=")[1].split()[0])
    assert accuracy > 0.85


def test_eval_wrong_vocabulary_exits_two(tmp_path, prepared, s3_run, capsys):
    kid = prepared / "kid"
    slmrd = prepared / "slmrd"
    code = main(
        [
            "eval",
            "--checkpoint", str(s3_run / "model.ckpt"),
            "--corpus", str(kid / "full.corpus"),
            "--vocab", str(kid / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
        ]
    )
    assert code == 2
    assert "error=data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "transfer"])
@pytest.mark.parametrize("edit", [
    lambda m: m.update(provenance=None),
    lambda m: m["weights_shapes"][1].__setitem__(1, True),
], ids=["provenance_null", "weight_dim_true"])
def test_ill_typed_checkpoint_manifest_exits_two(tmp_path, prepared, s3_run, capsys, command, edit):
    slmrd, kid = prepared / "slmrd", prepared / "kid"
    ckpt = s3_run / "model.ckpt"
    edit_checkpoint_manifest(ckpt, edit)
    data = {
        "eval": ["--corpus", str(slmrd / "test.corpus"), "--vocab", str(slmrd / "vocab.txt")],
        "transfer": ["--source-corpus", str(kid / "full.corpus"),
                     "--source-vocab", str(kid / "vocab.txt"),
                     "--target-vocab", str(slmrd / "vocab.txt")],
    }[command]
    code = main([command, "--checkpoint", str(ckpt), *data,
                 "--polarity", str(slmrd / "polarity.txt")])
    assert code == 2
    assert f'error=data detail="{ckpt}: malformed manifest' in capsys.readouterr().err


def claim_manifest_length(length):
    """An edit that sets a checkpoint's manifest-length field to ``length``."""
    def edit(path):
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, len(CHECKPOINT_MAGIC) + 4, length)
        path.write_bytes(raw)
    return edit


def claim_input_rows(rows):
    """An edit whose manifest claims ``rows`` input rows, consistently."""
    def widen(manifest):
        manifest["config"]["input_width"] = manifest["vocab"]["size"] = rows
        manifest["weights_shapes"][0][0] = rows
    return lambda path: edit_checkpoint_manifest(path, widen)


@pytest.mark.parametrize("edit,detail", [
    (claim_manifest_length(2**63 - 1), "manifest overruns the file"),
    (claim_manifest_length(2**40), "manifest overruns the file"),
    (claim_input_rows(2**40), "parameter blob is "),
], ids=["manifest_2^63-1", "manifest_2^40", "blob_2^40_rows"])
def test_checkpoint_length_past_the_file_exits_two(prepared, s3_run, capsys, edit, detail):
    """A length that claims more bytes than the file holds is a data error,
    raised before anything that long is read or allocated."""
    slmrd, ckpt = prepared / "slmrd", s3_run / "model.ckpt"
    edit(ckpt)
    code = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(slmrd / "test.corpus"),
                 "--vocab", str(slmrd / "vocab.txt"), "--polarity", str(slmrd / "polarity.txt")])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error=" in line]
    assert code == 2
    assert len(errors) == 1
    assert errors[0].startswith(f'error=data detail="{ckpt}: {detail}')


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_checkpoint_read_from_a_pipe_exits_two(prepared, s3_run, capsys):
    """A pipe has no size to check the header's lengths against, so it is
    refused as unreadable, before its manifest is read."""
    slmrd = prepared / "slmrd"
    read_end, write_end = os.pipe()
    os.write(write_end, (s3_run / "model.ckpt").read_bytes()[:4096])
    os.close(write_end)
    pipe = f"/dev/fd/{read_end}"
    try:
        code = main(["eval", "--checkpoint", pipe, "--corpus", str(slmrd / "test.corpus"),
                     "--vocab", str(slmrd / "vocab.txt"), "--polarity", str(slmrd / "polarity.txt")])
    finally:
        os.close(read_end)
    errors = [line for line in capsys.readouterr().err.splitlines() if "error=" in line]
    assert code == 2
    assert len(errors) == 1
    assert errors[0].startswith(f'error=data detail="cannot read {pipe}: ')
    assert "not seekable" in errors[0]


def test_stats_prints_both_interpretations(prepared, capsys):
    slmrd = prepared / "slmrd"
    code = main(
        [
            "stats",
            "--corpus", str(slmrd / "train.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    for key in ("element_min=", "element_max=", "rowsum_min=", "rowsum_max="):
        assert key in line
    assert line.startswith("encoding=polarity-weighted examples=300")


def test_stats_without_polarity_exits_two(prepared, capsys):
    slmrd = prepared / "slmrd"
    code = main(["stats", "--corpus", str(slmrd / "train.corpus"),
                 "--vocab", str(slmrd / "vocab.txt")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == 'error=data detail="the polarity-weighted encoding needs --polarity"\n'
    assert captured.out == ""


# ------------------------------------------------------------------ transfer


def test_transfer_command_writes_report(tmp_path, prepared, s3_run, capsys):
    slmrd = prepared / "slmrd"
    kid = prepared / "kid"
    report_path = tmp_path / "transfer-report.txt"
    code = main(
        [
            "transfer",
            "--checkpoint", str(s3_run / "model.ckpt"),
            "--source-corpus", str(kid / "full.corpus"),
            "--source-vocab", str(kid / "vocab.txt"),
            "--target-vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"),
            "--report", str(report_path),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("mapped=36 dropped=4 examples=400")
    text = report_path.read_text(encoding="utf-8")
    assert "walmington" in text


@pytest.mark.parametrize("batch_size", ["7", "512"])
def test_eval_and_transfer_outputs_match_the_per_batch_oracle(
    tmp_path, prepared, s3_run, monkeypatch, capsys, batch_size
):
    slmrd, kid = prepared / "slmrd", prepared / "kid"
    ckpt, polarity = str(s3_run / "model.ckpt"), str(slmrd / "polarity.txt")
    report = tmp_path / "report.txt"
    commands = (
        ["eval", "--checkpoint", ckpt, "--corpus", str(slmrd / "test.corpus"),
         "--vocab", str(slmrd / "vocab.txt"), "--polarity", polarity],
        ["transfer", "--checkpoint", ckpt, "--source-corpus", str(kid / "full.corpus"),
         "--source-vocab", str(kid / "vocab.txt"), "--target-vocab", str(slmrd / "vocab.txt"),
         "--polarity", polarity, "--report", str(report)],
    )

    def outputs():
        for argv in commands:
            assert main([*argv, "--batch-size", batch_size]) == 0
        return capsys.readouterr().out, report.read_bytes()

    capsys.readouterr()
    got = outputs()
    monkeypatch.setattr("bowtie.train.evaluate", oracles.evaluate)
    monkeypatch.setattr("bowtie.transfer.evaluate", oracles.evaluate)
    assert outputs() == got


@pytest.mark.parametrize("batch_size", ["0", "-5"])
@pytest.mark.parametrize("command", ["eval", "transfer"])
def test_batch_size_below_one_exits_one(tmp_path, prepared, capsys, command, batch_size):
    slmrd, kid = prepared / "slmrd", prepared / "kid"
    vocab_path, polarity = str(slmrd / "vocab.txt"), str(slmrd / "polarity.txt")
    vocab = load_slmrd_vocab(vocab_path)
    ckpt, report = str(tmp_path / "model.ckpt"), tmp_path / "report.txt"
    model = init_model(ModelConfig(input_width=vocab.size, hidden_widths=(4, 1)))
    save_checkpoint(ckpt, model, vocab.size, vocab.fingerprint(), "polarity-weighted")
    argv = {
        "eval": ["eval", "--corpus", str(slmrd / "test.corpus"), "--vocab", vocab_path],
        "transfer": ["transfer", "--source-corpus", str(kid / "full.corpus"),
                     "--source-vocab", str(kid / "vocab.txt"), "--target-vocab", vocab_path,
                     "--report", str(report)],
    }[command]
    code = main([*argv, "--checkpoint", ckpt, "--polarity", polarity, "--batch-size", batch_size])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == 'error=usage detail="batch_size must be >= 1"\n'
    assert "accuracy=" not in captured.out
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "eval", "transfer", "stats"])
def test_empty_corpus_file_exits_two(tmp_path, prepared, capsys, command):
    slmrd = prepared / "slmrd"
    vocab_path, polarity = str(slmrd / "vocab.txt"), str(slmrd / "polarity.txt")
    vocab = load_slmrd_vocab(vocab_path)
    ckpt = str(tmp_path / "model.ckpt")
    model = init_model(ModelConfig(input_width=vocab.size, hidden_widths=(4, 1)))
    save_checkpoint(ckpt, model, vocab.size, vocab.fingerprint(), "polarity-weighted")
    empty = tmp_path / "empty.corpus"
    empty.write_text("", encoding="utf-8")
    argv = {
        "train": ["train", "--train-corpus", str(empty), "--vocab", vocab_path,
                  "--polarity", polarity, "--encoding", "polarity-weighted",
                  "--out", str(tmp_path / "out")],
        "eval": ["eval", "--checkpoint", ckpt, "--corpus", str(empty),
                 "--vocab", vocab_path, "--polarity", polarity],
        "transfer": ["transfer", "--checkpoint", ckpt, "--source-corpus", str(empty),
                     "--source-vocab", vocab_path, "--target-vocab", vocab_path,
                     "--polarity", polarity],
        "stats": ["stats", "--corpus", str(empty), "--vocab", vocab_path,
                  "--polarity", polarity],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error=data" in err and f"{empty}: no reviews" in err


# -------------------------------------------------------------------- replay


def test_replay_reproduces_scenario_metrics(tmp_path, prepared, s3_run, capsys):
    code = main(["replay", "--manifest", str(s3_run / "manifest.json")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "replay_match=1" in stdout
    assert (s3_run / "replay" / "metrics.csv").exists()


def test_replay_detects_tampered_metrics(tmp_path, prepared, s3_run, capsys):
    csv_path = s3_run / "metrics.csv"
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    cells = rows[1].split(",")
    cells[1] = "9.99999"
    rows[1] = ",".join(cells)
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main(
        ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r2")]
    )
    assert code == 4
    assert "replay_match=0" in capsys.readouterr().out


def test_replay_names_the_first_metrics_cell_that_differs(tmp_path, prepared, s3_run, capsys):
    csv_path = s3_run / "metrics.csv"
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    cells = rows[-1].split(",")
    recorded, cells[4] = cells[4], "0.123456"  # the last epoch's val_acc
    rows[-1] = ",".join(cells)
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r7")]
    assert main(argv) == 4
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[-2:] == [
        f"differs=metrics epoch={cells[0]} column=val_acc recorded=0.123456 replayed={recorded}",
        "replay_match=0",
    ]


def test_replay_names_both_row_counts_when_they_differ(tmp_path, prepared, s3_run, capsys):
    csv_path = s3_run / "metrics.csv"
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    csv_path.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")
    argv = ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r8")]
    assert main(argv) == 4
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[-2:] == [
        f"differs=metrics_rows recorded={len(rows) - 2} replayed={len(rows) - 1}",
        "replay_match=0",
    ]


def test_replay_of_metrics_that_are_not_utf8_exits_two(tmp_path, prepared, s3_run, capsys):
    """The recorded metrics.csv is read before the run, so a byte that is not
    UTF-8 is a data error naming the file and the byte, and nothing trains."""
    csv_path = s3_run / "metrics.csv"
    data = csv_path.read_bytes()
    at = data.index(b"\n") + 1  # the first byte of the first epoch's row
    csv_path.write_bytes(data[:at] + b"\xff" + data[at:])
    out = tmp_path / "r9"
    assert main(["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f'error=data detail="{csv_path}: not UTF-8: byte 0xff at offset {at} (invalid start byte)"'
    ]
    assert not out.exists()


def test_replay_of_a_manifest_that_is_not_utf8_names_its_byte(tmp_path, prepared, s3_run, capsys):
    manifest = s3_run / "manifest.json"
    data = manifest.read_bytes()
    at = data.index(b'"command"') + 1
    manifest.write_bytes(data[:at] + b"\xe9" + data[at:])
    out = tmp_path / "r10"
    assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f'error=data detail="{manifest}: not UTF-8: byte 0xe9 at offset {at}'
        ' (invalid continuation byte)"'
    ]
    assert not out.exists()


def edit_manifest(path, edit):
    body = json.loads(path.read_text(encoding="utf-8"))
    edit(body)
    path.write_text(json.dumps(body), encoding="utf-8")


def test_replay_reproduces_train_metrics_and_parameters(tmp_path, prepared, capsys):
    out = tmp_path / "runs" / "train"
    slmrd = prepared / "slmrd"
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--val-corpus", str(slmrd / "test.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--encoding", "multi-hot",
            "--out", str(out),
            *FAST_FLAGS,
            "--epochs", "2",
        ]
    )
    assert code == 0
    artifacts = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    model = load_checkpoint(str(out / "model.ckpt")).model
    blob = b"".join(t.astype("<f8").tobytes() for t in (*model.weights, *model.biases))
    assert artifacts["checkpoint_param_sha256"] == hashlib.sha256(blob).hexdigest()
    capsys.readouterr()
    assert main(["replay", "--manifest", str(out / "manifest.json")]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[-2].startswith("epochs_run=2 ")
    assert stdout[-1] == "replay_match=1"


def test_replay_detects_a_different_parameter_sha(tmp_path, prepared, s3_run, capsys):
    def edit(body):
        body["artifacts"]["checkpoint_param_sha256"] = "0" * 64

    edit_manifest(s3_run / "manifest.json", edit)
    code = main(
        ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r3")]
    )
    assert code == 4
    replayed = json.loads((tmp_path / "r3" / "manifest.json").read_text(encoding="utf-8"))
    sha = replayed["artifacts"]["checkpoint_param_sha256"]
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"differs=checkpoint_param_sha256 recorded={'0' * 64} replayed={sha}",
        "replay_match=0",
    ]


def test_run_manifest_records_the_versions_it_ran_on(s3_run):
    body = json.loads((s3_run / "manifest.json").read_text(encoding="utf-8"))
    assert body["versions"] == {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__
    }


@pytest.mark.parametrize(
    "sha, versions, code, differs",
    [
        ("0" * 64, {"numpy": "1.0.0", "python": "3.0.0"}, 4, ["numpy", "python"]),
        (None, {"numpy": "1.0.0"}, 0, []),
        ("0" * 64, None, 4, []),
    ],
    ids=["sha-differs", "sha-equal", "no-versions"],
)
def test_replay_names_differing_versions_only_when_the_run_differs(
    tmp_path, prepared, s3_run, capsys, sha, versions, code, differs
):
    """A version that differs is named after the sha's line, and only when the
    sha or the metrics differ; it never decides the match itself."""
    def edit(body):
        if sha:
            body["artifacts"]["checkpoint_param_sha256"] = sha
        if versions is None:
            del body["versions"]  # as written before the key existed
        else:
            body["versions"].update(versions)

    edit_manifest(s3_run / "manifest.json", edit)
    argv = ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r9")]
    assert main(argv) == code
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("differs=")]
    replayed = {"python": platform.python_version(), "numpy": np.__version__}
    assert lines[1 if sha else 0:] == [
        f"differs={name}_version recorded={versions[name]} replayed={replayed[name]}"
        for name in differs
    ]
    assert len(lines) == bool(sha) + len(differs)


def test_replay_without_parameter_sha_compares_metrics(tmp_path, prepared, s3_run, capsys):
    edit_manifest(s3_run / "manifest.json",
                  lambda body: body["artifacts"].pop("checkpoint_param_sha256"))
    code = main(
        ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r4")]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "replay_match=1"


def test_replay_from_another_directory_reads_metrics_beside_manifest(
    tmp_path, prepared, monkeypatch, capsys
):
    """A run made with a relative --out replays from a sibling directory,
    reading the original metrics.csv beside the manifest."""
    for name in ("work", "elsewhere"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert run_scenario(3, prepared, Path("runs") / "a") == 0
    monkeypatch.chdir(tmp_path / "elsewhere")
    capsys.readouterr()
    assert main(["replay", "--manifest", "../work/runs/a/manifest.json"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "replay_match=1"


def test_manifest_artifact_paths_resolve_from_another_directory(
    tmp_path, prepared, monkeypatch, capsys
):
    """The manifest records absolute artifact paths; the printed key=path
    lines keep the path as given on the command line."""
    for name in ("work", "elsewhere"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "work")
    capsys.readouterr()
    assert run_scenario(4, prepared, Path("runs") / "a") == 0
    printed = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        if line.split("=", 1)[0] in ("metrics_csv", "checkpoint", "report", "manifest")
    )
    assert printed == {
        "metrics_csv": str(Path("runs") / "a" / "metrics.csv"),
        "checkpoint": str(Path("runs") / "a" / "model.ckpt"),
        "report": str(Path("runs") / "a" / "report.txt"),
        "manifest": str(Path("runs") / "a" / "manifest.json"),
    }
    monkeypatch.chdir(tmp_path / "elsewhere")
    body = json.loads(Path("../work/runs/a/manifest.json").read_text(encoding="utf-8"))
    artifacts = body["artifacts"]
    for key in printed:
        path = Path(artifacts[key])
        assert path.is_absolute() and path.is_file(), key
        assert path == (tmp_path / "work" / printed[key]).resolve()


@pytest.mark.parametrize(
    "sha, code, verdict",
    [
        ("0" * 64, 4, "replay_match=0"),
        (None, 0, "replay_match=unknown (original metrics file is gone)"),
    ],
    ids=["different-sha", "recorded-sha"],
)
def test_replay_without_original_metrics_compares_parameter_sha(
    tmp_path, prepared, s3_run, capsys, sha, code, verdict
):
    (s3_run / "metrics.csv").unlink()
    if sha:
        edit_manifest(s3_run / "manifest.json",
                      lambda body: body["artifacts"].update(checkpoint_param_sha256=sha))
    argv = ["replay", "--manifest", str(s3_run / "manifest.json"), "--out", str(tmp_path / "r6")]
    assert main(argv) == code
    assert capsys.readouterr().out.splitlines()[-1] == verdict


@pytest.mark.parametrize(
    "edit",
    [
        lambda body: body["config"].pop("optimizer"),
        lambda body: body.update(config=[1, 2]),
        lambda body: body.update(artifacts=[]),
        lambda body: body["config"].update(scenario=7),
        lambda body: body["config"].update(hidden=5),
        lambda body: body["config"].update(optimizer="adagrad"),
        lambda body: body["config"].update(epochs="20"),
        lambda body: body["config"].update(init_seed=body["config"]["init_seed"] + 1),
        lambda body: body["config"].update(momentum=0.9),
        lambda body: body["config"].pop("threads"),
        lambda body: body["config"].update(threads=None),
        lambda body: body["config"].update(threads=-1),
        lambda body: body["config"].update(data_dir=None),
        lambda body: body.update(versions=["2.4.6"]),
        lambda body: body["config"].update(epochs=2**70),
    ],
    ids=["missing-key", "list-config", "list-artifacts", "scenario-out-of-range",
         "hidden-not-a-list", "optimizer-not-a-choice", "epochs-not-an-int",
         "init-seed-not-derived", "unknown-key", "threads-missing", "threads-null",
         "threads-negative", "data-dir-null", "list-versions", "epochs-above-the-limit"],
)
def test_replay_rejects_malformed_config(tmp_path, prepared, s3_run, capsys, edit):
    manifest = s3_run / "manifest.json"
    edit_manifest(manifest, edit)
    assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "r5")]) == 2
    err = capsys.readouterr().err
    assert "error=data" in err and f"{manifest}: malformed manifest" in err
    assert not (tmp_path / "r5").exists()  # rejected before the run


def test_replay_ignores_environment_for_recorded_values(
    tmp_path, prepared, monkeypatch, capsys
):
    """Recorded values, None included, are replayed as recorded; a BOWTIE_*
    variable of the replaying process changes none of them."""
    out = tmp_path / "runs" / "no-val"
    slmrd = prepared / "slmrd"
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--out", str(out),
            *FAST_FLAGS,
            "--epochs", "2",
        ]
    )
    assert code == 0
    cfg = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert cfg["val_corpus"] is None and cfg["target_acc"] is None
    monkeypatch.setenv("BOWTIE_VAL_CORPUS", str(slmrd / "test.corpus"))
    monkeypatch.setenv("BOWTIE_TARGET_ACC", "0.5")
    monkeypatch.setenv("BOWTIE_L2", "0.25")
    capsys.readouterr()
    assert main(["replay", "--manifest", str(out / "manifest.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "replay_match=1"


def numpy_dispatch_targets():
    """The dispatched CPU targets of numpy that this machine has, by the names
    NPY_DISABLE_CPU_FEATURES takes; they differ between numpy 1.x and 2.x."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


def train_argv(slmrd, out):
    """A polarity-weighted run of the default model, whose later layers'
    products take their bits from whatever computes them."""
    return ["train", "--train-corpus", str(slmrd / "train.corpus"),
            "--val-corpus", str(slmrd / "test.corpus"), "--vocab", str(slmrd / "vocab.txt"),
            "--polarity", str(slmrd / "polarity.txt"), "--encoding", "polarity-weighted",
            "--batch-size", "100", "--epochs", "2", "--seed", "1", "--out", str(out)]


def test_parameters_equal_under_every_blas_kernel_and_numpy_dispatch(tmp_path, prepared):
    """No product depends on which dgemm kernel OpenBLAS picks for the CPU, or
    on which SIMD targets numpy dispatches to."""
    settings = {kind: {"OPENBLAS_CORETYPE": kind, "NPY_DISABLE_CPU_FEATURES": None}
                for kind in (None, "Haswell", "Sandybridge", "Prescott")}
    settings["no-dispatch"] = {"OPENBLAS_CORETYPE": None,
                               "NPY_DISABLE_CPU_FEATURES": " ".join(numpy_dispatch_targets())}
    shas = {}
    for name, variables in settings.items():
        out = tmp_path / f"run-{name}"
        result = fresh_python(MAIN, *train_argv(prepared / "slmrd", out), **variables)
        assert result.returncode == 0, (name, result.stderr)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        shas[name] = manifest["artifacts"]["checkpoint_param_sha256"]
    assert len(set(shas.values())) == 1, shas


def test_replay_under_another_blas_kernel_matches(tmp_path, prepared, capsys):
    out = tmp_path / "run"
    assert main(train_argv(prepared / "slmrd", out)) == 0
    result = fresh_python(MAIN, "replay", "--manifest", str(out / "manifest.json"),
                          OPENBLAS_CORETYPE="Prescott")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "replay_match=1"


def test_a_run_that_fails_after_its_first_write_leaves_no_manifest(tmp_path, prepared, capsys):
    """The previous run's manifest goes before this run writes its metrics.csv,
    so it never vouches for another run's files."""
    out = tmp_path / "run"
    assert main(train_argv(prepared / "slmrd", out)) == 0
    (out / "model.ckpt").unlink()
    (out / "model.ckpt").mkdir()  # the checkpoint's rename fails
    assert main([*train_argv(prepared / "slmrd", out), "--epochs", "3"]) == 2
    assert len((out / "metrics.csv").read_text(encoding="utf-8").splitlines()) == 4
    assert not (out / "manifest.json").exists()
    capsys.readouterr()
    assert main(["replay", "--manifest", str(out / "manifest.json")]) == 2
    assert capsys.readouterr().err.startswith(
        f'error=data detail="cannot read {out / "manifest.json"}: ')


def test_a_failed_transfer_leaves_no_manifest_beside_the_old_report(
    tmp_path, prepared, monkeypatch, capsys
):
    out = tmp_path / "runs" / "s4"
    assert run_scenario(4, prepared, out) == 0
    report = (out / "report.txt").read_bytes()

    def fail(*args, **kwargs):
        raise DataError("transfer failed")

    monkeypatch.setattr(cli.transfer, "transfer_evaluate", fail)
    assert run_scenario(4, prepared, out) == 2
    assert 'error=data detail="transfer failed"' in capsys.readouterr().err
    assert (out / "report.txt").read_bytes() == report
    assert not (out / "manifest.json").exists()


def test_replay_rejects_malformed_manifest(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["replay", "--manifest", str(bad)]) == 2


# ----------------------------------------------------------------- overrides


def test_environment_variable_supplies_default(tmp_path, prepared, monkeypatch, capsys):
    out = tmp_path / "runs" / "env"
    slmrd = prepared / "slmrd"
    monkeypatch.setenv("BOWTIE_L2", "0.0321")
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--encoding", "multi-hot",
            "--out", str(out),
            "--hidden", "4,1",
            "--epochs", "1",
            "--dropout", "0",
            "--batch-size", "50",
        ]
    )
    assert code == 0
    cfg = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert cfg["l2"] == 0.0321


def test_explicit_flag_beats_environment(tmp_path, prepared, monkeypatch, capsys):
    out = tmp_path / "runs" / "env2"
    slmrd = prepared / "slmrd"
    monkeypatch.setenv("BOWTIE_EPOCHS", "9")
    code = main(
        [
            "train",
            "--train-corpus", str(slmrd / "train.corpus"),
            "--vocab", str(slmrd / "vocab.txt"),
            "--encoding", "multi-hot",
            "--out", str(out),
            "--hidden", "4,1",
            "--epochs", "2",
            "--dropout", "0",
            "--batch-size", "50",
        ]
    )
    assert code == 0
    cfg = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert cfg["epochs"] == 2


# positional arguments each command needs; they never read the environment
POSITIONALS = {"prepare": ["slmrd"], "scenario": ["2"]}


def optional_actions(parser):
    """(command, action) for every optional flag of every command, -h aside."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                yield command, action


def environment_value(action) -> str:
    """A valid value for ``action`` that differs from its default."""
    if action.choices:
        return next(str(c) for c in action.choices if c != action.default)
    if action.type in (int, cli._thread_count, float):
        return "0.375" if action.type is float else "7"
    return "4,1" if action.dest == "hidden" else f"from-env-{action.dest}"


def test_every_optional_flag_reads_its_environment_variable():
    flags = list(optional_actions(cli.build_parser({})))
    assert {command for command, _ in flags} == {
        "prepare", "scenario", "train", "eval", "transfer", "stats", "replay"
    }
    for command in {command for command, _ in flags}:
        # one environment per command: --encoding's default differs between commands
        actions = [action for c, action in flags if c == command]
        environ = {"BOWTIE_" + a.dest.upper(): environment_value(a) for a in actions}
        args = cli.build_parser(environ).parse_args([command, *POSITIONALS.get(command, [])])
        for action in actions:
            text = environ["BOWTIE_" + action.dest.upper()]
            expected = action.type(text) if action.type else text
            assert expected != action.default, (command, action.dest)
            assert getattr(args, action.dest) == expected, (command, action.dest)


def test_positionals_never_read_the_environment():
    parser = cli.build_parser({"BOWTIE_NUMBER": "2", "BOWTIE_DATASET": "kid"})
    assert parser.parse_args(["prepare", "slmrd"]).dataset == "slmrd"
    with pytest.raises(cli._UsageError):
        parser.parse_args(["scenario"])


def test_parser_built_without_environment_ignores_bowtie_variables(monkeypatch):
    monkeypatch.setenv("BOWTIE_L2", "0.5")
    monkeypatch.setenv("BOWTIE_OPTIMIZER", "sgd")
    args = cli.build_parser({}).parse_args(["train"])
    assert (args.l2, args.optimizer) == (0.019, "nadam")
    args = cli.build_parser().parse_args(["train"])
    assert (args.l2, args.optimizer) == (0.5, "sgd")


@pytest.fixture()
def chunk_calls(monkeypatch):
    """Every ``net._chunked`` call of the package, as (the thread count it ran
    at, the names of the ``bowtie-chunks`` helpers that ran one of its chunks).
    The 40-token first layer comes in ten chunks, evaluate in one per batch of 50."""
    calls, chunked = [], net._chunked

    def spy(height, work, scratch, rows=0):
        helpers = set()
        calls.append((net._THREADS, helpers))

        def spied(lo, hi, buffers):
            name = threading.current_thread().name
            if name.startswith("bowtie-chunks"):
                helpers.add(name)
            work(lo, hi, buffers)

        chunked(height, spied, scratch, rows)

    for module in (net, optim_module, train_module):
        monkeypatch.setattr(module, "_chunked", spy)
    monkeypatch.setattr(net, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(train_module, "_EVAL_ROWS", 50)
    return calls


def test_threads_flag_caps_the_chunk_threads(tmp_path, prepared, chunk_calls, capsys):
    """--threads counts the caller: at 1 no helper runs a chunk, at 2 at most
    one does per call; without it, and once main returns, the count is the default."""
    default, slmrd = net._THREADS, prepared / "slmrd"
    for threads in ("1", "2", None):
        chunk_calls.clear()
        argv = ["train", "--train-corpus", str(slmrd / "train.corpus"),
                "--val-corpus", str(slmrd / "test.corpus"), "--vocab", str(slmrd / "vocab.txt"),
                "--encoding", "multi-hot", "--out", str(tmp_path / f"run-{threads}"),
                "--hidden", "4,1", "--epochs", "1", "--dropout", "0", "--batch-size", "50"]
        assert main(argv + (["--threads", threads] if threads else [])) == 0
        count = min(int(threads or default), default)
        assert chunk_calls and {at for at, _ in chunk_calls} == {count}
        assert max(len(helpers) for _, helpers in chunk_calls) <= count - 1
        assert net._THREADS == default


def test_one_thread_and_the_default_train_the_same_bits(
    tmp_path, prepared, chunk_calls, monkeypatch, capsys
):
    """A run at --threads 1 and one whose chunks a helper may share write the
    same parameters and metrics, and the first's manifest replays to a match."""
    monkeypatch.setattr(net, "_THREADS", max(2, net._THREADS))  # a helper even on one CPU
    runs = {}
    for threads in ("1", None):
        out = tmp_path / f"run-{threads}"
        argv = train_argv(prepared / "slmrd", out) + (["--threads", threads] if threads else [])
        chunk_calls.clear()
        assert main(argv) == 0
        assert {at for at, _ in chunk_calls} == {1 if threads else net._THREADS}
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        runs[threads] = (manifest["artifacts"]["checkpoint_param_sha256"],
                         cli._metrics_rows(out / "metrics.csv"))
    assert runs["1"] == runs[None]
    capsys.readouterr()
    assert main(["replay", "--manifest", str(tmp_path / "run-1" / "manifest.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "replay_match=1"


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_negative_thread_count_exits_one_before_reading(tmp_path, monkeypatch, capsys, source):
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")  # reading would exit 2
    argv = ["train", "--train-corpus", missing, "--vocab", missing, "--out", out]
    if source == "flag":
        argv += ["--threads", "-1"]
    else:
        monkeypatch.setenv("BOWTIE_THREADS", "-1")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    named = "argument --threads:" if source == "flag" else "BOWTIE_THREADS='-1'"
    assert f"{named} must be an integer of 0 or more, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
