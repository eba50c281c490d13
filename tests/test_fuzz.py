"""A standing fuzz of what ``bowtie`` reads: no input ends ``main`` in a traceback.

Each case edits one input of a small prepared tree, a checkpoint or a run
manifest, then runs one command through ``main``.  Edits swap one JSON value
of the checkpoint manifest or of ``manifest.json`` for each of ``VALUES``,
or overwrite a few random bytes of a checkpoint, a canonical file or a raw
input.  Whatever the outcome, the exit code is 0-4; an exit of 1-3 prints
exactly one ``error=<class> detail="..."`` line on stderr, and an exit of
0 or 4 (a verdict or replay mismatch) prints none.  Every draw is seeded.
"""

import contextlib
import copy
import io
import json
import re
import shutil

import numpy as np
import pytest

from bowtie.cli import main
from synth import (
    edit_checkpoint_manifest, planted_corpus, rating_table, token_list, write_kid_tree,
    write_slmrd_tree,
)

VALUES = [None, True, -1, 0, 1e308, float("nan"), "x", [], {}, [1], 2**70, 1.5]
ERROR = re.compile(r'error=(usage|data|divergence) detail=".*"')


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """Raw and prepared inputs, a checkpoint and the run manifest of a short
    training run, all small enough that a command takes milliseconds."""
    root = tmp_path_factory.mktemp("fuzz")
    tokens, ratings = token_list(30), rating_table(200, 30)
    slmrd = write_slmrd_tree(root / "raw" / "slmrd", tokens, ratings,
                             planted_corpus(201, 40, ratings), planted_corpus(202, 40, ratings))
    kid = write_kid_tree(root / "raw" / "kid", tokens[:26] + token_list(4, "kid"),
                         planted_corpus(203, 40, ratings))
    data = root / "data"
    for argv in (
        ["prepare", "slmrd", "--input", str(slmrd), "--out", str(data / "slmrd")],
        ["prepare", "kid", "--word-index", str(kid / "word_index.json"),
         "--sequences", str(kid / "sequences.tsv"), "--out", str(data / "kid")],
        ["train", "--train-corpus", str(data / "slmrd" / "train.corpus"),
         "--val-corpus", str(data / "slmrd" / "test.corpus"),
         "--vocab", str(data / "slmrd" / "vocab.txt"),
         "--polarity", str(data / "slmrd" / "polarity.txt"), "--encoding", "polarity-weighted",
         "--hidden", "4,1", "--optimizer", "adam", "--batch-size", "20", "--epochs", "2",
         "--out", str(root / "run")],
    ):
        assert outcome(argv)[0] == 0
    return root


def outcome(argv):
    """``main(argv)``'s exit code and stderr lines; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # what the parser exits with
            code = exc.code
    return code, err.getvalue().splitlines()


def check(argv):
    code, lines = outcome(argv)
    errors = [line for line in lines if line.startswith("error=")]
    assert code in range(5), (argv, code, lines)
    if code in (1, 2, 3):
        assert len(errors) == 1 and ERROR.fullmatch(errors[0]), (argv, code, lines)
    else:
        assert not errors, (argv, code, lines)


def paths(node, prefix=()):
    """The path of every value inside JSON ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from paths(child, (*prefix, key))


def swap(doc, path, value):
    """A copy of JSON ``doc`` with the value at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def flip(data: bytes, rng) -> bytes:
    """``data`` with 1 to 3 random bytes overwritten by random values."""
    out = bytearray(data)
    for at in rng.integers(len(out), size=int(rng.integers(1, 4))):
        out[at] = int(rng.integers(256))
    return bytes(out)


def commands(tree, ckpt, corpus=None, vocab=None, polarity=None):
    """``eval`` and ``transfer`` of checkpoint ``ckpt`` on the prepared tree,
    with any of its slmrd files replaced."""
    slmrd, kid = tree / "data" / "slmrd", tree / "data" / "kid"
    vocab = vocab or slmrd / "vocab.txt"
    polarity = f"--polarity={polarity or slmrd / 'polarity.txt'}"
    return [
        ["eval", f"--checkpoint={ckpt}", f"--corpus={corpus or slmrd / 'test.corpus'}",
         f"--vocab={vocab}", polarity],
        ["transfer", f"--checkpoint={ckpt}", f"--source-corpus={kid / 'full.corpus'}",
         f"--source-vocab={kid / 'vocab.txt'}", f"--target-vocab={vocab}", polarity,
         f"--report={tree / 'report.txt'}"],
    ]


def test_checkpoint_manifest_values(tree, tmp_path):
    original = (tree / "run" / "model.ckpt").read_bytes()
    ckpt, manifest = tmp_path / "model.ckpt", {}
    ckpt.write_bytes(original)
    edit_checkpoint_manifest(ckpt, manifest.update)  # reads it, leaves it as it was
    for path in paths(manifest):
        for value in VALUES:
            ckpt.write_bytes(original)
            edit_checkpoint_manifest(ckpt, lambda m: m.update(swap(m, path, value)))
            for argv in commands(tree, ckpt):
                check(argv)


def test_checkpoint_bytes(tree, tmp_path):
    rng = np.random.default_rng(1)
    original = (tree / "run" / "model.ckpt").read_bytes()
    ckpt = tmp_path / "model.ckpt"
    for _ in range(60):
        ckpt.write_bytes(flip(original, rng))
        for argv in commands(tree, ckpt):
            check(argv)


def test_run_manifest_values_through_replay(tree, tmp_path):
    rng = np.random.default_rng(2)
    body = json.loads((tree / "run" / "manifest.json").read_text(encoding="utf-8"))
    cases = [(path, value) for path in paths(body) for value in VALUES]
    # 80 swaps drawn outside the recorded versions, and every swap of those
    build = [case for case in cases if case[0][0] == "versions"]
    cases = [case for case in cases if case[0][0] != "versions"]
    drawn = [cases[at] for at in rng.choice(len(cases), size=80, replace=False)]
    manifest = tmp_path / "manifest.json"
    (tmp_path / "metrics.csv").write_bytes((tree / "run" / "metrics.csv").read_bytes())
    for path, value in drawn + build:
        manifest.write_text(json.dumps(swap(body, path, value)), encoding="utf-8")
        check(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "replay")])


SLMRD = {"corpus": "test.corpus", "vocab": "vocab.txt", "polarity": "polarity.txt"}


@pytest.mark.parametrize("role", sorted(SLMRD))
def test_canonical_file_bytes(tree, tmp_path, role):
    rng = np.random.default_rng([3, sorted(SLMRD).index(role)])
    slmrd = tree / "data" / "slmrd"
    files = {key: slmrd / name for key, name in SLMRD.items()}
    original, files[role] = files[role].read_bytes(), tmp_path / SLMRD[role]
    for _ in range(30):
        files[role].write_bytes(flip(original, rng))
        check(commands(tree, tree / "run" / "model.ckpt", **files)[0])
        check(["stats", *(f"--{key}={path}" for key, path in files.items())])


RAW = ["imdb.vocab", "imdbEr.txt", "train/labeledBow.feat", "test/labeledBow.feat",
       "word_index.json", "sequences.tsv"]


@pytest.mark.parametrize("name", RAW)
def test_raw_input_bytes(tree, tmp_path, name):
    rng = np.random.default_rng([4, RAW.index(name)])
    dataset = "kid" if name in ("word_index.json", "sequences.tsv") else "slmrd"
    raw = shutil.copytree(tree / "raw" / dataset, tmp_path / dataset)
    inputs = {
        "slmrd": ["--input", str(raw)],
        "kid": ["--word-index", str(raw / "word_index.json"), "--sequences", str(raw / "sequences.tsv")],
    }[dataset]
    original = (raw / name).read_bytes()
    for i in range(20):
        (raw / name).write_bytes(flip(original, rng))
        check(["prepare", dataset, *inputs, "--out", str(tmp_path / f"out{i}")])
