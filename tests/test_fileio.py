"""Every input is read whole in one read; every artifact is replaced whole or not at all."""

import errno

import pytest

from bowtie import fileio
from bowtie.cli import main
from bowtie.corpus import save_corpus_file
from bowtie.encode import PolarityStats
from bowtie.errors import DataError
from bowtie.net import ModelConfig, init_model
from bowtie.train import EpochMetrics, EvalResult, emit_metrics_csv, save_checkpoint
from bowtie.transfer import TransferReport, write_transfer_report
from synth import corpus_from_rows, planted_corpus, rating_table, token_list
from synth import write_kid_tree, write_slmrd_tree

OLD = b"previous content\n"


class HalfThenFail:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def failing_writes(monkeypatch):
    """A set of names: a write through ``fileio.replacing`` to a file whose
    name contains one of them fails midway."""
    names = set()

    def fake_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return HalfThenFail(fh) if any(n in str(file) for n in names) else fh

    monkeypatch.setattr(fileio, "open", fake_open, raising=False)
    return names


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_read_text_ends_lines_as_text_mode_open_does(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"a\r\nb\rc\n\r\n\r\rd\xc2\x85e\xe2\x80\xa8f")
    with open(path, encoding="utf-8") as fh:
        assert fileio.read_text(path) == fh.read() == "a\nb\nc\n\n\n\nd\x85e\u2028f"


def test_read_bytes_names_what_it_cannot_read(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(DataError, match=f"^cannot read {path}: "):
            fileio.read_bytes(path)


def test_replacing_moves_the_finished_file_into_place(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    with fileio.replacing(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
    assert snapshot(tmp_path) == {"out.txt": b"new\n"}


def test_replacing_keeps_the_old_file_when_the_block_raises(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    with pytest.raises(RuntimeError):
        with fileio.replacing(path, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert snapshot(tmp_path) == {"out.txt": OLD}


def report():
    return TransferReport(
        source_vocab_size=3, target_vocab_size=2, mapped_count=2, dropped=["zzyzx"],
        stats=PolarityStats(-1.0, 1.0, -2.0, 2.0), result=EvalResult(0.5, 0.75, 4),
    )


WRITERS = {
    "corpus": lambda path: save_corpus_file(
        corpus_from_rows([[(0, 2), (3, 1)], []], [1, 0], width=4), path
    ),
    "checkpoint": lambda path: save_checkpoint(
        str(path), init_model(ModelConfig(input_width=4, hidden_widths=(2, 1))),
        4, "0" * 64, "multi-hot",
    ),
    "metrics": lambda path: emit_metrics_csv(
        [EpochMetrics(1, 0.5, 0.8, 0.6, 0.7, 0.1)], str(path)
    ),
    "report": lambda path: write_transfer_report(report(), str(path)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_midway_keeps_the_previous_file(tmp_path, failing_writes, writer):
    path = tmp_path / "artifact"
    path.write_bytes(OLD)
    failing_writes.add("artifact")
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](path)
    assert snapshot(tmp_path) == {"artifact": OLD}


def test_failed_prepare_keeps_every_previous_output(tmp_path, failing_writes, capsys):
    tokens = token_list(12)
    ratings = rating_table(1, 12)
    corpus = planted_corpus(2, 20, ratings)
    slmrd = write_slmrd_tree(tmp_path / "raw" / "slmrd", tokens, ratings, corpus, corpus)
    kid = write_kid_tree(tmp_path / "raw" / "kid", tokens, corpus)
    commands = {
        "slmrd": ["prepare", "slmrd", "--input", str(slmrd), "--out", str(tmp_path / "slmrd")],
        "kid": ["prepare", "kid", "--word-index", str(kid / "word_index.json"),
                "--sequences", str(kid / "sequences.tsv"), "--out", str(tmp_path / "kid")],
    }
    for argv in commands.values():
        assert main(argv) == 0
    for name in ("slmrd", "kid"):
        before = snapshot(tmp_path / name)
        for output in before:
            failing_writes.clear()
            failing_writes.add(output)
            assert main(commands[name]) == 2
            assert snapshot(tmp_path / name) == before
    assert "No space left" in capsys.readouterr().err


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, failing_writes, capsys):
    tokens = token_list(12)
    ratings = rating_table(3, 12)
    corpus = planted_corpus(4, 40, ratings)
    slmrd = write_slmrd_tree(tmp_path / "raw", tokens, ratings, corpus, corpus)
    assert main(["prepare", "slmrd", "--input", str(slmrd), "--out", str(tmp_path / "d")]) == 0
    train = ["train", "--train-corpus", str(tmp_path / "d" / "train.corpus"),
             "--vocab", str(tmp_path / "d" / "vocab.txt"), "--out", str(tmp_path / "run"),
             "--hidden", "2,1", "--epochs", "1", "--batch-size", "20"]
    assert main(train) == 0
    manifest = (tmp_path / "run" / "manifest.json").read_bytes()
    failing_writes.add("manifest.json")
    assert main(train) == 2
    assert (tmp_path / "run" / "manifest.json").read_bytes() == manifest
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "manifest.json", "metrics.csv", "model.ckpt"
    ]
