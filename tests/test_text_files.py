"""The vocabulary, polarity and word-index loaders against the reference.

``oracles`` holds the loaders that walk one line or one JSON entry at a
time.  The package reads each file whole, once, then splits a vocabulary
in one call, parses ratings with one ``np.fromiter`` over ``float``, and
sorts word-index ranks as one array; on every input both must give
bit-equal results or byte-equal messages.  The two differences are by
design: a JSON ``true`` is not a rank, and bytes that are not UTF-8 are a
data error naming the file and the offset of the first bad byte.  The
same bytes fed through a pipe give the same result, or the same message
with the pipe's name for the file's: a failure is explained from the
bytes already read, never by reading the input again.
"""

import json
import os
import threading
from contextlib import contextmanager, suppress

import numpy as np
import pytest

import oracles
from bowtie.corpus import Vocabulary, load_kid, load_polarity, load_slmrd_vocab
from bowtie.errors import DataError
from bowtie.transfer import build_vocab_map
from synth import odd_token, odd_vocabularies

LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]


def outcome(call):
    """What ``call`` returns, or the message of the DataError it raises."""
    try:
        return call()
    except DataError as exc:
        return f"DataError: {exc}"


def text_of(rng, lines):
    """``lines`` joined by mixed line ends, sometimes without the last one."""
    ends = [LINE_ENDS[int(rng.integers(len(LINE_ENDS)))] for _ in lines]
    if lines and rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@contextmanager
def piped(data):
    """The name, ``/dev/fd/N``, of a pipe that a thread feeds ``data`` into."""
    read_end, write_end = os.pipe()

    def feed():
        with suppress(BrokenPipeError), open(write_end, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)  # a reader that stopped early breaks the pipe
        feeder.join(timeout=60)
        assert not feeder.is_alive()


def random_tokens(rng, n):
    pool = ["a", "b", "the", "don't", "Don't", "caf\xe9", "٣", " x", "x ", "\t", "", "1_0", "　"]
    tokens = [odd_token(rng) if rng.random() < 0.3 else
              pool[int(rng.integers(len(pool)))] + str(int(rng.integers(50))) for _ in range(n)]
    for _ in range(int(rng.integers(0, 3))):  # blank lines and repeats, long ones too
        again = tokens[int(rng.integers(n))] if n else ""
        tokens.insert(int(rng.integers(n + 1)), str(rng.choice(["", "a1", "the7", again])))
    return tokens


def test_vocabulary_index_matches_the_reference():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        tokens = random_tokens(rng, int(rng.integers(0, 30)))

        def package():  # the target index build_vocab_map builds, read back from its map
            vocab = Vocabulary(tokens)
            return dict(zip(vocab.tokens, build_vocab_map(vocab, vocab).mapping.tolist()))

        assert outcome(package) == outcome(lambda: oracles.vocabulary_index(tokens))


def test_vocabulary_file_matches_the_reference(tmp_path):
    path = tmp_path / "imdb.vocab"
    for seed in range(80):
        rng = np.random.default_rng([seed, 1])
        path.write_bytes(text_of(rng, random_tokens(rng, int(rng.integers(0, 25)))).encode("utf-8"))
        got = outcome(lambda: load_slmrd_vocab(path))
        want = outcome(lambda: oracles.load_slmrd_vocab(path))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.tokens == want.tokens


@pytest.mark.parametrize("shape", sorted(odd_vocabularies()))
def test_odd_vocabulary_files_match_the_reference(tmp_path, shape):
    """Long ties, with the last token unique, a repeat of a long token, and
    a repeat of the first one."""
    tokens = odd_vocabularies()[shape]
    path = tmp_path / "vocab.txt"
    for lines in (tokens, tokens + [tokens[-2]], tokens[:-1] + [tokens[0], tokens[-1]]):
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        got = outcome(lambda: load_slmrd_vocab(path))
        want = outcome(lambda: oracles.load_slmrd_vocab(path))
        assert got == want if isinstance(want, str) else got.text == want.text


RATINGS = [
    "0.5", "-1.25", "0", "-0.0", "1e-320", "3.14159", "0.1", "1.7976931348623157e308",
    "  2.5  ", "\t-3\t", "　 4.75", "+7", ".5", "5.", "1_0", "٣", "1E5",
    "inf", "-inf", "nan", "1e400", "-1e400", "", "   ", "abc", "0x10", "1,5", "1 2",
]


def random_rating(rng):
    if rng.random() < 0.5:
        return repr(float(rng.normal(0, 2)) * 10.0 ** int(rng.integers(-8, 8)))
    return RATINGS[int(rng.integers(len(RATINGS)))]


def test_polarity_file_matches_the_reference(tmp_path):
    path = tmp_path / "imdbEr.txt"
    for seed in range(150):
        rng = np.random.default_rng([seed, 2])
        n = int(rng.integers(0, 12))
        bad = rng.random() < 0.4  # otherwise only values that parse and are finite
        lines = [random_rating(rng) for _ in range(n)]
        if not bad:
            lines = [line if np.isfinite(_float_or_nan(line)) else "1.5" for line in lines]
        path.write_bytes(text_of(rng, lines).encode("utf-8"))
        vocab = Vocabulary([f"t{i}" for i in range(n + int(rng.integers(-1, 2)) if n else 1)])
        got = outcome(lambda: load_polarity(path, vocab))
        want = outcome(lambda: oracles.load_polarity(path, vocab))
        with piped(path.read_bytes()) as pipe:
            via_pipe = outcome(lambda: load_polarity(pipe, vocab))
        if isinstance(want, str):
            assert got == want
            assert via_pipe == want.replace(str(path), pipe)
        else:
            for array in (got, via_pipe):
                assert array.dtype == want.dtype == np.float64
                assert array.view(np.int64).tolist() == want.view(np.int64).tolist()


def _float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return float("nan")


RANKS = [0, -1, 1.0, 1.5, "3", None, [1], 2**63, 2**70]


def random_word_index(rng):
    n = int(rng.integers(1, 12))
    tokens = [f"w{i}" for i in rng.permutation(40)[:n]]
    ranks = (rng.permutation(n) + 1 + int(rng.integers(0, 3))).tolist()
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(n))
        roll = rng.random()
        if roll < 0.4:
            ranks[i] = RANKS[int(rng.integers(len(RANKS)))]
        elif roll < 0.7:
            ranks[i] = ranks[int(rng.integers(n))]  # a shared rank
        else:  # a line break, or a lone surrogate, which JSON can spell and UTF-8 cannot
            tokens[i] = tokens[i] + rng.choice(["\n", "\r", "x\r\n", "\ud800", "\udfffx"])
    return dict(zip(tokens, ranks))


def test_word_index_matches_the_reference(tmp_path):
    wi, seq = tmp_path / "word_index.json", tmp_path / "sequences.tsv"
    seq.write_text("1\t\n", encoding="utf-8")
    for seed in range(120):
        rng = np.random.default_rng([seed, 3])
        wi.write_text(json.dumps(random_word_index(rng)), encoding="utf-8")
        got = outcome(lambda: load_kid(wi, seq)[0].tokens)
        assert got == outcome(lambda: oracles.word_index_tokens(wi))


def test_ranks_beyond_int64_still_load_in_rank_order(tmp_path):
    wi, seq = tmp_path / "word_index.json", tmp_path / "sequences.tsv"
    seq.write_text("1\t\n", encoding="utf-8")
    wi.write_text(json.dumps({"huge": 2**70, "small": 1, "mid": 2**63}), encoding="utf-8")
    assert load_kid(wi, seq)[0].tokens == ["small", "mid", "huge"]


@pytest.mark.parametrize("word_index,token", [
    ({"good": True, "bad": 2}, "good"),
    ({"a": True, "b": 1}, "a"),
    ({"a": 1, "b": False}, "b"),
])
def test_word_index_rejects_a_json_boolean_rank(tmp_path, word_index, token):
    wi, seq = tmp_path / "word_index.json", tmp_path / "sequences.tsv"
    seq.write_text("1\t3\n", encoding="utf-8")
    wi.write_text(json.dumps(word_index), encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_kid(wi, seq)
    assert str(err.value) == f"{wi}: rank for {token!r} must be a positive integer"


def not_utf8(path, good_lines, bad_at):
    """A file of ``good_lines`` with a \\xff byte inside line ``bad_at``."""
    lines = [line.encode("utf-8") for line in good_lines]
    lines[bad_at] = lines[bad_at][:1] + b"\xff" + lines[bad_at][1:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return sum(len(line) + 1 for line in lines[:bad_at]) + 1


def test_vocabulary_that_is_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "imdb.vocab"
    offset = not_utf8(path, [f"tok{i}" for i in range(5000)], 4321)
    with pytest.raises(UnicodeDecodeError):
        oracles.load_slmrd_vocab(path)
    with pytest.raises(DataError) as err:
        load_slmrd_vocab(path)
    assert str(err.value) == (
        f"{path}: not UTF-8: byte 0xff at offset {offset} (invalid start byte)"
    )
    with piped(path.read_bytes()) as pipe, pytest.raises(DataError) as err:
        load_slmrd_vocab(pipe)
    assert str(err.value) == f"{pipe}: not UTF-8: byte 0xff at offset {offset} (invalid start byte)"


def test_polarity_that_is_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "imdbEr.txt"
    offset = not_utf8(path, [f"{i / 7!r}" for i in range(5000)], 4321)
    vocab = Vocabulary([f"t{i}" for i in range(5000)])
    with pytest.raises(UnicodeDecodeError):
        oracles.load_polarity(path, vocab)
    with pytest.raises(DataError) as err:
        load_polarity(path, vocab)
    assert str(err.value) == (
        f"{path}: not UTF-8: byte 0xff at offset {offset} (invalid start byte)"
    )
    with piped(path.read_bytes()) as pipe, pytest.raises(DataError) as err:
        load_polarity(pipe, vocab)
    assert str(err.value) == f"{pipe}: not UTF-8: byte 0xff at offset {offset} (invalid start byte)"


def test_word_index_that_is_not_utf8_is_a_data_error(tmp_path):
    wi, seq = tmp_path / "word_index.json", tmp_path / "sequences.tsv"
    seq.write_text("1\t3\n", encoding="utf-8")
    offset = not_utf8(wi, ["{", '"alpha": 1,', '"beta": 2', "}"], 2)
    with pytest.raises(UnicodeDecodeError):
        oracles.word_index_tokens(wi)
    with pytest.raises(DataError) as err:
        load_kid(wi, seq)
    assert str(err.value) == f"{wi}: not UTF-8: byte 0xff at offset {offset} (invalid start byte)"
    with piped(wi.read_bytes()) as pipe, pytest.raises(DataError) as err:
        load_kid(pipe, seq)
    assert str(err.value) == f"{pipe}: not UTF-8: byte 0xff at offset {offset} (invalid start byte)"
