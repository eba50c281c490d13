import hashlib
import itertools
import string
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from bowtie.corpus import (
    Vocabulary,
    load_corpus_file,
    load_kid,
    load_polarity,
    load_slmrd_bow,
    load_slmrd_vocab,
    save_corpus_file,
    shuffle,
)
from bowtie.errors import DataError
from synth import (
    corpus_from_rows,
    planted_corpus,
    rating_table,
    rows_of,
    token_list,
    write_kid_tree,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- vocabulary


def test_vocab_line_number_is_index(tmp_path):
    vocab = load_slmrd_vocab(write(tmp_path / "v.txt", "a\nb\nc\n"))
    assert vocab.tokens == ["a", "b", "c"]
    assert vocab.size == 3


def test_vocab_duplicate_reports_both_lines(tmp_path):
    path = write(tmp_path / "v.txt", "a\nb\na\n")
    with pytest.raises(DataError) as err:
        load_slmrd_vocab(path)
    assert "'a'" in str(err.value)
    assert "1" in str(err.value) and "3" in str(err.value)


def test_vocab_empty_file_rejected(tmp_path):
    with pytest.raises(DataError):
        load_slmrd_vocab(write(tmp_path / "v.txt", ""))


def test_vocab_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_slmrd_vocab(tmp_path / "absent.txt")


def test_vocab_fingerprint_tracks_content_and_order():
    a = Vocabulary(["x", "y"])
    b = Vocabulary(["y", "x"])
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == Vocabulary(["x", "y"]).fingerprint()
    assert len(a.fingerprint()) == 64


@pytest.mark.parametrize("tokens", [[], [""], ["", "a"], ["caf\xe9", "\u0663", " x\t"]])
def test_vocab_gives_back_its_tokens(tokens):
    """One string holds the tokens, so no tokens and one empty token differ only by size."""
    vocab = Vocabulary(tokens)
    assert (vocab.size, vocab.tokens) == (len(tokens), tokens)
    assert vocab.fingerprint() == hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("tokens, bad", [
    (["a\nb", "c"], 0), (["a", "b\nc"], 1), (["a", "b", "\r"], 2), (["a\r\n"], 0),
])
def test_vocab_rejects_a_token_with_a_line_break(tokens, bad):
    """Otherwise ["a\\nb", "c"] and ["a", "b\\nc"] would share size and fingerprint."""
    with pytest.raises(DataError, match=f"at index {bad} contains a line break"):
        Vocabulary(tokens)


def test_vocab_rejects_a_token_utf8_cannot_encode():
    """A lone surrogate has no UTF-8 bytes, and tokens are told apart by theirs."""
    with pytest.raises(DataError) as err:
        Vocabulary(["ok", "x\udfff", "\ud800"])
    assert str(err.value) == "token 'x\\udfff' at index 1 is not encodable as UTF-8"


def shortlex_words(n):
    """The paper-shape vocabulary's tokens: the first ``n`` words over a-z in
    shortlex order, every 20th with "'s" after it."""
    words = (
        "".join(letters)
        for size in itertools.count(1)
        for letters in itertools.product(string.ascii_lowercase, repeat=size)
    )
    return [w + "'s" if i % 20 == 7 else w for i, w in zip(range(n), words)]


def test_loading_a_vocab_peaks_under_twenty_times_its_file(tmp_path):
    """Repeats are found on the file's bytes, a few machine words a token."""
    path = tmp_path / "vocab.txt"
    path.write_bytes(("\n".join(shortlex_words(89_527)) + "\n").encode("utf-8"))
    tracemalloc.start()
    try:
        load_slmrd_vocab(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a str object per token, and a set over them, peak at about 30 times
    assert peak < 20 * path.stat().st_size, peak / path.stat().st_size


def test_loaded_vocab_keeps_one_string_the_size_of_its_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(("\n".join(token_list(89_527)) + "\n").encode("utf-8"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vocab = load_slmrd_vocab(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert vocab.size == 89_527
    # a str object per token would hold about 5 MB more
    assert held <= path.stat().st_size + 65_536, held
    assert vocab.fingerprint() == hashlib.sha256(path.read_bytes()[:-1]).hexdigest()


# ------------------------------------------------------------------ polarity


def test_polarity_parses_aligned_file(tmp_path):
    vocab = Vocabulary(["a", "b"])
    table = load_polarity(write(tmp_path / "er.txt", "0.5\n-1.25\n"), vocab)
    npt.assert_array_equal(table, [0.5, -1.25])
    assert len(table) == 2


def test_polarity_length_mismatch_reports_both_counts(tmp_path):
    vocab = Vocabulary(["a", "b"])
    path = write(tmp_path / "er.txt", "0.5\n-1.25\n3.0\n")
    with pytest.raises(DataError) as err:
        load_polarity(path, vocab)
    assert "3" in str(err.value) and "2" in str(err.value)


def test_polarity_unparseable_line_is_located(tmp_path):
    vocab = Vocabulary(["a", "b"])
    path = write(tmp_path / "er.txt", "0.5\nbogus\n")
    with pytest.raises(DataError, match="line 2"):
        load_polarity(path, vocab)


def test_polarity_rejects_non_finite(tmp_path):
    vocab = Vocabulary(["a", "b"])
    path = write(tmp_path / "er.txt", "0.5\nnan\n")
    with pytest.raises(DataError, match="non-finite"):
        load_polarity(path, vocab)


# ----------------------------------------------------------------- bow files


def test_bow_rating_seven_is_positive(tmp_path):
    vocab = Vocabulary(token_list(6))
    corpus = load_slmrd_bow(write(tmp_path / "f.feat", "10 0:2 5:1\n"), vocab)
    assert corpus.labels.tolist() == [1]
    assert rows_of(corpus.matrix) == [[(0, 2), (5, 1)]]
    assert corpus.matrix.shape == (1, 6)


def test_bow_rating_four_or_less_is_negative(tmp_path):
    vocab = Vocabulary(token_list(6))
    corpus = load_slmrd_bow(write(tmp_path / "f.feat", "1 3:4\n"), vocab)
    assert corpus.labels.tolist() == [0]
    assert corpus.matrix.sum() == 4


@pytest.mark.parametrize("rating", [5, 6])
def test_bow_neutral_ratings_rejected(tmp_path, rating):
    vocab = Vocabulary(token_list(6))
    path = write(tmp_path / "f.feat", f"{rating} 0:1\n")
    with pytest.raises(DataError, match="no defined label"):
        load_slmrd_bow(path, vocab)


def test_bow_rating_out_of_range(tmp_path):
    vocab = Vocabulary(token_list(6))
    with pytest.raises(DataError, match="outside"):
        load_slmrd_bow(write(tmp_path / "f.feat", "11 0:1\n"), vocab)


def test_bow_pairs_come_back_sorted(tmp_path):
    vocab = Vocabulary(token_list(8))
    corpus = load_slmrd_bow(write(tmp_path / "f.feat", "8 5:1 0:2 3:7\n"), vocab)
    assert rows_of(corpus.matrix) == [[(0, 2), (3, 7), (5, 1)]]


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("8 0:1 0:2", "duplicate"),
        ("8 9:1", "outside"),
        ("8 3:0", ">= 1"),
        ("8 3", "malformed pair"),
        ("8 x:1", "malformed pair"),
        ("pos 3:1", "malformed rating"),
    ],
)
def test_bow_malformed_lines(tmp_path, line, fragment):
    vocab = Vocabulary(token_list(6))
    path = write(tmp_path / "f.feat", line + "\n")
    with pytest.raises(DataError, match=fragment):
        load_slmrd_bow(path, vocab)


def test_bow_line_numbers_in_errors(tmp_path):
    vocab = Vocabulary(token_list(6))
    path = write(tmp_path / "f.feat", "9 0:1\n6 0:1\n")
    with pytest.raises(DataError, match="line 2"):
        load_slmrd_bow(path, vocab)


# ----------------------------------------------------------------------- kid


def kid_files(tmp_path, word_index, lines):
    import json

    wi = write(tmp_path / "wi.json", json.dumps(word_index))
    seq = write(tmp_path / "seq.tsv", "".join(lines))
    return wi, seq


def test_kid_vocab_is_rank_ordered(tmp_path):
    wi, seq = kid_files(tmp_path, {"b": 2, "a": 1, "c": 3}, ["1\t3 4 5\n"])
    vocab, corpus = load_kid(wi, seq, index_offset=3)
    assert vocab.tokens == ["a", "b", "c"]
    assert rows_of(corpus.matrix) == [[(0, 1), (1, 1), (2, 1)]]


def test_kid_sequence_folds_to_counts(tmp_path):
    word_index = {tok: i + 1 for i, tok in enumerate(token_list(13))}
    wi, seq = kid_files(tmp_path, word_index, ["1\t7 7 12\n"])
    _, corpus = load_kid(wi, seq, index_offset=0)
    assert rows_of(corpus.matrix) == [[(7, 2), (12, 1)]]
    assert corpus.labels.tolist() == [1]


def test_kid_values_below_offset_dropped(tmp_path):
    word_index = {tok: i + 1 for i, tok in enumerate(token_list(5))}
    wi, seq = kid_files(tmp_path, word_index, ["0\t0 1 2 3 3 4\n"])
    _, corpus = load_kid(wi, seq, index_offset=3)
    assert rows_of(corpus.matrix) == [[(0, 2), (1, 1)]]


def test_kid_rank_beyond_vocab_rejected(tmp_path):
    word_index = {tok: i + 1 for i, tok in enumerate(token_list(5))}
    wi, seq = kid_files(tmp_path, word_index, ["1\t3 99\n"])
    with pytest.raises(DataError, match="outside"):
        load_kid(wi, seq, index_offset=3)


@pytest.mark.parametrize("line", ["3 4 5\n", "2\t3 4\n", "x\t3\n", "1\t3 x\n"])
def test_kid_malformed_lines(tmp_path, line):
    word_index = {tok: i + 1 for i, tok in enumerate(token_list(5))}
    wi, seq = kid_files(tmp_path, word_index, [line])
    with pytest.raises(DataError):
        load_kid(wi, seq, index_offset=3)


def test_kid_duplicate_rank_rejected(tmp_path):
    wi, seq = kid_files(tmp_path, {"a": 1, "b": 1}, ["1\t3\n"])
    with pytest.raises(DataError, match="share rank"):
        load_kid(wi, seq)


def test_kid_word_index_must_be_json_object(tmp_path):
    wi, seq = kid_files(tmp_path, {"a": 1}, ["1\t3\n"])
    write(tmp_path / "wi.json", "[1, 2]")
    with pytest.raises(DataError):
        load_kid(tmp_path / "wi.json", seq)


def test_kid_roundtrip_through_tree_writer(tmp_path):
    ratings = rating_table(7, 30)
    corpus = planted_corpus(8, 40, ratings)
    root = write_kid_tree(tmp_path / "kid", token_list(30), corpus, offset=3)
    vocab, loaded = load_kid(root / "word_index.json", root / "sequences.tsv", 3)
    assert vocab.tokens == token_list(30)
    assert len(loaded) == 40
    assert rows_of(loaded.matrix) == rows_of(corpus.matrix)
    npt.assert_array_equal(loaded.labels, corpus.labels)


# ------------------------------------------------------------------- shuffle


def test_shuffle_same_seed_same_order():
    ratings = rating_table(1, 20)
    corpus = planted_corpus(2, 50, ratings)
    a = shuffle(corpus, seed=99)
    b = shuffle(corpus, seed=99)
    npt.assert_array_equal(a.labels, b.labels)
    assert rows_of(a.matrix) == rows_of(b.matrix)


def test_shuffle_is_a_permutation():
    ratings = rating_table(3, 20)
    corpus = planted_corpus(4, 60, ratings)
    shuffled = shuffle(corpus, seed=5)
    assert len(shuffled) == len(corpus)
    assert shuffled.label_counts() == corpus.label_counts()
    key = lambda c: sorted(zip(c.labels.tolist(), rows_of(c.matrix)))
    assert key(shuffled) == key(corpus)


def test_shuffle_different_seeds_differ():
    ratings = rating_table(6, 20)
    corpus = planted_corpus(7, 80, ratings)
    a = shuffle(corpus, seed=1)
    b = shuffle(corpus, seed=2)
    assert rows_of(a.matrix) != rows_of(b.matrix)


def test_shuffle_empty_corpus():
    empty = corpus_from_rows([], [], width=4)
    assert len(shuffle(empty, seed=0)) == 0


# ----------------------------------------------------------- canonical files


def test_corpus_file_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    for case in range(20):
        ratings = rating_table(case, 15)
        corpus = planted_corpus(case + 100, int(rng.integers(1, 30)), ratings)
        path = tmp_path / f"c{case}.corpus"
        save_corpus_file(corpus, path)
        loaded = load_corpus_file(path, width=15)
        assert len(loaded) == len(corpus)
        assert rows_of(loaded.matrix) == rows_of(corpus.matrix)
        npt.assert_array_equal(loaded.labels, corpus.labels)


def test_corpus_file_is_tab_separated(tmp_path):
    path = tmp_path / "one.corpus"
    save_corpus_file(corpus_from_rows([[(2, 1), (9, 3)]], [1], width=10), path)
    assert path.read_text(encoding="utf-8") == "1\t2:1 9:3\n"


def test_corpus_file_empty_bag_roundtrip(tmp_path):
    path = tmp_path / "empty.corpus"
    save_corpus_file(corpus_from_rows([[]], [0], width=3), path)
    loaded = load_corpus_file(path, width=3)
    assert loaded.matrix.shape == (1, 3)
    assert loaded.labels.tolist() == [0]


def test_corpus_file_ignores_the_benchmark_workers_keywords(tmp_path):
    """perfbench/worker.py still passes vocab_id= and split=; they change nothing."""
    corpus = planted_corpus(11, 30, rating_table(10, 12))
    path = tmp_path / "train.corpus"
    save_corpus_file(corpus, path)
    plain = load_corpus_file(path, width=12)
    worker = load_corpus_file(path, vocab_id=Vocabulary(token_list(12)).fingerprint(),
                              split="train", width=12)
    assert (worker.matrix != plain.matrix).nnz == 0 and (plain.matrix != corpus.matrix).nnz == 0
    assert worker.matrix.shape == (30, 12)
    npt.assert_array_equal(worker.labels, corpus.labels)


def test_corpus_file_width_bound_enforced(tmp_path):
    path = tmp_path / "w.corpus"
    path.write_text("1\t5:2\n", encoding="utf-8")
    with pytest.raises(DataError, match="outside"):
        load_corpus_file(path, width=5)


def test_corpus_file_bad_label_rejected(tmp_path):
    path = tmp_path / "w.corpus"
    path.write_text("2\t0:1\n", encoding="utf-8")
    with pytest.raises(DataError, match="label"):
        load_corpus_file(path, width=5)


# ---------------------------------------------------------------- the matrix


def test_label_counts():
    ratings = rating_table(9, 12)
    corpus = planted_corpus(10, 40, ratings)
    neg, pos = corpus.label_counts()
    assert neg + pos == 40
    assert neg == int((corpus.labels == 0).sum())
