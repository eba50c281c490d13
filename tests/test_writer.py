"""The digit-scatter corpus writer against the one-pair-at-a-time reference.

``oracles.save_corpus_file`` formats every ``index:count`` pair with an
f-string; the package writer lays out whole blocks of rows as bytes.  On
every corpus both must write the same bytes, at block sizes of 1 and 7
stored pairs as well as the default, so block edges fall everywhere.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import oracles
from bowtie import corpus
from bowtie.corpus import Corpus, load_corpus_file, save_corpus_file
from bowtie.errors import DataError

# 1-, 2-, 17- and 18-digit values, and the powers of ten around them
EDGES = [0, 1, 9, 10, 99, 10**17 - 1, 10**17, 10**18 - 1]


@pytest.fixture(params=[None, 1, 7], ids=["default", "pairs1", "pairs7"])
def write_pairs(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(corpus, "_WRITE_PAIRS", request.param)
    return request.param


def make_corpus(rows, labels, index_dtype=np.int64):
    """A Corpus whose rows hold ``rows``' (index, count) pairs in that order."""
    indptr = np.zeros(len(rows) + 1, dtype=index_dtype)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    pairs = [pair for row in rows for pair in row]
    indices = np.array([i for i, _ in pairs], dtype=index_dtype)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    width = min(int(indices.max()) + 1, 2**63 - 1) if indices.size else 1
    matrix = sparse.csr_matrix((counts, indices, indptr), shape=(len(rows), width))
    matrix.indices, matrix.indptr = indices, indptr  # as built, not downcast
    return Corpus(matrix, np.array(labels, dtype=np.int64))


def random_rows(rng, n, edges):
    """``n`` rows; about a third are empty."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.35:
            rows.append([])
            continue
        k = int(rng.integers(1, 9))
        big = edges if rng.random() < 0.3 else [0, 1, 9, 10, 99, 100]
        indices = rng.choice(10**6, size=k, replace=False).tolist()
        counts = rng.integers(1, 30, size=k).tolist()
        for j in range(k):
            if rng.random() < 0.2:
                indices[j] = int(big[int(rng.integers(len(big)))])
            if rng.random() < 0.2:  # a count of 0 is refused
                counts[j] = max(1, int(big[int(rng.integers(len(big)))]))
        rows.append(list(zip(indices, counts)))
    return rows


def assert_writes_like_the_reference(tmp_path, c):
    save_corpus_file(c, tmp_path / "package.corpus")
    oracles.save_corpus_file(c, tmp_path / "reference.corpus")
    got = (tmp_path / "package.corpus").read_bytes()
    assert got == (tmp_path / "reference.corpus").read_bytes()
    return got


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_random_corpora_match_the_reference(tmp_path, write_pairs, index_dtype):
    edges = [e for e in EDGES if e <= np.iinfo(index_dtype).max]
    for seed in range(30):
        rng = np.random.default_rng([seed, np.dtype(index_dtype).itemsize])
        rows = random_rows(rng, int(rng.integers(0, 15)), edges)
        if index_dtype is np.int32:
            rows = [[(i, c) for i, c in row if i <= edges[-1]] for row in rows]
        labels = rng.integers(0, 2, size=len(rows))
        assert_writes_like_the_reference(tmp_path, make_corpus(rows, labels, index_dtype))


@pytest.mark.parametrize("rows", [
    [],
    [[]],
    [[], [], [(3, 1)]],
    [[(3, 1)], [], [], [(4, 2)]],
    [[(3, 1)], [(4, 2)], [], []],
    [[], [(5, 1)], []],
], ids=["no-rows", "one-empty", "leading", "consecutive", "trailing", "both-ends"])
def test_empty_reviews_anywhere(tmp_path, write_pairs, rows):
    text = assert_writes_like_the_reference(tmp_path, make_corpus(rows, [1] * len(rows)))
    assert text.count(b"\n") == len(rows)


def test_every_digit_count(tmp_path, write_pairs):
    values = [10**k for k in range(18)] + [10**k - 1 for k in range(1, 19)]
    rows = [[(v, v)] for v in values] + [[(v, 1) for v in sorted(values)]]
    text = assert_writes_like_the_reference(tmp_path, make_corpus(rows, [0] * len(rows)))
    assert b"\t999999999999999999:999999999999999999\n" in text


def test_odd_length_numbers_start_every_block(tmp_path, monkeypatch):
    # one row per block, so every block starts with a one-digit label; its
    # first pass writes a '0' before it, into the block's spare byte
    monkeypatch.setattr(corpus, "_WRITE_PAIRS", 1)
    odd = [10**k + 7 for k in range(0, 18, 2)]  # 1, 3, ..., 17 digits
    rows = [[(i, c)] for i in odd for c in odd] + [[], [(odd[-1], 1), (odd[-2], 5)]]
    labels = [(i + 1) % 2 for i in range(len(rows))]
    text = assert_writes_like_the_reference(tmp_path, make_corpus(rows, labels))
    assert text.startswith(b"1\t8:8\n")


def test_a_review_longer_than_a_block(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "_WRITE_PAIRS", 64)
    rng = np.random.default_rng(11)
    long_row = list(zip(rng.permutation(5000)[:1000].tolist(), rng.integers(1, 99, 1000).tolist()))
    rows = [[(1, 1)], long_row, [], long_row[:63], [(2, 2)]]
    assert_writes_like_the_reference(tmp_path, make_corpus(rows, [0, 1, 0, 1, 1]))


def test_written_file_loads_back_equal(tmp_path, write_pairs):
    rng = np.random.default_rng(4)
    rows = []
    for k in rng.integers(0, 9, size=40).tolist():
        indices = np.sort(rng.choice(10**6, size=k, replace=False))
        rows.append(list(zip(indices.tolist(), rng.integers(1, 10**12, size=k).tolist())))
    c = make_corpus(rows, rng.integers(0, 2, size=40))
    save_corpus_file(c, tmp_path / "round.corpus")
    loaded = load_corpus_file(tmp_path / "round.corpus", width=c.matrix.shape[1])
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded.matrix, name), getattr(c.matrix, name))
    assert np.array_equal(loaded.labels, c.labels)


def refused(c, tmp_path, match):
    """Assert that saving ``c`` raises ValueError and leaves the file as it was."""
    path = tmp_path / "kept.corpus"
    path.write_bytes(b"previous\n")
    with pytest.raises(ValueError, match=match):
        save_corpus_file(c, path)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.corpus"]


@pytest.mark.parametrize("what", ["label", "index", "count"])
def test_negative_values_raise_before_writing(tmp_path, what):
    c = make_corpus([[(3, 1), (4, 2)]], [1])
    target = {"label": c.labels, "index": c.matrix.indices, "count": c.matrix.data}[what]
    target[-1] = -5
    refused(c, tmp_path, f"cannot write negative {what} -5")


@pytest.mark.parametrize("what, value", [
    ("label", 2), ("label", 7), ("label", 10**18), ("index", 10**18),
    ("index", 2**63 - 1), ("count", 0), ("count", 10**18), ("count", 2**63 - 1),
])
def test_values_the_loaders_reject_raise_before_writing(tmp_path, what, value):
    c = make_corpus([[(3, 1), (4, 2)]], [1])
    {"label": c.labels, "index": c.matrix.indices, "count": c.matrix.data}[what][-1] = value
    # the one-pair-at-a-time reference writes the value, and the loader refuses it
    oracles.save_corpus_file(c, tmp_path / "reference.corpus")
    with pytest.raises(DataError):
        load_corpus_file(tmp_path / "reference.corpus", width=10**18)
    (tmp_path / "reference.corpus").unlink()
    refused(c, tmp_path, f"cannot write {what} {value} outside ")


@pytest.mark.parametrize("what, dtype, names", [
    ("count", np.float64, "counts"), ("index", np.uint64, "indices"),
    ("count", np.bool_, "counts"),
])
def test_dtypes_that_are_not_int64_values_raise_before_writing(tmp_path, what, dtype, names):
    c = make_corpus([[(3, 1), (4, 2)]], [1])
    if what == "count":
        c.matrix.data = c.matrix.data.astype(dtype)
    else:
        c.matrix.indices = c.matrix.indices.astype(dtype)
    refused(c, tmp_path, f"cannot write {names} of dtype {np.dtype(dtype)}$")


def peak_save_bytes(c, path):
    tracemalloc.start()
    try:
        save_corpus_file(c, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_memory_is_bounded_by_one_block(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    n, k = 6000, 60
    indices = np.arange(k) * 80 + rng.integers(0, 80, size=(n, k))  # sorted, distinct
    counts = rng.integers(1, 9, size=(n, k))
    matrix = sparse.csr_matrix(
        (counts.ravel(), indices.ravel(), np.arange(0, n * k + 1, k)), shape=(n, 80 * k)
    )
    c = Corpus(matrix, rng.integers(0, 2, size=n))
    assert matrix.nnz > 10 * corpus._WRITE_PAIRS

    peak = peak_save_bytes(c, tmp_path / "many.corpus")
    bound = 48 * n + 192 * corpus._WRITE_PAIRS
    assert peak <= bound
    # the bound is tight enough that laying the file out as one block breaks it
    monkeypatch.setattr(corpus, "_WRITE_PAIRS", n * (k + 1))
    assert peak_save_bytes(c, tmp_path / "many.corpus") > bound
