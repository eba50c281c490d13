import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from bowtie import encode, transfer
from bowtie import train as train_module
from bowtie.cli import main
from bowtie.corpus import Corpus, Vocabulary, load_corpus_file, save_corpus_file
from bowtie.encode import (
    MULTI_HOT,
    POLARITY_WEIGHTED,
    encode_corpus,
    polarity_stats,
)
from bowtie.errors import DataError
from bowtie.net import ModelConfig, init_model
from bowtie.optim import OptimizerSpec
from bowtie.train import Checkpoint, TrainConfig, evaluate, train
from oracles import dense_multi_hot, dense_polarity_weighted, row_sums
from synth import (
    copy_of,
    corpus_from_rows,
    planted_corpus,
    rating_table,
    rows_of,
    token_list,
    values_of,
)


def bags(*rows, width, labels=None):
    """A corpus of the given (index, count) pair lists, label 1 unless given."""
    return corpus_from_rows(rows, labels or [1] * len(rows), width)


def random_bag(rng, width, max_count=5):
    k = int(rng.integers(0, min(width, 10) + 1))
    indices = np.sort(rng.choice(width, size=k, replace=False))
    counts = rng.integers(1, max_count + 1, size=k)
    return list(zip(indices.tolist(), counts.tolist()))


def random_corpus(rng, width, size, max_count=5):
    rows = [random_bag(rng, width, max_count) for _ in range(size)]
    return corpus_from_rows(rows, rng.integers(0, 2, size=size), width)


# ----------------------------------------------------------------- multi-hot


def test_multi_hot_marks_presence_not_counts():
    ds = encode_corpus(bags([(0, 2), (5, 1)], width=10), MULTI_HOT, width=10)
    assert rows_of(ds.matrix) == [[(0, 1.0), (5, 1.0)]]
    assert ds.width == 10 and ds.labels.tolist() == [1]
    dense = ds.matrix.toarray()
    assert dense.shape == (1, 10)
    assert dense.sum() == 2.0


def test_multi_hot_empty_bag():
    ds = encode_corpus(bags([], width=4), MULTI_HOT, width=4)
    assert ds.nnz == 0
    npt.assert_array_equal(ds.matrix.toarray(), np.zeros((1, 4)))


def test_multi_hot_rejects_out_of_width_bag():
    with pytest.raises(DataError, match="outside"):
        encode_corpus(bags([(7, 1)], width=8), MULTI_HOT, width=6)


def test_multi_hot_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        width = int(rng.integers(1, 51))
        corpus = random_corpus(rng, width, 10)
        want = [dense_multi_hot(row, width) for row in rows_of(corpus.matrix)]
        got = encode_corpus(corpus, MULTI_HOT, width=width).matrix.toarray()
        npt.assert_array_equal(got, np.reshape(want, (10, width)))


# ---------------------------------------------------------- polarity weights


def test_weighted_value_is_rating_times_count():
    table = np.array([0.0, 0.0, 0.0, -1.25])
    ds = encode_corpus(bags([(3, 4)], width=4), POLARITY_WEIGHTED, polarity=table, width=4)
    assert rows_of(values_of(ds)) == [[(3, -5.0)]]


def test_weighted_drops_exact_zero_ratings():
    table = np.array([0.0, 2.0])
    corpus = bags([(0, 3), (1, 1)], [(0, 1)], width=2)
    ds = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=table, width=2)
    assert rows_of(values_of(ds)) == [[(1, 2.0)], []]
    npt.assert_array_equal(ds.matrix.indptr, [0, 1, 1])


def test_weighted_equals_multi_hot_for_unit_ratings_and_counts():
    rng = np.random.default_rng(7)
    width = 30
    table = np.ones(width)
    corpus = random_corpus(rng, width, 50, max_count=1)
    weighted = values_of(encode_corpus(copy_of(corpus), POLARITY_WEIGHTED, polarity=table, width=width))
    hot = encode_corpus(corpus, MULTI_HOT, width=width).matrix
    assert rows_of(weighted) == rows_of(hot)


def test_weighted_table_length_must_match_width():
    table = np.array([1.0, 2.0])
    with pytest.raises(DataError, match="length 2"):
        encode_corpus(bags([(0, 1)], width=3), POLARITY_WEIGHTED, polarity=table, width=3)


def test_weighted_rejects_non_finite_products():
    table = np.array([1.0, np.inf])
    with pytest.raises(DataError, match="non-finite"):
        encode_corpus(bags([(1, 2)], width=2), POLARITY_WEIGHTED, polarity=table, width=2)


def test_weighted_matches_dense_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        width = int(rng.integers(1, 51))
        ratings = rng.normal(0, 2, width)
        ratings[rng.random(width) < 0.1] = 0.0  # force some dropped entries
        corpus = random_corpus(rng, width, 10)
        want = [dense_polarity_weighted(row, ratings, width) for row in rows_of(corpus.matrix)]
        ds = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings, width=width)
        npt.assert_array_equal(values_of(ds).toarray(), np.reshape(want, (10, width)))
        assert ds.matrix.has_canonical_format
        assert not (values_of(ds).data == 0.0).any()


# ------------------------------------------------------------- whole corpora


def test_encode_corpus_preserves_order_and_labels():
    ratings = rating_table(3, 25)
    corpus = planted_corpus(4, 30, ratings)
    for kind, kw in ((MULTI_HOT, {}), (POLARITY_WEIGHTED, {"polarity": ratings})):
        ds = encode_corpus(copy_of(corpus), kind, width=25, **kw)
        assert len(ds) == 30
        assert ds.width == 25
        npt.assert_array_equal(ds.labels, corpus.labels)


def test_encode_corpus_weighted_needs_table():
    with pytest.raises(DataError, match="polarity"):
        encode_corpus(bags([(0, 1)], width=5), POLARITY_WEIGHTED, width=5)


def test_encode_corpus_unknown_kind():
    with pytest.raises(DataError, match="unknown"):
        encode_corpus(bags(width=5), "one-hot", width=5)


def test_encode_corpus_empty():
    ds = encode_corpus(bags(width=5), MULTI_HOT, width=5)
    assert len(ds) == 0
    assert ds.matrix.shape == (0, 5)


def test_sparsity_never_exceeds_distinct_tokens():
    rng = np.random.default_rng(15)
    width = 40
    ratings = rng.normal(0, 1, width)
    ratings[::4] = 0.0
    corpus = random_corpus(rng, width, 100)
    distinct = np.diff(corpus.matrix.indptr)
    hot = encode_corpus(copy_of(corpus), MULTI_HOT, width=width).matrix
    weighted = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings, width=width).matrix
    npt.assert_array_equal(np.diff(hot.indptr), distinct)
    assert (np.diff(weighted.indptr) <= distinct).all()


def test_encoded_matrix_matches_dense_rows():
    rng = np.random.default_rng(21)
    ratings = rng.normal(0, 1, 20)
    corpus = planted_corpus(22, 15, ratings)
    rows = rows_of(corpus.matrix)
    ds = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings, width=20)
    dense = values_of(ds).toarray()
    assert dense.shape == (15, 20)
    for row, pairs in zip(dense, rows):
        npt.assert_array_equal(row, dense_polarity_weighted(pairs, ratings, 20))


# ------------------------------------------------------------------ in place


def wide_corpus(rng, rows=4000, per=100, width=1000):
    """rows x per stored entries, each row's columns sorted and distinct."""
    step = width // per
    indices = (np.arange(per) * step + rng.integers(0, step, (rows, 1))).ravel()
    counts = sparse.csr_matrix(
        (rng.integers(1, 9, rows * per), indices, np.arange(0, rows * per + 1, per)),
        shape=(rows, width),
    )
    return Corpus(counts, rng.integers(0, 2, rows))


@pytest.mark.parametrize("kind", [MULTI_HOT, POLARITY_WEIGHTED])
def test_encode_in_place_keeps_only_chunk_sized_temporaries(kind):
    """A multi-hot pattern and polarity-weighted counts each take one byte
    per stored entry here, and the index arrays are shared, so the peak is
    that byte and a few chunks' work: far below one float64 per stored entry."""
    rng = np.random.default_rng(8)
    corpus = wide_corpus(rng)
    ratings = rng.normal(0, 1, 1000)
    ratings[::7] = 0.0
    m = corpus.matrix
    assert m.nnz >= 6 * encode._CHUNK
    weighted = ratings[m.indices] * m.data
    keep = weighted != 0.0
    if kind == MULTI_HOT:
        keep[:] = True
        want, stored = np.ones(m.nnz), np.ones(m.nnz, dtype=bool)
    else:
        want, stored = weighted, m.data.astype(np.uint8)  # every count is at most 8
    want_indices, want_indptr = m.indices[keep], np.concatenate([[0], np.cumsum(keep)])[m.indptr]
    tracemalloc.start()
    try:
        ds = encode_corpus(corpus, kind, polarity=ratings, width=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * encode._CHUNK < 8 * m.nnz, peak
    assert ds.matrix.data.dtype == stored.dtype
    assert ds.matrix.data.tobytes() == stored[keep].tobytes()
    assert values_of(ds).data.astype(np.float64).tobytes() == want[keep].tobytes()
    npt.assert_array_equal(ds.matrix.indices, want_indices)
    npt.assert_array_equal(ds.matrix.indptr, want_indptr)


@pytest.mark.parametrize("kind", [MULTI_HOT, POLARITY_WEIGHTED])
def test_encoded_matrix_shares_the_loaded_corpus_buffers(tmp_path, kind):
    """scipy's constructor and its prune after eliminate_zeros copy nothing:
    a multi-hot pattern and polarity-weighted counts are one byte per stored
    entry beside the loaded index arrays, and the polarity table is shared,
    so no array holds a float64 per stored entry."""
    rng = np.random.default_rng(9)
    save_corpus_file(wide_corpus(rng, rows=500), tmp_path / "wide.corpus")
    corpus = load_corpus_file(tmp_path / "wide.corpus", width=1000)
    counts, indices = corpus.matrix.data, corpus.matrix.indices
    ratings = rng.normal(0, 1, 1000)
    ratings[::7] = 0.0
    ds = encode_corpus(corpus, kind, polarity=ratings, width=1000)
    want = np.bool_ if kind == MULTI_HOT else np.uint8
    assert ds.matrix.data.dtype == want and ds.matrix.data.nbytes == ds.nnz
    assert not np.shares_memory(ds.matrix.data, counts)
    assert ds.ratings is (ratings if kind == POLARITY_WEIGHTED else None)
    assert np.shares_memory(ds.matrix.indices, indices)


def test_an_encoded_polarity_weighted_corpus_holds_five_bytes_an_entry(tmp_path):
    """One byte per count (none here exceeds 8) and four per int32 index,
    plus the slack that dropping zero-rated entries leaves in the loaded
    index buffer; the ratings are the caller's table, not a copy."""
    rng = np.random.default_rng(11)
    save_corpus_file(wide_corpus(rng, rows=2000), tmp_path / "wide.corpus")
    ratings = rng.normal(0, 1, 1000)
    ratings[::7] = 0.0
    loaded = 2000 * 100
    tracemalloc.start()
    try:
        corpus = load_corpus_file(tmp_path / "wide.corpus", width=1000)
        ds = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings, width=1000)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ds.ratings is ratings and ds.nnz < loaded
    rows_and_labels = ds.matrix.indptr.nbytes + ds.labels.nbytes
    slack = 5 * (loaded - ds.nnz)
    # the float64 values of the earlier layout, over the int64 counts, took 12
    assert held <= 5 * ds.nnz + slack + rows_and_labels + (1 << 16), (held, ds.nnz)


def test_a_consumed_corpus_raises_on_reuse():
    corpus = bags([(0, 2)], [(1, 1)], width=2)
    with pytest.raises(DataError, match="unknown"):
        encode_corpus(corpus, "one-hot", width=2)
    assert corpus.nnz == 2  # arguments that fail their checks consume nothing
    encode_corpus(corpus, MULTI_HOT, width=2)
    assert len(corpus) == 2 and corpus.labels.tolist() == [1, 1]
    assert repr(corpus).startswith("Corpus(")
    uses = (
        lambda: corpus.matrix,
        lambda: corpus.nnz,
        lambda: corpus.take([0]),
        lambda: encode_corpus(corpus, MULTI_HOT, width=2),
    )
    for use in uses:
        with pytest.raises(ValueError, match="consumed"):
            use()
    with pytest.raises(AttributeError, match="^to_csr$"):  # any other name is just missing
        corpus.to_csr


def test_an_overflow_in_a_later_chunk_names_its_token_and_leaves_the_corpus_consumed():
    """The chunks before the failing one are already rewritten, so the
    corpus is consumed even though encoding raised."""
    corpus = wide_corpus(np.random.default_rng(10), rows=1500)
    assert corpus.nnz > 2 * encode._CHUNK
    bad = encode._CHUNK + 5  # in the second chunk
    token = int(corpus.matrix.indices[bad])
    corpus.matrix.data[bad] = 10**9  # every other count is at most 8
    ratings = np.ones(1000)
    ratings[token] = 1e300  # 1e309 overflows; 8e300 does not
    with pytest.raises(DataError, match=f"^non-finite cumulative polarity at token index {token}$"):
        encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings, width=1000)
    with pytest.raises(ValueError, match="^corpus was consumed by encoding or remapping; copy it first$"):
        corpus.matrix


# --------------------------------------------------------------------- stats


def test_stats_hand_example():
    table = np.array([2.0, -3.0])
    ds = encode_corpus(
        bags([(0, 1), (1, 1)], width=2), POLARITY_WEIGHTED, polarity=table, width=2
    )
    stats = polarity_stats(ds)
    assert stats.element_min == -3.0
    assert stats.element_max == 2.0
    assert stats.rowsum_min == -1.0
    assert stats.rowsum_max == -1.0


def test_stats_empty_example_contributes_zero_rowsum():
    table = np.array([5.0])
    ds = encode_corpus(
        bags([(0, 1)], [], width=1, labels=[1, 0]), POLARITY_WEIGHTED, polarity=table, width=1
    )
    stats = polarity_stats(ds)
    assert stats.rowsum_min == 0.0
    assert stats.rowsum_max == 5.0
    assert stats.element_min == 5.0


def test_stats_all_empty_dataset_is_all_zero():
    ds = encode_corpus(bags([], [], width=3, labels=[1, 0]), MULTI_HOT, width=3)
    stats = polarity_stats(ds)
    assert (
        stats.element_min
        == stats.element_max
        == stats.rowsum_min
        == stats.rowsum_max
        == 0.0
    )


def test_stats_rejects_empty_dataset():
    ds = encode_corpus(bags(width=3), MULTI_HOT, width=3)
    with pytest.raises(DataError):
        polarity_stats(ds)


def test_stats_match_brute_force():
    rng = np.random.default_rng(33)
    for _ in range(50):
        width = int(rng.integers(1, 30))
        ratings = rng.normal(0, 3, width)
        corpus = random_corpus(rng, width, int(rng.integers(1, 20)))
        ds = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings, width=width)
        stats = polarity_stats(ds)
        rows = [np.array([v for _, v in row]) for row in rows_of(values_of(ds))]
        if ds.nnz:
            assert stats.element_min == min(row.min() for row in rows if row.size)
            assert stats.element_max == max(row.max() for row in rows if row.size)
        # each row summed on its own, as a separate array, bit for bit
        sums = [row.sum() for row in rows]
        assert [stats.rowsum_min, stats.rowsum_max] == [min(sums), max(sums)]


def test_stats_row_sums_match_each_rows_own_sum_bit_for_bit():
    rng = np.random.default_rng(34)
    lengths = np.concatenate([
        np.zeros(40, np.int64), rng.integers(1, 8, 300), np.full(40, 8),
        rng.integers(9, 129, 600), rng.integers(129, 401, 600),
    ])
    rng.shuffle(lengths)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    total = int(indptr[-1])
    values = rng.standard_normal(total) * rng.choice([1e-3, 1.0, 1e5], total)
    columns = np.arange(total) - np.repeat(indptr[:-1], lengths)
    matrix = sparse.csr_matrix((values, columns, indptr), shape=(len(lengths), 400))
    labels = np.ones(len(lengths), dtype=np.int64)
    want = row_sums(matrix)
    whole = polarity_stats(Corpus(matrix, labels))
    assert (whole.rowsum_min, whole.rowsum_max) == (want.min(), want.max())
    # a one-row dataset's extrema are that row's sum
    alone = np.array([
        polarity_stats(Corpus(matrix[i:i + 1], labels[i:i + 1])).rowsum_max
        for i in range(len(lengths))
    ])
    assert alone.tobytes() == want.tobytes()
    empty = polarity_stats(Corpus(sparse.csr_matrix((5, 400)), labels[:5]))
    assert (empty.rowsum_min, empty.rowsum_max) == (0.0, 0.0)


# ------------------------------------------------- pattern and float64 ones


def float64_ones(corpus, kind, polarity=None, *, width):
    """``encode_corpus``, with a multi-hot pattern stored as float64 1.0."""
    m = encode_corpus(corpus, kind, polarity=polarity, width=width).matrix
    ones = sparse.csr_matrix((m.data.astype(np.float64), m.indices, m.indptr), shape=m.shape)
    return Corpus(ones, corpus.labels)


def multi_hot_results(tmp_path, capsys):
    """Everything a multi-hot run reports, through ``encode.encode_corpus``."""
    width = 300
    files = tmp_path / "files"
    files.mkdir(exist_ok=True)
    save_corpus_file(planted_corpus(41, 700, rating_table(40, width), max_distinct=40),
                     files / "reviews.corpus")
    target = Vocabulary(token_list(width))
    (files / "vocab.txt").write_text("\n".join(target.tokens) + "\n")
    reviews = load_corpus_file(files / "reviews.corpus", width=width)
    data = encode.encode_corpus(reviews, MULTI_HOT, width=width)
    model = init_model(ModelConfig(input_width=width, init_seed=42))
    config = TrainConfig(optimizer=OptimizerSpec(kind="nadam", learning_rate=0.01),
                         batch_size=64, max_epochs=3, data_seed=43, dropout_seed=44)
    _, epochs = train(model, data, data, config, log=False)
    # the source vocabulary holds the target's tokens in reverse, and 20 of its own
    source = Vocabulary(target.tokens[::-1] + token_list(20, prefix="src"))
    foreign = planted_corpus(45, 300, rating_table(46, source.size), max_distinct=40)
    checkpoint = Checkpoint(model, width, target.fingerprint(), MULTI_HOT, {})
    assert main(["stats", "--encoding", MULTI_HOT, "--corpus", str(files / "reviews.corpus"),
                 "--vocab", str(files / "vocab.txt")]) == 0
    return (
        data.matrix.dtype,
        b"".join(t.tobytes() for t in model.weights + model.biases),
        [(e.train_bce, e.train_accuracy, e.val_bce, e.val_accuracy) for e in epochs],
        evaluate(model, data, 100),
        polarity_stats(data),
        transfer.transfer_evaluate(checkpoint, foreign, source, target, batch_size=100),
        capsys.readouterr().out,
    )


def test_a_pattern_computes_the_bits_its_float64_ones_would(tmp_path, monkeypatch, capsys):
    """A multi-hot pattern's values are exactly 1.0 in every product:
    training, evaluate, stats, transfer and ``bowtie stats`` give the same
    bits as float64 ones, over several evaluate chunks."""
    monkeypatch.setattr(train_module, "_EVAL_ROWS", 128)
    pattern = multi_hot_results(tmp_path, capsys)
    monkeypatch.setattr(encode, "encode_corpus", float64_ones)
    monkeypatch.setattr(transfer, "encode_corpus", float64_ones)
    ones = multi_hot_results(tmp_path, capsys)
    assert (pattern[0], ones[0]) == (np.bool_, np.float64)
    assert pattern[1:] == ones[1:]
    assert pattern[-1].startswith("encoding=multi-hot examples=700 element_min=1 ")
