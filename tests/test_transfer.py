import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

import oracles
from bowtie import encode
from bowtie.corpus import Corpus, Vocabulary
from bowtie.encode import MULTI_HOT, POLARITY_WEIGHTED, encode_corpus
from bowtie.errors import DataError, FingerprintError
from bowtie.net import ModelConfig, init_model
from bowtie.optim import OptimizerSpec
from bowtie.train import Checkpoint, TrainConfig, train
from bowtie.transfer import (
    VocabMap,
    build_vocab_map,
    remap_corpus,
    transfer_evaluate,
    write_transfer_report,
)
from synth import (
    corpus_from_rows, odd_token, odd_vocabularies, planted_corpus, rating_table, rows_of, token_list,
    values_of,
)


def bag(pairs, label=1, width=3):
    """A one-review corpus over ``width`` source tokens."""
    return corpus_from_rows([pairs], [label], width)


def checkpoint_for(model, vocab, encoding):
    return Checkpoint(
        model=model,
        vocab_size=vocab.size,
        vocab_sha256=vocab.fingerprint(),
        encoding=encoding,
        provenance={},
    )


# ------------------------------------------------------------------- mapping


def test_identity_vocabularies_map_every_token():
    vocab = Vocabulary(token_list(10))
    vmap = build_vocab_map(vocab, vocab)
    npt.assert_array_equal(vmap.mapping, np.arange(10))
    assert vmap.dropped == []
    assert vmap.mapped_count == 10


def test_mapping_matches_tokens_by_exact_string():
    source = Vocabulary(["a", "b"])
    target = Vocabulary(["b", "c"])
    vmap = build_vocab_map(source, target)
    npt.assert_array_equal(vmap.mapping, [-1, 0])
    assert vmap.dropped == ["a"]
    assert vmap.mapped_count == 1
    assert (vmap.source_size, vmap.target_size) == (2, 2)


def test_no_normalization_before_matching():
    source = Vocabulary(["Movie", "movie "])
    target = Vocabulary(["movie"])
    vmap = build_vocab_map(source, target)
    assert vmap.mapped_count == 0
    assert vmap.dropped == ["Movie", "movie "]


def test_dropped_list_is_sorted():
    source = Vocabulary(["zulu", "alpha", "mike"])
    target = Vocabulary(["other"])
    vmap = build_vocab_map(source, target)
    assert vmap.dropped == ["alpha", "mike", "zulu"]


def test_dropped_tokens_sort_by_code_point():
    """As str comparison sorts them: a prefix first, then by code point,
    so U+FFFF before U+1F600 (UTF-16 would put it after)."""
    want = ["", "a", "a\x00", "a\x00\x00", "z", "\xe9", "\uffff", "\U0001f600"]
    vmap = build_vocab_map(Vocabulary(want[::-1]), Vocabulary(["other"]))
    assert vmap.dropped == want


def test_mapped_plus_dropped_partitions_source():
    rng = np.random.default_rng(1)
    for case in range(30):
        pool = token_list(60, prefix=f"w{case}_")
        source_tokens = list(rng.choice(pool, size=int(rng.integers(1, 40)), replace=False))
        target_tokens = list(rng.choice(pool, size=int(rng.integers(1, 40)), replace=False))
        vmap = build_vocab_map(Vocabulary(source_tokens), Vocabulary(target_tokens))
        assert vmap.mapped_count + len(vmap.dropped) == len(source_tokens)
        matched = (vmap.mapping >= 0).sum()
        assert matched == vmap.mapped_count
        for i, token in enumerate(source_tokens):
            j = int(vmap.mapping[i])
            if j >= 0:
                assert target_tokens[j] == token


def test_vocab_map_keeps_no_index_over_the_target():
    """No index over the target outlives the map: afterwards the call holds
    its mapping, its dropped tokens (the only tokens it makes str objects
    of) and a little more."""
    pool = token_list(30_000)
    source, target = Vocabulary(pool[:20_000]), Vocabulary(pool[10_000:])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vmap = build_vocab_map(source, target)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert vmap.mapped_count == len(vmap.dropped) == 10_000
    # an index over the target's 20 000 tokens, and its keys, would hold about 2 MB more
    dropped = sys.getsizeof(vmap.dropped) + sum(map(sys.getsizeof, vmap.dropped))
    assert held <= vmap.mapping.nbytes + dropped + 16_384, held


def assert_map_matches_the_reference(source, target):
    got, want = build_vocab_map(source, target), oracles.build_vocab_map(source, target)
    assert got.mapping.dtype == want.mapping.dtype
    assert got.mapping.tolist() == want.mapping.tolist()
    targets = got.mapping[got.mapping >= 0]  # remap_corpus relies on no collision
    assert np.unique(targets).size == targets.size
    assert (got.dropped, got.source_size, got.target_size) == (
        want.dropped, want.source_size, want.target_size)


def test_vocab_map_matches_the_reference():
    """Plain tokens, and tokens that differ late, by a NUL or by a character
    of 2 to 4 bytes (``synth.ODD_TOKENS``), whose dropped ones sort by code point."""
    rng = np.random.default_rng(2)
    for case in range(60):
        pool = token_list(60, prefix=f"w{case}_") + ["", "Movie", "movie", "movie "]
        pool = list(dict.fromkeys(pool + [odd_token(rng) for _ in range(60)]))
        pick = np.array(pool, dtype=object)
        source = Vocabulary(list(rng.choice(pick, size=int(rng.integers(0, 80)), replace=False)))
        target = Vocabulary(list(rng.choice(pick, size=int(rng.integers(0, 80)), replace=False)))
        assert_map_matches_the_reference(source, target)


@pytest.mark.parametrize("shape", sorted(odd_vocabularies()))
def test_odd_vocab_maps_match_the_reference(shape):
    tokens = odd_vocabularies()[shape]
    assert_map_matches_the_reference(Vocabulary(tokens[::2]), Vocabulary(tokens[::3]))
    assert_map_matches_the_reference(Vocabulary(tokens), Vocabulary(tokens[::-1]))


# ------------------------------------------------------------------ remapping


def test_remap_rewrites_indices():
    source = Vocabulary(["a", "b", "c"])
    target = Vocabulary(["c", "a"])
    vmap = build_vocab_map(source, target)
    out = remap_corpus(bag([(0, 2), (1, 5), (2, 1)]), vmap)
    assert rows_of(out.matrix) == [[(0, 1), (1, 2)]]  # c -> 0, a -> 1
    assert out.matrix.shape == (1, 2)
    assert out.labels.tolist() == [1]


def test_remap_can_empty_a_bag():
    vmap = build_vocab_map(Vocabulary(["a"]), Vocabulary(["b"]))
    out = remap_corpus(bag([(0, 7)], width=1), vmap)
    assert rows_of(out.matrix) == [[]]
    assert out.labels.tolist() == [1]


def test_remap_preserves_total_mass_minus_dropped():
    rng = np.random.default_rng(2)
    for case in range(25):
        pool = token_list(40)
        source = Vocabulary(pool)
        target = Vocabulary(list(rng.choice(pool, size=20, replace=False)))
        vmap = build_vocab_map(source, target)
        k = int(rng.integers(1, 15))
        indices = np.sort(rng.choice(40, size=k, replace=False)).astype(np.int64)
        counts = rng.integers(1, 6, size=k).astype(np.int64)
        original = bag(list(zip(indices, counts)), label=0, width=40)
        total = original.matrix.sum()
        out = remap_corpus(original, vmap)
        dropped_mass = sum(
            int(c) for i, c in zip(indices, counts) if vmap.mapping[i] < 0
        )
        assert out.matrix.sum() == total - dropped_mass


def test_remap_corpus_keeps_order_and_labels():
    ratings = rating_table(3, 12)
    corpus = planted_corpus(4, 10, ratings)
    vocab = Vocabulary(token_list(12))
    vmap = build_vocab_map(vocab, vocab)
    rows = rows_of(corpus.matrix)
    out = remap_corpus(corpus, vmap)
    npt.assert_array_equal(out.labels, corpus.labels)
    assert rows_of(out.matrix) == rows


def test_remap_keeps_no_int64_array_per_stored_entry():
    """The targets are written over the source indices a chunk at a time and
    scipy drops and sorts in place, so the peak is a few chunks'
    work: below one int32 per stored entry, where the copying remap held an
    int32 target and a bool mask per entry beside its result."""
    rng = np.random.default_rng(6)
    rows, width, per = 4000, 5000, 100
    columns = [np.sort(rng.choice(width, per, replace=False)) for _ in range(rows)]
    counts = sparse.csr_matrix(
        (rng.integers(1, 9, rows * per), np.concatenate(columns), np.arange(0, rows * per + 1, per)),
        shape=(rows, width),
    )
    mapping = rng.permutation(width)
    mapping[rng.random(width) < 0.3] = -1
    vmap = VocabMap(mapping=mapping, dropped=[], source_size=width, target_size=width)
    want = oracle_remap(counts, mapping, width)
    data, entries = counts.data, counts.nnz
    tracemalloc.start()
    try:
        out = remap_corpus(Corpus(counts, rng.integers(0, 2, rows)), vmap).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * encode._CHUNK < 4 * entries, peak
    assert np.shares_memory(out.data, data)
    assert out.indices.dtype == out.indptr.dtype == np.int32
    assert out.has_canonical_format
    assert (out != want).nnz == 0


def test_remap_consumes_its_corpus():
    vocab = Vocabulary(["a", "b", "c"])
    corpus = bag([(0, 2), (2, 1)])
    out = remap_corpus(corpus, build_vocab_map(vocab, vocab))
    assert rows_of(out.matrix) == [[(0, 2), (2, 1)]]
    assert len(corpus) == 1
    with pytest.raises(ValueError, match="consumed"):
        remap_corpus(corpus, build_vocab_map(vocab, vocab))


def oracle_remap(counts, mapping, width):
    """The remap by a sparse product with the 0/1 source-to-target matrix."""
    keep = np.flatnonzero(mapping >= 0)
    onto = sparse.csr_matrix(
        (np.ones(len(keep), np.int64), (keep, mapping[keep])), shape=(len(mapping), width)
    )
    return counts @ onto


# ----------------------------------------------------------------- reencoding


def reencode(corpus, vmap, polarity):
    """transfer_evaluate's data path: remap, then encode polarity-weighted at target width."""
    return encode_corpus(
        remap_corpus(corpus, vmap), POLARITY_WEIGHTED, polarity=polarity, width=vmap.target_size
    )


def test_reencode_applies_target_polarity_to_remapped_counts():
    source = Vocabulary(["a"])
    target = Vocabulary(["pad", "a"])
    vmap = build_vocab_map(source, target)
    polarity = np.array([9.0, 0.5])
    ds = reencode(bag([(0, 2)], width=1), vmap, polarity)
    assert ds.width == 2
    assert rows_of(values_of(ds)) == [[(1, 1.0)]]  # 0.5 rating x count 2


def test_reencode_rejects_misaligned_polarity():
    vmap = build_vocab_map(Vocabulary(["a"]), Vocabulary(["a", "b"]))
    with pytest.raises(DataError, match="length"):
        reencode(bag([(0, 1)], width=1), vmap, np.array([1.0]))


def test_reencode_keeps_empty_rows():
    vmap = build_vocab_map(Vocabulary(["gone"]), Vocabulary(["kept"]))
    ds = reencode(bag([(0, 3)], label=0, width=1), vmap, np.array([2.0]))
    assert len(ds) == 1
    assert ds.nnz == 0


# ----------------------------------------------------------------- evaluation


def shared_vocab_setup(seed=5, shared=24, extra_source=4, extra_target=6):
    """Source and target share a core of tokens; ratings live on the target."""
    shared_tokens = token_list(shared, prefix="shared")
    source_tokens = shared_tokens + token_list(extra_source, prefix="srconly")
    target_tokens = token_list(extra_target, prefix="tgtonly") + shared_tokens
    source_vocab = Vocabulary(source_tokens)
    target_vocab = Vocabulary(target_tokens)
    ratings = rating_table(seed, target_vocab.size)
    # keep the planted signal inside the shared region
    ratings[:extra_target] = 0.0
    return source_vocab, target_vocab, ratings


def trained_target_model(target_vocab, polarity, seed=6, epochs=12):
    ratings = polarity
    corpus = planted_corpus(seed, 400, ratings)
    data = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=polarity, width=target_vocab.size)
    cfg = ModelConfig(
        input_width=target_vocab.size,
        hidden_widths=(8, 1),
        dropout_rate=0.0,
        l2_weight=0.0,
        init_seed=seed,
    )
    model = init_model(cfg)
    train_cfg = TrainConfig(
        optimizer=OptimizerSpec(kind="adam", learning_rate=0.05),
        batch_size=64,
        max_epochs=epochs,
    )
    train(model, data, None, train_cfg, log=False)
    return model


def source_corpus_on(source_vocab, target_vocab, polarity, seed=7, size=200):
    """Planted bags over the source vocabulary, labeled by target ratings."""
    lookup = oracles.vocabulary_index(target_vocab.tokens)
    aligned = np.zeros(source_vocab.size)
    for i, token in enumerate(source_vocab.tokens):
        j = lookup.get(token)
        if j is not None:
            aligned[i] = polarity[j]
    return planted_corpus(seed, size, aligned)


def test_transfer_evaluate_end_to_end_beats_chance():
    source_vocab, target_vocab, polarity = shared_vocab_setup()
    model = trained_target_model(target_vocab, polarity)
    ck = checkpoint_for(model, target_vocab, POLARITY_WEIGHTED)
    corpus = source_corpus_on(source_vocab, target_vocab, polarity)
    report = transfer_evaluate(ck, corpus, source_vocab, target_vocab, polarity)
    assert report.result.accuracy > 0.8
    assert report.source_vocab_size == source_vocab.size
    assert report.target_vocab_size == target_vocab.size
    assert report.mapped_count == 24
    assert report.dropped == sorted(token_list(4, prefix="srconly"))
    assert report.mapped_count + len(report.dropped) == source_vocab.size


def test_transfer_evaluate_requires_matching_fingerprint():
    source_vocab, target_vocab, polarity = shared_vocab_setup()
    model = trained_target_model(target_vocab, polarity, epochs=1)
    wrong = Vocabulary(["not", "the", "same"])
    ck = checkpoint_for(model, wrong, POLARITY_WEIGHTED)
    corpus = source_corpus_on(source_vocab, target_vocab, polarity, size=5)
    with pytest.raises(FingerprintError):
        transfer_evaluate(ck, corpus, source_vocab, target_vocab, polarity)


def test_transfer_evaluate_weighted_checkpoint_needs_polarity():
    source_vocab, target_vocab, polarity = shared_vocab_setup()
    model = trained_target_model(target_vocab, polarity, epochs=1)
    ck = checkpoint_for(model, target_vocab, POLARITY_WEIGHTED)
    corpus = source_corpus_on(source_vocab, target_vocab, polarity, size=5)
    with pytest.raises(DataError, match="polarity"):
        transfer_evaluate(ck, corpus, source_vocab, target_vocab, polarity=None)


def test_transfer_evaluate_multi_hot_checkpoint_path():
    source_vocab, target_vocab, _ = shared_vocab_setup()
    cfg = ModelConfig(
        input_width=target_vocab.size,
        hidden_widths=(1,),
        dropout_rate=0.0,
        l2_weight=0.0,
    )
    model = init_model(cfg)
    for w in model.weights:
        w[:] = 0.0
    ck = checkpoint_for(model, target_vocab, MULTI_HOT)
    ratings = rating_table(9, source_vocab.size)
    planted = planted_corpus(10, 40, ratings)
    # balance the labels exactly so the all-positive zero model scores 0.5
    keep_pos = np.flatnonzero(planted.labels == 1)
    keep_neg = np.flatnonzero(planted.labels == 0)
    k = min(len(keep_pos), len(keep_neg))
    corpus = planted.take(np.concatenate([keep_pos[:k], keep_neg[:k]]))
    report = transfer_evaluate(ck, corpus, source_vocab, target_vocab)
    assert report.result.accuracy == 0.5


# -------------------------------------------------------------------- report


def test_report_lists_dropped_tokens_one_per_line(tmp_path):
    source_vocab, target_vocab, polarity = shared_vocab_setup()
    model = trained_target_model(target_vocab, polarity, epochs=2)
    ck = checkpoint_for(model, target_vocab, POLARITY_WEIGHTED)
    corpus = source_corpus_on(source_vocab, target_vocab, polarity, size=30)
    report = transfer_evaluate(ck, corpus, source_vocab, target_vocab, polarity)
    path = tmp_path / "report.txt"
    write_transfer_report(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = lines[1 : 1 + len(report.dropped)]
    assert body == report.dropped
    assert "---" in lines

    footer = dict(
        line.split("=", 1) for line in lines[lines.index("---") + 1 :]
    )
    assert set(footer) == {
        "source_vocab",
        "target_vocab",
        "mapped",
        "dropped",
        "element_min",
        "element_max",
        "rowsum_min",
        "rowsum_max",
        "examples",
        "accuracy",
        "bce",
    }
    assert int(footer["mapped"]) + int(footer["dropped"]) == source_vocab.size
    assert int(footer["examples"]) == 30
    assert abs(float(footer["accuracy"]) - report.result.accuracy) < 1e-6


def test_report_roundtrips_through_file(tmp_path):
    source_vocab, target_vocab, polarity = shared_vocab_setup()
    model = trained_target_model(target_vocab, polarity, epochs=1)
    ck = checkpoint_for(model, target_vocab, POLARITY_WEIGHTED)
    corpus = source_corpus_on(source_vocab, target_vocab, polarity, size=10)
    report = transfer_evaluate(ck, corpus, source_vocab, target_vocab, polarity)
    path = tmp_path / "report.txt"
    write_transfer_report(report, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# tokens with no counterpart")
    assert "examples=10" in text
