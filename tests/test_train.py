import io
import json
import math
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from bowtie.corpus import Corpus, Vocabulary
from bowtie.encode import MULTI_HOT, POLARITY_WEIGHTED, encode_corpus
from bowtie.errors import CheckpointError, DivergenceError, FingerprintError
from bowtie import net
from bowtie import train as train_module
from bowtie.net import ModelConfig, init_model
from bowtie.optim import OptimizerSpec
from bowtie.train import (
    CHECKPOINT_MAGIC,
    EpochMetrics,
    TrainConfig,
    check_fingerprint,
    emit_metrics_csv,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
import oracles
from oracles import predict
from synth import (
    corpus_from_rows, edit_checkpoint_manifest, planted_corpus, rating_table, rows_of, values_of,
)


WIDTH = 30


def subset(dataset, rows):
    """The dataset rows at ``rows``, in that order."""
    return Corpus(dataset.matrix[rows], dataset.labels[rows], dataset.ratings)


def encoded_split(seed, n_train=120, n_val=60, width=WIDTH):
    ratings = rating_table(seed, width)
    train_set = encode_corpus(
        planted_corpus(seed + 1, n_train, ratings), POLARITY_WEIGHTED, polarity=ratings, width=width
    )
    val_set = encode_corpus(
        planted_corpus(seed + 2, n_val, ratings), POLARITY_WEIGHTED, polarity=ratings, width=width
    )
    return train_set, val_set


def fresh_model(width=WIDTH, seed=0, **kw):
    kw.setdefault("hidden_widths", (8, 1))
    kw.setdefault("dropout_rate", 0.0)
    kw.setdefault("l2_weight", 0.0)
    cfg = ModelConfig(input_width=width, init_seed=seed, **kw)
    return init_model(cfg)


def quick_config(**kw):
    kw.setdefault("optimizer", OptimizerSpec(kind="adam", learning_rate=0.05))
    kw.setdefault("batch_size", 32)
    kw.setdefault("max_epochs", 5)
    return TrainConfig(**kw)


# ------------------------------------------------------------- configuration


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(target_accuracy=0.0)
    with pytest.raises(ValueError):
        TrainConfig(target_accuracy=1.1)
    assert TrainConfig(target_accuracy=1.0).target_accuracy == 1.0


# ------------------------------------------------------------------ training


def test_zero_epochs_returns_untrained_model_and_no_metrics():
    train_set, val_set = encoded_split(1)
    model = fresh_model(seed=1)
    before = [w.copy() for w in model.weights]
    result, metrics = train(model, train_set, val_set, quick_config(max_epochs=0), log=False)
    assert metrics == []
    for got, want in zip(result.weights, before):
        npt.assert_array_equal(got, want)


def test_training_reduces_loss_on_planted_data():
    train_set, val_set = encoded_split(2)
    model = fresh_model(seed=2)
    _, metrics = train(model, train_set, val_set, quick_config(), log=False)
    assert len(metrics) == 5
    assert metrics[-1].train_bce < metrics[0].train_bce
    assert metrics[-1].val_accuracy > 0.6


def test_early_stop_emits_exactly_one_record_for_trivial_target():
    train_set, val_set = encoded_split(3)
    model = fresh_model(seed=3)
    _, metrics = train(
        model, train_set, val_set, quick_config(target_accuracy=0.01), log=False
    )
    assert len(metrics) == 1


def test_early_stop_fires_at_first_qualifying_epoch():
    train_set, val_set = encoded_split(4)
    target = 0.9
    model = fresh_model(seed=4)
    _, metrics = train(
        model,
        train_set,
        val_set,
        quick_config(max_epochs=30, target_accuracy=target),
        log=False,
    )
    assert metrics[-1].val_accuracy >= target
    for record in metrics[:-1]:
        assert record.val_accuracy < target


def test_epoch_numbering_and_metric_ranges():
    train_set, val_set = encoded_split(5)
    _, metrics = train(fresh_model(seed=5), train_set, val_set, quick_config(), log=False)
    assert [m.epoch for m in metrics] == [1, 2, 3, 4, 5]
    for m in metrics:
        assert 0.0 <= m.train_accuracy <= 1.0
        assert 0.0 <= m.val_accuracy <= 1.0
        assert m.train_bce >= 0.0 and m.val_bce >= 0.0
        assert m.epoch_seconds >= 0.0


def test_training_is_reproducible_bit_for_bit():
    runs = []
    for _ in range(2):
        train_set, val_set = encoded_split(6)
        model = fresh_model(seed=6, dropout_rate=0.2)
        result, metrics = train(
            model,
            train_set,
            val_set,
            quick_config(data_seed=9, dropout_seed=11),
            log=False,
        )
        runs.append((result, metrics))
    (model_a, metrics_a), (model_b, metrics_b) = runs
    for wa, wb in zip(model_a.weights + model_a.biases, model_b.weights + model_b.biases):
        npt.assert_array_equal(wa, wb)
    for ma, mb in zip(metrics_a, metrics_b):
        assert (ma.train_bce, ma.train_accuracy, ma.val_bce, ma.val_accuracy) == (
            mb.train_bce,
            mb.train_accuracy,
            mb.val_bce,
            mb.val_accuracy,
        )


def test_different_data_seed_changes_batch_order():
    train_set, val_set = encoded_split(7)
    outcomes = []
    for data_seed in (1, 2):
        model = fresh_model(seed=7)
        result, _ = train(
            model,
            train_set,
            val_set,
            quick_config(max_epochs=1, data_seed=data_seed),
            log=False,
        )
        outcomes.append(result.weights[0].copy())
    assert not np.array_equal(outcomes[0], outcomes[1])


def test_ragged_final_batch_is_trained():
    train_set, val_set = encoded_split(8, n_train=70)  # 70 = 2 x 32 + 6
    model = fresh_model(seed=8)
    _, metrics = train(model, train_set, val_set, quick_config(max_epochs=1), log=False)
    assert len(metrics) == 1
    full_batches = fresh_model(seed=8)
    sliced = subset(train_set, slice(0, 64))
    train(full_batches, sliced, val_set, quick_config(max_epochs=1), log=False)
    assert not np.array_equal(model.weights[0], full_batches.weights[0])


def test_batch_size_larger_than_train_set_rejected():
    train_set, val_set = encoded_split(9, n_train=10)
    with pytest.raises(ValueError, match="batch_size"):
        train(fresh_model(seed=9), train_set, val_set, quick_config(batch_size=11), log=False)


def test_empty_training_set_rejected():
    train_set, val_set = encoded_split(10)
    empty = subset(train_set, slice(0, 0))
    with pytest.raises(ValueError):
        train(fresh_model(seed=10), empty, val_set, quick_config(), log=False)


def test_width_mismatch_rejected():
    train_set, val_set = encoded_split(11)
    with pytest.raises(ValueError, match="width"):
        train(fresh_model(width=WIDTH + 1, seed=11), train_set, val_set, quick_config(), log=False)


def test_divergence_reports_epoch_and_batch():
    train_set, val_set = encoded_split(12)
    cfg = quick_config(optimizer=OptimizerSpec(kind="sgd", learning_rate=1e200))
    with pytest.raises(DivergenceError, match="epoch 1 batch"):
        train(fresh_model(seed=12), train_set, val_set, cfg, log=False)


def test_divergence_while_evaluating_names_epoch_and_split():
    """One validation row of 100 tokens rated 1.7e308, which no training row
    uses, trains fine and overflows the first layer in the epoch-end evaluate."""
    width = WIDTH + 100
    ratings = np.concatenate([rating_table(12, WIDTH), np.full(100, 1.7e308)])
    train_set = encode_corpus(planted_corpus(13, 120, ratings[:WIDTH]), POLARITY_WEIGHTED,
                              polarity=ratings, width=width)
    row = corpus_from_rows([[(i, 1) for i in range(WIDTH, width)]], [1], width)
    val_set = encode_corpus(row, POLARITY_WEIGHTED, polarity=ratings, width=width)
    message = "^epoch 1 validation split: non-finite activation in forward pass$"
    with pytest.raises(DivergenceError, match=message):
        train(fresh_model(width, seed=12), train_set, val_set, quick_config(), log=False)


def test_epoch_lines_written_to_log():
    train_set, val_set = encoded_split(13)
    sink = io.StringIO()
    train(fresh_model(seed=13), train_set, val_set, quick_config(max_epochs=2), log=sink)
    lines = sink.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("epoch=1 train_bce=")
    for key in ("train_acc=", "val_bce=", "val_acc=", "seconds="):
        assert key in lines[0]


def test_validation_set_optional():
    train_set, _ = encoded_split(14)
    _, metrics = train(fresh_model(seed=14), train_set, None, quick_config(max_epochs=2), log=False)
    assert len(metrics) == 2
    for m in metrics:
        assert math.isnan(m.val_bce) and math.isnan(m.val_accuracy)


# ---------------------------------------------------------------- evaluation


def test_zero_model_scores_half_on_balanced_data():
    train_set, _ = encoded_split(15)
    model = fresh_model(seed=15, hidden_widths=(1,))
    for w in model.weights:
        w[:] = 0.0
    # force an exactly balanced dataset
    pos = np.flatnonzero(train_set.labels == 1)
    neg = np.flatnonzero(train_set.labels == 0)
    k = min(len(pos), len(neg))
    balanced = subset(train_set, np.concatenate([pos[:k], neg[:k]]))
    result = evaluate(model, balanced)
    assert result.accuracy == 0.5
    npt.assert_allclose(result.bce, math.log(2.0), rtol=0.0, atol=1e-12)
    # ties resolve positive, so every positive example is scored correct
    assert evaluate(model, subset(train_set, pos[:k])).accuracy == 1.0


def test_evaluate_matches_per_example_predictions():
    train_set, val_set = encoded_split(16)
    model = fresh_model(seed=16)
    train(model, train_set, val_set, quick_config(max_epochs=2), log=False)
    result = evaluate(model, val_set)
    hits = sum(
        1
        for i, label in enumerate(val_set.labels)
        if predict(model, values_of(val_set)[i : i + 1])[1] == label
    )
    npt.assert_allclose(result.accuracy, hits / len(val_set), atol=1e-12)
    assert result.count == len(val_set)


def test_evaluate_is_pure():
    train_set, _ = encoded_split(17)
    model = fresh_model(seed=17)
    before = [w.copy() for w in model.weights]
    first = evaluate(model, train_set)
    second = evaluate(model, train_set)
    assert first == second
    for got, want in zip(model.weights, before):
        npt.assert_array_equal(got, want)


def test_evaluate_batch_size_does_not_change_result():
    train_set, _ = encoded_split(18)
    model = fresh_model(seed=18)
    a = evaluate(model, train_set, batch_size=7)
    b = evaluate(model, train_set, batch_size=512)
    assert a.accuracy == b.accuracy
    npt.assert_allclose(a.bce, b.bce, rtol=0.0, atol=1e-12)


def oracle_case(encoding, activation, hidden, seed, n=1100, width=200):
    """A dataset of ``n`` rows and a model with random biases and two tokens
    weighted so heavily that some probabilities reach the clamp."""
    ratings = rating_table(seed, width)
    corpus = planted_corpus(seed + 1, n, ratings, max_distinct=40)
    table = ratings if encoding == POLARITY_WEIGHTED else None
    data = encode_corpus(corpus, encoding, polarity=table, width=width)
    model = fresh_model(width, seed=seed, hidden_widths=hidden, activation=activation)
    rng = np.random.default_rng(seed)
    model.weights[0][:2] *= 1e3
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.5, b.shape)
    return model, data


@pytest.mark.parametrize("encoding", [MULTI_HOT, POLARITY_WEIGHTED])
@pytest.mark.parametrize("activation", ["none", "relu"])
@pytest.mark.parametrize("hidden", [(1,), (5, 3, 1), (16, 8, 1)])
def test_evaluate_bit_equal_to_per_batch_oracle(encoding, activation, hidden):
    model, data = oracle_case(encoding, activation, hidden, seed=len(hidden) * 7)
    probs = net.forward(model, values_of(data)).prob
    assert probs.min() == net.PROB_CLAMP or probs.max() == 1.0 - net.PROB_CLAMP
    for batch_size in (1, 7, 512, len(data), len(data) + 300):
        got = evaluate(model, data, batch_size)
        want = oracles.evaluate(model, data, batch_size)
        assert (got.bce, got.accuracy, got.count) == (want.bce, want.accuracy, want.count)
        assert got.bce.hex() == want.bce.hex()


@pytest.mark.parametrize(
    "layer, row, value",
    [(0, 3, np.inf), (0, 150, np.nan), (1, 0, -np.inf), (2, 1, np.nan)],
)
def test_evaluate_non_finite_weight_raises_as_the_oracle_does(layer, row, value):
    model, data = oracle_case(MULTI_HOT, "relu", (5, 3, 1), seed=3)
    model.weights[layer][row, 0] = value
    outcomes = []
    for run in (evaluate, oracles.evaluate):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as err:
                run(model, data, 7)
        outcomes.append((str(err.value), [(w.category, str(w.message)) for w in seen]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "non-finite activation in forward pass"


def helper_takes_the_last_chunk(taken):
    """A ``net._chunked`` under which, when there are several chunks, the
    caller waits until a helper thread has run the last one; ``taken``
    records, per such call, whether a helper ran it."""

    def chunked(height, work, scratch, rows=0):
        caller, last_done = threading.get_ident(), threading.Event()
        several = height > (rows or net._CHUNK_ROWS)

        def spied(lo, hi, buffers):
            if several and threading.get_ident() == caller:
                assert last_done.wait(10)
            try:
                work(lo, hi, buffers)
            finally:
                if several and hi == height:
                    taken.append(threading.get_ident() != caller)
                    last_done.set()

        net._chunked(height, spied, scratch, rows)

    return chunked


@pytest.fixture(scope="module", params=[MULTI_HOT, POLARITY_WEIGHTED])
def chunked_case(request):
    """A 6 000-review encoded dataset, a model whose probabilities reach the
    clamp, and the per-batch oracle's result at each batch size."""
    model, data = oracle_case(request.param, "relu", (16, 8, 1), seed=31, n=6000)
    sizes = (1, 7, 512, 1000, 1025, 5000)
    return model, data, {size: oracles.evaluate(model, data, size) for size in sizes}


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_evaluate_chunks_equal_the_oracle_at_any_thread_count(chunked_case, monkeypatch, threads):
    """Chunks of whole batches, shared by up to ``threads`` threads, give the
    per-batch oracle's bce and accuracy bit for bit at every batch size."""
    model, data, want = chunked_case
    monkeypatch.setattr(net, "_THREADS", threads)
    for size, expected in want.items():
        got = evaluate(model, data, size)
        assert (got.bce.hex(), got.accuracy, got.count) == (
            expected.bce.hex(), expected.accuracy, expected.count), size


def test_evaluate_equals_the_oracle_when_a_helper_takes_the_last_chunk(chunked_case, monkeypatch):
    model, data, want = chunked_case
    taken = []
    monkeypatch.setattr(net, "_THREADS", 2)
    monkeypatch.setattr(train_module, "_chunked", helper_takes_the_last_chunk(taken))
    for size, expected in want.items():
        assert evaluate(model, data, size) == expected, size
    assert taken == [True] * len(want)


def test_divergence_in_a_helpers_evaluate_chunk_names_epoch_and_split(monkeypatch):
    """The overflowing validation row is the last of 3 000, in a chunk a
    helper thread runs; the error reads as it does on one thread."""
    width = WIDTH + 100
    ratings = np.concatenate([rating_table(12, WIDTH), np.full(100, 1.7e308)])
    train_set = encode_corpus(planted_corpus(13, 120, ratings[:WIDTH]), POLARITY_WEIGHTED,
                              polarity=ratings, width=width)
    rows = rows_of(planted_corpus(14, 2999, ratings[:WIDTH]).matrix)
    rows.append([(i, 1) for i in range(WIDTH, width)])
    val_set = encode_corpus(corpus_from_rows(rows, [1] * len(rows), width), POLARITY_WEIGHTED,
                            polarity=ratings, width=width)
    taken = []
    monkeypatch.setattr(net, "_THREADS", 2)
    monkeypatch.setattr(train_module, "_chunked", helper_takes_the_last_chunk(taken))
    message = "^epoch 1 validation split: non-finite activation in forward pass$"
    with pytest.raises(DivergenceError, match=message):
        train(fresh_model(width, seed=12), train_set, val_set, quick_config(), log=False)
    assert taken[-1] is True


@pytest.mark.parametrize("count, dtype", [(300, np.uint16), (70_000, np.uint32)])
def test_wide_counts_train_and_evaluate_as_their_float64_values(count, dtype):
    """Counts are stored at the narrowest dtype that holds the largest, and
    training and evaluate give the bits of a corpus of the float64 values."""
    ratings = rating_table(40, WIDTH)
    corpus = planted_corpus(41, 200, ratings)
    corpus.matrix.data[7] = count
    data = encode_corpus(corpus, POLARITY_WEIGHTED, polarity=ratings * 1e-4, width=WIDTH)
    assert data.matrix.dtype == dtype and count in data.matrix.data
    values = Corpus(values_of(data), data.labels)
    assert values.matrix.dtype == np.float64
    config = quick_config(max_epochs=2)
    got, _ = train(fresh_model(seed=40), data, data, config, log=False)
    want, _ = train(fresh_model(seed=40), values, values, config, log=False)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.tobytes() == b.tobytes()
    for size in (7, 512):
        assert evaluate(got, data, size) == oracles.evaluate(got, data, size)


def test_evaluate_refuses_an_unencoded_corpus():
    corpus = planted_corpus(42, 50, rating_table(42, WIDTH))
    with pytest.raises(ValueError, match="int64"):
        evaluate(fresh_model(seed=42), corpus)


def test_evaluate_rejects_empty_dataset():
    train_set, _ = encoded_split(19)
    empty = subset(train_set, slice(0, 0))
    with pytest.raises(ValueError):
        evaluate(fresh_model(seed=19), empty)


def test_perfect_separator_scores_one():
    ratings = rating_table(20, WIDTH)
    data = encode_corpus(
        planted_corpus(21, 80, ratings), POLARITY_WEIGHTED, polarity=ratings, width=WIDTH
    )
    model = fresh_model(seed=20, hidden_widths=(1,))
    model.weights[0][:, 0] = 50.0  # the row sum of a weighted row is the planted score
    model.biases[0][:] = 0.0
    result = evaluate(model, data)
    assert result.accuracy == 1.0


# -------------------------------------------------------------------- metrics


def fabricated_metrics(n):
    return [
        EpochMetrics(
            epoch=i + 1,
            train_bce=0.5 / (i + 1),
            train_accuracy=0.8 + 0.001 * i,
            val_bce=0.6 / (i + 1),
            val_accuracy=0.79 + 0.001 * i,
            epoch_seconds=0.123456789,
        )
        for i in range(n)
    ]


def test_csv_header_exact(tmp_path):
    emit_metrics_csv([], tmp_path / "metrics.csv")
    assert (tmp_path / "metrics.csv").read_text() == "epoch,train_bce,train_acc,val_bce,val_acc,seconds\n"


def test_csv_has_one_line_per_epoch_plus_header(tmp_path):
    emit_metrics_csv(fabricated_metrics(20), tmp_path / "metrics.csv")
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 21


def test_csv_values_carry_six_significant_digits(tmp_path):
    emit_metrics_csv(fabricated_metrics(1), tmp_path / "metrics.csv")
    row = (tmp_path / "metrics.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "1"
    assert row[5] == "0.123457"
    parsed = [float(v) for v in row[1:]]
    npt.assert_allclose(
        parsed, [0.5, 0.8, 0.6, 0.79, 0.123456789], rtol=1e-5
    )


def test_csv_roundtrip_to_file(tmp_path):
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(fabricated_metrics(3), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_bce,train_acc,val_bce,val_acc,seconds"
    assert len(lines) == 4


# ---------------------------------------------------------------- checkpoint


def trained_checkpoint(tmp_path, seed=30):
    train_set, val_set = encoded_split(seed)
    model = fresh_model(seed=seed, dropout_rate=0.2, l2_weight=0.019)
    train(model, train_set, val_set, quick_config(max_epochs=2), log=False)
    path = tmp_path / "model.ck"
    vocab = Vocabulary([f"tok{i}" for i in range(WIDTH)])
    save_checkpoint(
        str(path),
        model,
        vocab.size,
        vocab.fingerprint(),
        POLARITY_WEIGHTED,
        provenance={"command": "test", "epochs_run": 2},
    )
    return path, model, vocab


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    path, model, vocab = trained_checkpoint(tmp_path)
    ck = load_checkpoint(str(path))
    assert ck.model.config == model.config
    for got, want in zip(ck.model.weights + ck.model.biases, model.weights + model.biases):
        npt.assert_array_equal(got, want)
        assert got.dtype == np.float64
    assert ck.vocab_size == vocab.size
    assert ck.vocab_sha256 == vocab.fingerprint()
    assert ck.encoding == POLARITY_WEIGHTED
    assert ck.provenance["epochs_run"] == 2


def test_checkpoint_roundtrip_preserves_predictions_exactly(tmp_path):
    path, model, _ = trained_checkpoint(tmp_path, seed=31)
    ck = load_checkpoint(str(path))
    train_set, _ = encoded_split(31)
    a = evaluate(model, train_set)
    b = evaluate(ck.model, train_set)
    assert a == b


def test_checkpoint_rejects_corrupt_magic(tmp_path):
    path, _, _ = trained_checkpoint(tmp_path, seed=32)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_unknown_version(tmp_path):
    path, _, _ = trained_checkpoint(tmp_path, seed=33)
    blob = bytearray(path.read_bytes())
    blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 4] = struct.pack("<I", 99)
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_file(tmp_path):
    path, _, _ = trained_checkpoint(tmp_path, seed=34)
    blob = path.read_bytes()
    for cut in (4, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


def test_checkpoint_rejects_garbage_manifest(tmp_path):
    path, _, _ = trained_checkpoint(tmp_path, seed=35)
    blob = bytearray(path.read_bytes())
    start = len(CHECKPOINT_MAGIC) + 4 + 8
    blob[start] = ord("x")
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, _, _ = trained_checkpoint(tmp_path, seed=36)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["config"].update(input_width=WIDTH + 2),
        lambda m: m["config"].update(hidden_widths=[5, 1]),
        lambda m: m["biases_shapes"].reverse(),
        lambda m: m["vocab"].update(size=WIDTH + 1),
    ],
    ids=["input_width", "hidden_widths", "bias_order", "vocab_size"],
)
def test_checkpoint_rejects_shapes_that_contradict_the_config(tmp_path, edit):
    path, _, _ = trained_checkpoint(tmp_path, seed=40)
    edit_checkpoint_manifest(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


# Values of the wrong JSON type that once escaped load_checkpoint as a
# TypeError: a provenance that is not an object, and shape dimensions that
# are not integers (JSON true equals 1, so [8, true] chains like [8, 1]).
ILL_TYPED = {
    "provenance_null": lambda m: m.update(provenance=None),
    "provenance_list": lambda m: m.update(provenance=[1]),
    "provenance_true": lambda m: m.update(provenance=True),
    "provenance_number": lambda m: m.update(provenance=3),
    "weight_dim_true": lambda m: m["weights_shapes"][1].__setitem__(1, True),
    "bias_dim_true": lambda m: m["biases_shapes"][1].__setitem__(0, True),
    "weight_dim_float": lambda m: m["weights_shapes"][1].__setitem__(1, 1.0),
}


@pytest.mark.parametrize("edit", ILL_TYPED.values(), ids=ILL_TYPED.keys())
def test_checkpoint_rejects_ill_typed_manifest_values(tmp_path, edit):
    path, _, _ = trained_checkpoint(tmp_path, seed=41)
    edit_checkpoint_manifest(path, edit)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: malformed manifest"):
        load_checkpoint(str(path))


def test_checkpoint_missing_file_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "absent.ck"))


def test_fingerprint_guard(tmp_path):
    path, _, vocab = trained_checkpoint(tmp_path, seed=37)
    ck = load_checkpoint(str(path))
    check_fingerprint(ck, vocab.size, vocab.fingerprint())  # must not raise
    with pytest.raises(FingerprintError, match="size"):
        check_fingerprint(ck, 88_587, vocab.fingerprint())
    other = Vocabulary(["different"] * 1)
    with pytest.raises(FingerprintError):
        check_fingerprint(ck, vocab.size, other.fingerprint())


def test_checkpoint_rejects_unknown_encoding(tmp_path):
    model = fresh_model(seed=38)
    with pytest.raises(ValueError, match="encoding"):
        save_checkpoint(str(tmp_path / "x.ck"), model, 10, "0" * 64, "one-hot")


def test_checkpoint_magic_is_stable(tmp_path):
    path, _, _ = trained_checkpoint(tmp_path, seed=39)
    assert path.read_bytes()[: len(CHECKPOINT_MAGIC)] == CHECKPOINT_MAGIC


# ------------------------------------------------------- allocation bounds
# tracemalloc counts numpy's buffers as well as Python's.  Each bound fails
# for the code that copied here: the old loader, writer and step loop.


def peak_bytes(call):
    """The tracemalloc peak during ``call()``, and what it returned."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def paper_width_model(seed=3):
    return init_model(ModelConfig(input_width=89_527, init_seed=seed))


def parameter_bytes(model):
    return sum(t.nbytes for t in model.weights + model.biases)


def test_save_checkpoint_copies_no_tensor(tmp_path):
    model = paper_width_model()
    path = str(tmp_path / "wide.ckpt")
    peak, _ = peak_bytes(lambda: save_checkpoint(path, model, 89_527, "0" * 64, MULTI_HOT))
    # a copy of the first layer for hashing or writing would be 11.5 MB
    assert peak < 64 * 1024, peak


def test_load_checkpoint_reads_the_parameters_once_into_one_buffer(tmp_path):
    model = paper_width_model()
    path = tmp_path / "wide.ckpt"
    save_checkpoint(str(path), model, 89_527, "0" * 64, MULTI_HOT)
    params = parameter_bytes(model)
    manifest = path.stat().st_size - len(CHECKPOINT_MAGIC) - 12 - params
    peak, loaded = peak_bytes(lambda: load_checkpoint(str(path)))
    # reading the whole file, slicing the blob out and copying each tensor was 3x
    assert peak <= params + manifest + 64 * 1024, (peak, params)
    tensors = loaded.model.weights + loaded.model.biases
    buffer = tensors[0].base
    assert buffer is not None and buffer.nbytes == params
    assert all(t.base is buffer and t.flags.writeable and t.flags.aligned for t in tensors)
    for got, want in zip(tensors, model.weights + model.biases):
        npt.assert_array_equal(got, want)


def test_a_training_step_holds_one_gradient():
    model = paper_width_model(seed=4)
    rng = np.random.default_rng(4)
    n = 1024
    x = sparse.random(n, 89_527, density=40 / 89_527, format="csr", random_state=5)
    data = Corpus(x, rng.integers(0, 2, n))
    config = TrainConfig(optimizer=OptimizerSpec(kind="sgd"), batch_size=256, max_epochs=1)
    peak, _ = peak_bytes(lambda: train(model, data, None, config, log=False))
    params = parameter_bytes(model)
    # two moment buffers (allocated for every optimizer) and one gradient;
    # a gradient kept from the previous step while backward builds the next
    # would add another first layer
    assert peak < 3 * params + model.weights[0].nbytes / 2, (peak, params)


def test_evaluate_upcasts_a_pattern_one_block_at_a_time():
    """evaluate takes a pattern's float64 values a chunk of rows at a time,
    as a slice of one ones buffer shared by its threads, over views of the
    index arrays: its peak stays within one block's float64 copy and
    product and the whole product, the bound of the earlier layout, not a
    float64 per stored entry, nor a slice's copy of a block's arrays."""
    rng = np.random.default_rng(7)
    rows, per, width = 3 * net._CHUNK_ROWS + 100, 100, 5000
    step = width // per
    indices = (np.arange(per) * step + rng.integers(0, step, (rows, 1))).ravel()
    counts = sparse.csr_matrix(
        (rng.integers(1, 9, rows * per), indices.astype(np.int32),
         np.arange(0, rows * per + 1, per, dtype=np.int32)),
        shape=(rows, width),
    )
    data = encode_corpus(Corpus(counts, rng.integers(0, 2, rows)), MULTI_HOT, width=width)
    model = init_model(ModelConfig(input_width=width, init_seed=7))
    assert data.matrix.dtype == np.bool_
    columns = model.weights[0].shape[1]
    block = 8 * net._CHUNK_ROWS * (per + columns)  # its float64 copy and its product
    product = 8 * rows * columns
    peak, result = peak_bytes(lambda: evaluate(model, data, 512))
    # slicing each block would copy its int32 indices and its pattern: 5 bytes
    # per entry more than this bound allows
    assert peak <= block + product + (1 << 18) < 0.6 * 8 * data.nnz, (peak, block, product)
    assert result == oracles.evaluate(model, data, 512)
