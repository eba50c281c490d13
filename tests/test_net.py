import math
import os
import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from bowtie import net
from bowtie.corpus import Corpus
from bowtie.encode import MULTI_HOT, POLARITY_WEIGHTED, encode_corpus
from bowtie.errors import DivergenceError
from bowtie.net import (
    BowTieModel,
    ModelConfig,
    backward,
    batch_matrix,
    forward,
    init_model,
)
from bowtie.train import evaluate
from oracles import (
    backward as oracle_backward,
    bce_mean,
    central_difference,
    clamped_sigmoid,
    dense_forward,
    finite_difference_grad,
    predict,
)
from synth import planted_corpus, rating_table, values_of


def make_model(input_width, hidden=(4, 1), activation="none", dropout=0.0, l2=0.0, seed=0):
    cfg = ModelConfig(
        input_width=input_width,
        hidden_widths=hidden,
        activation=activation,
        dropout_rate=dropout,
        l2_weight=l2,
        init_seed=seed,
    )
    return init_model(cfg)


def zero_model(input_width, hidden=(1,), **kw):
    model = make_model(input_width, hidden=hidden, **kw)
    for w in model.weights:
        w[:] = 0.0
    return model


def rows(*values, width=None):
    """A CSR batch of the given dense rows."""
    dense = np.array(values, dtype=np.float64).reshape(len(values), -1)
    if width is not None:
        dense = np.pad(dense, ((0, 0), (0, width - dense.shape[1])))
    return sparse.csr_matrix(dense)


def dense_row(rng, width, density=0.7):
    values = rng.normal(0.0, 1.0, width)
    values[rng.random(width) >= density] = 0.0
    return values


def random_batch(rng, width, size):
    """(CSR batch, labels) with random sparse rows and labels."""
    dense, labels = [], []
    for _ in range(size):
        dense.append(dense_row(rng, width))
        labels.append(int(rng.integers(0, 2)))
    return sparse.csr_matrix(np.stack(dense)), labels


# ------------------------------------------------------------- configuration


@pytest.mark.parametrize(
    "kw",
    [
        {"hidden_widths": (4, 2)},
        {"hidden_widths": ()},
        {"hidden_widths": (0, 1)},
        {"activation": "tanh"},
        {"dropout_rate": 1.0},
        {"dropout_rate": -0.1},
        {"l2_weight": -1e-9},
        {"discriminator": 1.5},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        ModelConfig(input_width=5, **kw)


def test_config_defaults_match_benchmark_settings():
    cfg = ModelConfig(input_width=10)
    assert cfg.hidden_widths == (16, 8, 1)
    assert cfg.dropout_rate == 0.2
    assert cfg.l2_weight == 0.019
    assert cfg.discriminator == 0.5


# ------------------------------------------------------------ initialization


def test_init_shapes_chain():
    model = make_model(10, hidden=(4, 1))
    assert [w.shape for w in model.weights] == [(10, 4), (4, 1)]
    assert [b.shape for b in model.biases] == [(4,), (1,)]
    assert model.layer_count == 2
    for b in model.biases:
        npt.assert_array_equal(b, 0.0)


def test_init_same_seed_bit_identical():
    a = make_model(20, hidden=(8, 3, 1), seed=5)
    b = make_model(20, hidden=(8, 3, 1), seed=5)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    c = make_model(20, hidden=(8, 3, 1), seed=6)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_init_respects_glorot_bound():
    model = make_model(30, hidden=(7, 1), seed=3)
    widths = (30, 7, 1)
    for w, fan_in, fan_out in zip(model.weights, widths, widths[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # uniform draws should fill the range


def test_init_large_layer_mean_near_zero():
    model = make_model(1000, hidden=(1000, 1), seed=11)
    assert abs(model.weights[0].mean()) < 0.01


def test_init_dtype_is_float64():
    model = make_model(5)
    assert all(w.dtype == np.float64 for w in model.weights)
    assert all(b.dtype == np.float64 for b in model.biases)


# -------------------------------------------------------------------- batches


def test_batch_matrix_stacks_examples():
    rng = np.random.default_rng(0)
    dense = np.stack([dense_row(rng, 12) for _ in range(5)])
    mat = batch_matrix(sparse.coo_matrix(dense), 12)
    assert sparse.isspmatrix_csr(mat)
    assert mat.shape == (5, 12)
    npt.assert_array_equal(mat.toarray(), dense)


def test_batch_matrix_passthrough_checks_width():
    mat = sparse.csr_matrix(np.eye(3))
    assert batch_matrix(mat, 3).shape == (3, 3)
    with pytest.raises(ValueError, match="width"):
        batch_matrix(mat, 4)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint32])
def test_batch_matrix_refuses_integer_counts(dtype):
    """Counts are not values: a polarity-weighted count must be multiplied
    by its rating first, so no product takes one as it stands."""
    counts = sparse.csr_matrix(np.array([[0, 2, 1], [3, 0, 0]], dtype=dtype))
    with pytest.raises(ValueError, match=f"^batch of {np.dtype(dtype)} counts, not values; encode it first$"):
        batch_matrix(counts, 3)
    model = make_model(3, hidden=(2, 1), seed=1)
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        forward(model, counts)
    assert batch_matrix(counts.astype(bool), 3).dtype == np.bool_


def test_batch_matrix_rejects_empty_and_mixed_width():
    with pytest.raises(ValueError, match="empty"):
        batch_matrix(sparse.csr_matrix((0, 3)), 3)
    with pytest.raises(ValueError, match="width"):
        batch_matrix(rows([1.0, 0.0, 2.0, 0.5]), 3)


# ------------------------------------------------------------------- forward


def test_zero_weights_give_exactly_half():
    rng = np.random.default_rng(2)
    model = zero_model(6)
    cache = forward(model, random_batch(rng, 6, 4)[0])
    npt.assert_array_equal(cache.prob, 0.5)


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for case in range(100):
        width = int(rng.integers(1, 65))
        depth = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(1, 9)) for _ in range(depth)) + (1,)
        activation = "relu" if case % 2 else "none"
        model = make_model(width, hidden=hidden, activation=activation, seed=case)
        batch, _ = random_batch(rng, width, int(rng.integers(1, 6)))
        got = forward(model, batch).prob
        want = dense_forward(model, batch.toarray())
        npt.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_forward_probabilities_clamped_strictly_inside_unit_interval():
    model = zero_model(1)
    model.weights[0][:] = 60.0  # drives the sigmoid to within 1e-26 of 1
    cache = forward(model, rows([1.0], [-1.0]))
    assert 0.0 < cache.prob[1] and cache.prob[0] < 1.0
    assert cache.prob[0] == 1.0 - 1e-12
    assert cache.prob[1] == 1e-12


def test_forward_non_finite_raises():
    model = zero_model(2)
    model.weights[0][0] = np.inf
    with pytest.raises(DivergenceError):
        forward(model, rows([1.0], width=2))


def cascade_prob(logits):
    """``net.cascade``'s probabilities for the given logits, fed through one
    width-1 layer whose bias of -0.0 leaves every value, -0.0 too, unchanged."""
    model = zero_model(1)
    model.biases[0][:] = -0.0
    return net.cascade(model, np.asarray(logits, dtype=np.float64)[:, None]).prob


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, f"{differ.size} differ, first at {got[differ[:1]]} vs {want[differ[:1]]}"


@pytest.mark.parametrize("scale", [1e-8, 1.0, 10.0, 30.0, 700.0])
def test_sigmoid_matches_expit_bit_for_bit(scale):
    logits = np.random.default_rng(41).standard_normal(10**6) * scale
    assert_same_bits(cascade_prob(logits), clamped_sigmoid(logits))


def test_sigmoid_matches_expit_at_the_edges():
    edges = [0.0, 5e-324, 709.0, 709.79, 745.2, 1.7e308]
    logits = np.array(edges + [-x for x in edges])
    assert np.signbit(logits[len(edges)])  # -0.0 is in the list
    assert_same_bits(cascade_prob(logits), clamped_sigmoid(logits))


def test_first_layer_rows_do_not_depend_on_the_slice():
    rng = np.random.default_rng(25)
    model = make_model(40, hidden=(16, 8, 1), seed=25)
    x, _ = random_batch(rng, 40, 23)
    whole = net.first_layer(model, x)
    for lo, hi in ((0, 1), (3, 10), (10, 23)):
        assert net.first_layer(model, x[lo:hi]).tobytes() == whole[lo:hi].tobytes()
        got = net.cascade(model, whole[lo:hi])
        want = forward(model, x[lo:hi])
        assert got.inputs is None
        assert got.prob.tobytes() == want.prob.tobytes()


def test_forward_accepts_prebuilt_csr():
    rng = np.random.default_rng(4)
    model = make_model(9, seed=1)
    batch, _ = random_batch(rng, 9, 3)
    as_csr = forward(model, batch).prob
    as_coo = forward(model, batch.tocoo()).prob
    npt.assert_array_equal(as_csr, as_coo)


def test_forward_training_flag_recorded():
    rng = np.random.default_rng(5)
    model = make_model(4, dropout=0.2)
    batch, _ = random_batch(rng, 4, 2)
    assert forward(model, batch).training is False
    assert forward(model, batch, training=True).training is True


# ------------------------------------------------------------------- dropout


def test_dropout_zero_training_equals_inference():
    rng = np.random.default_rng(6)
    model = make_model(8, hidden=(5, 1), dropout=0.0, seed=2)
    batch, _ = random_batch(rng, 8, 4)
    train_cache = forward(model, batch, training=True, dropout_seed=9)
    infer_cache = forward(model, batch, training=False)
    npt.assert_array_equal(train_cache.prob, infer_cache.prob)
    assert train_cache.dropout_mask is None


def test_dropout_only_masks_last_hidden_layer():
    rng = np.random.default_rng(7)
    model = make_model(6, hidden=(5, 3, 1), dropout=0.5, seed=3)
    batch, _ = random_batch(rng, 6, 4)
    cache = forward(model, batch, training=True, dropout_seed=1)
    assert cache.dropout_mask is not None
    assert cache.dropout_mask.shape == (4, 3)  # width of the last hidden layer
    # first hidden layer output is untouched by the mask
    plain = forward(model, batch, training=False)
    npt.assert_array_equal(cache.post[0], plain.post[0])


def test_dropout_mask_values_are_zero_or_inverse_keep():
    rng = np.random.default_rng(8)
    model = make_model(5, hidden=(40, 1), dropout=0.2, seed=4)
    batch, _ = random_batch(rng, 5, 10)
    cache = forward(model, batch, training=True, dropout_seed=123)
    values = np.unique(cache.dropout_mask)
    assert set(values).issubset({0.0, 1.0 / 0.8})


def test_dropout_inference_applies_no_mask():
    rng = np.random.default_rng(9)
    model = make_model(5, hidden=(4, 1), dropout=0.9, seed=5)
    batch, _ = random_batch(rng, 5, 3)
    cache = forward(model, batch, training=False)
    assert cache.dropout_mask is None


def test_dropout_same_seed_same_mask():
    rng = np.random.default_rng(10)
    model = make_model(5, hidden=(6, 1), dropout=0.3, seed=6)
    batch, _ = random_batch(rng, 5, 4)
    a = forward(model, batch, training=True, dropout_seed=77)
    b = forward(model, batch, training=True, dropout_seed=77)
    npt.assert_array_equal(a.dropout_mask, b.dropout_mask)
    npt.assert_array_equal(a.prob, b.prob)
    c = forward(model, batch, training=True, dropout_seed=78)
    assert not np.array_equal(a.dropout_mask, c.dropout_mask)


def test_dropout_scaling_is_unbiased():
    # keep-and-rescale should preserve the expected activation within 2%
    model = make_model(3, hidden=(3, 1), dropout=0.2)
    model.weights[0][:] = np.eye(3)
    x = rows([1.0, 2.0, 3.0])
    reference = forward(model, x, training=False).post[0][0]
    total = np.zeros(3)
    for seed in range(10_000):
        total += forward(model, x, training=True, dropout_seed=seed).post[0][0]
    npt.assert_allclose(total / 10_000, reference, rtol=0.02)


# ---------------------------------------------------------------------- loss
# the loss the program reports: train.evaluate's mean bce over a dataset


def reported_bce(model, batch, labels):
    return evaluate(model, Corpus(batch, np.asarray(labels, dtype=np.int64))).bce


def test_loss_at_half_is_log_two():
    model = zero_model(3)
    bce = reported_bce(model, rows([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]), [0, 1])
    npt.assert_allclose(bce, math.log(2.0), rtol=0.0, atol=1e-15)


def test_loss_matches_bce_oracle():
    rng = np.random.default_rng(12)
    for case in range(30):
        width = int(rng.integers(1, 20))
        model = make_model(width, hidden=(4, 1), activation="relu", seed=case)
        batch, labels = random_batch(rng, width, int(rng.integers(1, 6)))
        want = bce_mean(forward(model, batch).prob, labels)
        npt.assert_allclose(reported_bce(model, batch, labels), want, rtol=1e-12, atol=1e-15)


def test_near_certain_wrong_prediction_has_large_finite_loss():
    model = zero_model(1)
    model.weights[0][:] = 1000.0
    bce = reported_bce(model, rows([1.0]), [0])
    assert np.isfinite(bce)
    npt.assert_allclose(bce, -math.log(1e-12), rtol=1e-6)


# ------------------------------------------------------------------ backward


def test_backward_single_weight_hand_case():
    model = zero_model(1)
    cache = forward(model, rows([1.0]))
    grads = backward(model, cache, [1])
    npt.assert_allclose(grads.weights[0], [[-0.5]], rtol=0.0, atol=1e-15)
    npt.assert_allclose(grads.biases[0], [-0.5], rtol=0.0, atol=1e-15)


def test_backward_balanced_batch_output_bias_gradient_cancels():
    rng = np.random.default_rng(13)
    model = zero_model(5, hidden=(3, 1))
    batch = sparse.csr_matrix(np.stack([dense_row(rng, 5), dense_row(rng, 5)]))
    cache = forward(model, batch)
    grads = backward(model, cache, [0, 1])
    # zero weights keep every activation at zero and the deltas cancel
    for g in grads.weights + grads.biases:
        npt.assert_array_equal(g, 0.0)


def test_backward_l2_term_alone_when_probabilities_match_labels():
    model = make_model(2, hidden=(1,), l2=0.01, seed=7)
    grads_with = backward(model, forward(model, rows([0.0, 0.0])), [1])
    # an all-zero input row leaves only the bias path and the l2 pull on weights
    npt.assert_allclose(grads_with.weights[0], 2 * 0.01 * model.weights[0], atol=1e-15)


@pytest.mark.parametrize("encoding", [MULTI_HOT, POLARITY_WEIGHTED])
@pytest.mark.parametrize("activation", ["none", "relu"])
@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
def test_backward_bit_equal_to_whole_array_oracle(monkeypatch, encoding, activation, chunk_rows):
    """The in-place chunked L2 term gives the oracle's gradients bit for bit,
    through a training forward with dropout on an encoded batch."""
    width = 5000 if chunk_rows == 4096 else 60  # several chunks and a ragged last one
    ratings = rating_table(21, width)
    table = ratings if encoding == POLARITY_WEIGHTED else None
    data = encode_corpus(
        planted_corpus(22, 300, ratings, max_distinct=40), encoding, polarity=table, width=width
    )
    model = make_model(width, hidden=(16, 8, 1), activation=activation,
                       dropout=0.2, l2=0.019, seed=23)
    monkeypatch.setattr(net, "_CHUNK_ROWS", chunk_rows)
    cache = forward(model, values_of(data), training=True, dropout_seed=24)
    grads = backward(model, cache, data.labels)
    want_w, want_b = oracle_backward(model, cache, data.labels)
    for got, want in zip(grads.weights + grads.biases, want_w + want_b):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_backward_gradients_equal_at_one_and_two_threads(monkeypatch):
    """The L2 term's chunks, shared by two threads, give the same bytes."""
    width = 5 * net._CHUNK_ROWS + 11  # five whole chunks and a ragged one
    rng = np.random.default_rng(25)
    batch = sparse.random(64, width, density=0.02, random_state=rng, format="csr")
    labels = rng.integers(0, 2, 64)
    model = make_model(width, hidden=(16, 8, 1), dropout=0.2, l2=0.019, seed=26)
    got = {}
    for threads in (1, 2):
        monkeypatch.setattr(net, "_THREADS", threads)
        grads = backward(model, forward(model, batch, training=True, dropout_seed=27), labels)
        got[threads] = [g.tobytes() for g in grads.weights + grads.biases]
    assert got[1] == got[2]


def test_chunked_runs_every_chunk_once_under_contention(monkeypatch):
    """Four threads on the shared chunk iterator, switching as often as the
    interpreter allows: no chunk is lost or run twice."""
    monkeypatch.setattr(net, "_THREADS", 4)
    monkeypatch.setattr(net, "_CHUNK_ROWS", 3)
    seen = []

    def work(lo, hi, scratch):
        seen.append((lo, hi))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        net._chunked(3 * 5000 + 2, work, lambda rows: None)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == [(lo, min(lo + 3, 15002)) for lo in range(0, 15002, 3)]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_chunked_runs_in_a_forked_child(monkeypatch):
    """A child forked after the helpers started gets helpers of its own; the
    parent's pool, copied without its threads, would never run a task."""
    monkeypatch.setattr(net, "_THREADS", 2)
    height, done = 3 * net._CHUNK_ROWS, []
    net._chunked(height, lambda lo, hi, scratch: done.append(lo), lambda rows: None)
    pid = os.fork()
    if pid == 0:  # the child reports through its exit status
        code = 1
        try:
            net._chunked(height, lambda lo, hi, scratch: None, lambda rows: None)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10
    while not (status := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not status[0]:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0
    assert sorted(done) == [0, net._CHUNK_ROWS, 2 * net._CHUNK_ROWS]


def test_chunked_raises_a_helpers_exception(monkeypatch):
    monkeypatch.setattr(net, "_THREADS", 2)
    caller, helper_failed = threading.get_ident(), threading.Event()
    done = []

    def work(lo, hi, scratch):
        if threading.get_ident() == caller:
            assert helper_failed.wait(10)  # so the helper takes a chunk
            done.append(lo)
        else:
            helper_failed.set()
            raise ValueError(f"helper chunk at {lo}")

    with pytest.raises(ValueError, match="helper chunk at"):
        net._chunked(6 * net._CHUNK_ROWS, work, lambda rows: None)
    assert done  # the caller finished its chunks before raising


def test_chunked_waits_for_helpers_when_the_caller_raises(monkeypatch):
    monkeypatch.setattr(net, "_THREADS", 3)
    caller, helper_started = threading.get_ident(), threading.Event()
    running, finished = set(), []

    def work(lo, hi, scratch):
        if threading.get_ident() == caller:
            assert helper_started.wait(10)
            raise RuntimeError("caller chunk")
        running.add(lo)
        helper_started.set()
        time.sleep(0.05)
        running.discard(lo)
        finished.append(lo)

    with pytest.raises(RuntimeError, match="caller chunk"):
        net._chunked(6 * net._CHUNK_ROWS, work, lambda rows: None)
    assert not running
    assert len(finished) == 5  # every chunk but the one the caller took


def test_backward_stale_cache_rejected():
    rng = np.random.default_rng(14)
    small = make_model(4, hidden=(2, 1), seed=8)
    big = make_model(4, hidden=(3, 1), seed=9)
    cache = forward(small, random_batch(rng, 4, 2)[0])
    with pytest.raises(ValueError, match="cache"):
        backward(big, cache, [0, 1])


def test_backward_rejects_bad_labels():
    model = zero_model(2)
    cache = forward(model, rows([1.0], width=2))
    for labels in ([2], [0.5], [[1]]):
        with pytest.raises(ValueError, match="^labels must be a flat sequence of 0s and 1s$"):
            backward(model, cache, labels)


def test_backward_label_count_must_match_batch():
    rng = np.random.default_rng(15)
    model = make_model(4, seed=10)
    cache = forward(model, random_batch(rng, 4, 3)[0])
    with pytest.raises(ValueError):
        backward(model, cache, [0, 1])


# ---------------------------------------------------------- gradient checking


def vector_rel_error(grads, fd):
    num = math.sqrt(sum(float(((a - b) ** 2).sum()) for a, b in zip(grads, fd)))
    den = math.sqrt(sum(float((a**2).sum()) for a in grads)) + math.sqrt(
        sum(float((b**2).sum()) for b in fd)
    )
    return num / max(den, 1e-12)


def fd_all_coords(model, batch, labels, h=1e-6, training=False, dropout_seed=0):
    approx_w, approx_b = [], []
    for l in range(model.layer_count):
        gw = np.empty_like(model.weights[l])
        for index in np.ndindex(gw.shape):
            gw[index] = finite_difference_grad(
                model, batch, labels, (l, "W", index), h, training, dropout_seed
            )
        gb = np.empty_like(model.biases[l])
        for index in np.ndindex(gb.shape):
            gb[index] = finite_difference_grad(
                model, batch, labels, (l, "b", index), h, training, dropout_seed
            )
        approx_w.append(gw)
        approx_b.append(gb)
    return approx_w, approx_b


def sample_net_case(rng, case, max_width=8):
    width = int(rng.integers(1, max_width + 1))
    depth = int(rng.integers(1, 4))
    hidden = tuple(int(rng.integers(1, max_width + 1)) for _ in range(depth)) + (1,)
    activation = "relu" if case % 2 else "none"
    l2 = 0.019 if case % 3 == 0 else 0.0
    model = make_model(width, hidden=hidden, activation=activation, l2=l2, seed=1000 + case)
    for b in model.biases:
        b[:] = rng.normal(0.0, 0.3, b.shape)
    while True:
        batch, labels = random_batch(rng, width, int(rng.integers(1, 5)))
        cache = forward(model, batch)
        # keep relu pre-activations clear of the kink so h never crosses it
        closest = min(
            (float(np.abs(z).min()) for z in cache.pre[:-1]), default=1.0
        )
        if activation == "none" or closest > 1e-4:
            break
        for b in model.biases:
            b += rng.normal(0.0, 0.1, b.shape)
    return model, batch, labels


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(16)
    worst = 0.0
    for case in range(20):
        model, batch, labels = sample_net_case(rng, case)
        cache = forward(model, batch)
        grads = backward(model, cache, labels)
        fd_w, fd_b = fd_all_coords(model, batch, labels)
        err = vector_rel_error(grads.weights + grads.biases, fd_w + fd_b)
        worst = max(worst, err)
    assert worst < 1e-6


def test_gradients_match_finite_differences_with_frozen_dropout():
    rng = np.random.default_rng(17)
    worst = 0.0
    for case in range(10):
        width = int(rng.integers(2, 8))
        model = make_model(width, hidden=(4, 1), dropout=0.2, l2=0.019, seed=case)
        batch, labels = random_batch(rng, width, 3)
        seed = 500 + case
        cache = forward(model, batch, training=True, dropout_seed=seed)
        grads = backward(model, cache, labels)
        fd_w, fd_b = fd_all_coords(model, batch, labels, training=True, dropout_seed=seed)
        err = vector_rel_error(grads.weights + grads.biases, fd_w + fd_b)
        worst = max(worst, err)
    assert worst < 1e-6


def test_finite_difference_grad_validates_coordinate():
    model = make_model(2, seed=0)
    with pytest.raises(ValueError):
        finite_difference_grad(model, rows([1.0, 0.0]), [1], (0, "x", (0, 0)), 1e-6)


# ------------------------------------------------------------------- predict


def test_predict_tie_goes_positive():
    model = zero_model(3)
    p, category = predict(model, rows([1.0], width=3))
    assert p == 0.5
    assert category == 1


def test_predict_threshold_extremes():
    ex = rows([1.0], width=3)
    always = zero_model(3)
    always.config.discriminator = 0.0
    assert predict(always, ex)[1] == 1
    never = zero_model(3)
    never.config.discriminator = 1.0
    assert predict(never, ex)[1] == 0


def test_predict_follows_logit_sign():
    model = zero_model(1)
    model.weights[0][:] = 2.0
    assert predict(model, rows([1.0]))[1] == 1
    assert predict(model, rows([-1.0]))[1] == 0
    with pytest.raises(ValueError, match="one row"):
        predict(model, rows([1.0], [-1.0]))


# ------------------------------------------------------- finite differences


def test_central_difference_quadratic():
    got = central_difference(lambda w: w * w, 3.0, 1e-5)
    npt.assert_allclose(got, 6.0, rtol=1e-9)


def test_central_difference_rejects_bad_step():
    with pytest.raises(ValueError):
        central_difference(lambda w: w, 1.0, 0.0)
    with pytest.raises(ValueError):
        central_difference(lambda w: w, 1.0, -1e-5)


# ------------------------------------------------------------------- copying


def test_model_copy_is_deep_for_parameters():
    model = make_model(4, seed=12)
    clone = model.copy()
    clone.weights[0][0, 0] += 1.0
    assert model.weights[0][0, 0] != clone.weights[0][0, 0]
