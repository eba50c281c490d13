import hashlib
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

import oracles
from bowtie import net, optim
from bowtie.errors import DivergenceError
from bowtie.net import Gradients, ModelConfig, backward, forward, init_model
from bowtie.optim import (
    OPTIMIZERS,
    MomentState,
    OptimizerSpec,
    apply_update,
    _step_tensor,
    init_state,
)


def tiny_model(seed=0, hidden=(3, 1), width=4):
    cfg = ModelConfig(
        input_width=width, hidden_widths=hidden, dropout_rate=0.0, l2_weight=0.0,
        init_seed=seed,
    )
    return init_model(cfg)


def random_grads(rng, model, scale=1.0):
    return Gradients(
        weights=[rng.normal(0, scale, w.shape) for w in model.weights],
        biases=[rng.normal(0, scale, b.shape) for b in model.biases],
    )


def zero_grads(model):
    return Gradients(
        weights=[np.zeros_like(w) for w in model.weights],
        biases=[np.zeros_like(b) for b in model.biases],
    )


def single_step(kind, param, grad, lr=0.001, **kw):
    """One apply_update on a model holding a single scalar weight."""
    model = tiny_model(hidden=(1,), width=1)
    model.weights[0][:] = float(param)
    spec = OptimizerSpec(kind=kind, learning_rate=lr, **kw)
    grads = Gradients(
        weights=[np.array([[float(grad)]])], biases=[np.zeros(1)]
    )
    apply_update(spec, init_state(model), model, grads)
    return float(model.weights[0][0, 0])


# --------------------------------------------------------------- hand values


def test_sgd_single_step_hand_value():
    assert single_step("sgd", 1.0, 0.5, lr=0.1) == 0.95


def test_rmsprop_first_step_hand_value():
    # v = 0.1 g^2, step = lr g / (sqrt(0.1) |g| + eps) ~= lr / sqrt(0.1)
    got = single_step("rmsprop", 1.0, 1.0, lr=0.001)
    npt.assert_allclose(1.0 - got, 0.001 / np.sqrt(0.1), rtol=1e-5)


def test_adam_first_step_is_learning_rate_sized():
    got = single_step("adam", 1.0, 1.0, lr=0.001)
    npt.assert_allclose(got, 0.999, rtol=0.0, atol=1e-9)


def test_adam_first_step_direction_follows_gradient_sign():
    assert single_step("adam", 0.0, 4.0) < 0.0
    assert single_step("adam", 0.0, -4.0) > 0.0


def test_nadam_first_step_hand_value():
    # numerator at t=1 is beta1*m_hat + (1-beta1)*g/(1-beta1) = 1.9 g
    got = single_step("nadam", 1.0, 1.0, lr=0.001)
    npt.assert_allclose(1.0 - got, 1.9 * 0.001, rtol=1e-6)


def test_nadam_outruns_adam_on_first_step():
    adam = single_step("adam", 1.0, 1.0)
    nadam = single_step("nadam", 1.0, 1.0)
    assert 1.0 - nadam > 1.0 - adam


# ---------------------------------------------------------------- invariants


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_zero_gradient_leaves_parameters_bitwise_unchanged(kind):
    model = tiny_model(seed=1)
    before_w = [w.copy() for w in model.weights]
    before_b = [b.copy() for b in model.biases]
    spec = OptimizerSpec(kind=kind)
    state = init_state(model)
    for _ in range(5):
        apply_update(spec, state, model, zero_grads(model))
    for got, want in zip(model.weights + model.biases, before_w + before_b):
        npt.assert_array_equal(got, want)
    assert state.step == 5


@pytest.mark.parametrize("kind", ["adam", "rmsprop"])
def test_scaled_gradients_give_nearly_identical_steps(kind):
    base = single_step(kind, 1.0, 1.0)
    scaled = single_step(kind, 1.0, 1000.0)
    npt.assert_allclose(1.0 - base, 1.0 - scaled, rtol=1e-6)


def test_sgd_steps_scale_linearly_with_gradient():
    small = 1.0 - single_step("sgd", 1.0, 0.25, lr=0.01)
    big = 1.0 - single_step("sgd", 1.0, 250.0, lr=0.01)
    npt.assert_allclose(big, 1000.0 * small, rtol=1e-12)


@pytest.mark.parametrize("kind", ["rmsprop", "adam", "nadam"])
def test_second_moments_stay_nonnegative(kind):
    rng = np.random.default_rng(2)
    model = tiny_model(seed=2)
    spec = OptimizerSpec(kind=kind)
    state = init_state(model)
    for _ in range(25):
        apply_update(spec, state, model, random_grads(rng, model, scale=3.0))
    for v in state.second:
        assert (v >= 0.0).all()


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_update_is_deterministic(kind):
    results = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        model = tiny_model(seed=3)
        spec = OptimizerSpec(kind=kind)
        state = init_state(model)
        for _ in range(10):
            apply_update(spec, state, model, random_grads(rng, model))
        results.append([t.copy() for t in model.weights + model.biases])
    for a, b in zip(*results):
        npt.assert_array_equal(a, b)


def test_step_counter_increments_once_per_update():
    model = tiny_model(seed=4)
    state = init_state(model)
    spec = OptimizerSpec(kind="adam")
    apply_update(spec, state, model, zero_grads(model))
    apply_update(spec, state, model, zero_grads(model))
    assert state.step == 2


def test_state_shape_mismatch_rejected():
    model = tiny_model(seed=5)
    other = tiny_model(seed=5, hidden=(2, 1))
    state = init_state(other)
    with pytest.raises(ValueError):
        apply_update(OptimizerSpec(), state, model, zero_grads(model))


def test_gradient_shape_mismatch_rejected():
    model = tiny_model(seed=6)
    state = init_state(model)
    bad = zero_grads(model)
    bad.weights[0] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        apply_update(OptimizerSpec(), state, model, bad)


def _bias_too_long(grads):
    grads.biases[0] = np.zeros(7)


def _bias_broadcasts(grads):
    grads.biases[0] = np.zeros(1)


def _bias_list_short(grads):
    del grads.biases[1]


def _later_weight_wrong(grads):
    grads.weights[1] = np.zeros((3, 1))


@pytest.mark.parametrize(
    "spoil", [_bias_too_long, _bias_broadcasts, _bias_list_short, _later_weight_wrong],
    ids=["bias-too-long", "bias-broadcasts", "bias-list-short", "later-weight-wrong"],
)
def test_bad_gradients_rejected_before_anything_moves(spoil):
    """Every gradient's shape and the list lengths are checked before the first
    tensor is stepped: a (7,) or (1,) bias gradient for a (4,) bias, a short
    list and a wrong layer-1 weight leave parameters, moments and the step
    counter untouched."""
    model = tiny_model(seed=6, hidden=(4, 1))
    state = init_state(model)
    spec = OptimizerSpec(kind="adam")
    apply_update(spec, state, model, random_grads(np.random.default_rng(6), model))
    before = [t.copy() for t in (*model.weights, *model.biases, *state.first, *state.second)]
    grads = random_grads(np.random.default_rng(7), model)
    spoil(grads)
    with pytest.raises(ValueError):
        apply_update(spec, state, model, grads)
    after = (*model.weights, *model.biases, *state.first, *state.second)
    for got, was in zip(after, before):
        npt.assert_array_equal(got, was)
    assert state.step == 1


def test_non_finite_parameters_raise_divergence():
    model = tiny_model(seed=7)
    state = init_state(model)
    bad = zero_grads(model)
    bad.weights[0][:] = np.inf
    with pytest.raises(DivergenceError):
        apply_update(OptimizerSpec(kind="sgd", learning_rate=1.0), state, model, bad)


@pytest.mark.parametrize("tensor, layer", [("weight", 0), ("bias", 1)])
def test_divergence_names_the_non_finite_tensor(tensor, layer):
    """Both tensors of the diverging layer are stepped first; later layers are not."""
    model = tiny_model(seed=7)
    before = [t.copy() for t in model.weights + model.biases]
    grads = random_grads(np.random.default_rng(7), model)
    (grads.weights if tensor == "weight" else grads.biases)[layer][:] = np.inf
    with pytest.raises(DivergenceError, match=f"non-finite {tensor} .* at layer {layer}$"):
        apply_update(
            OptimizerSpec(kind="sgd", learning_rate=1.0), init_state(model), model, grads
        )
    n = model.layer_count
    for l in range(n):
        for got, was in ((model.weights[l], before[l]), (model.biases[l], before[n + l])):
            assert (got != was).all() == (l <= layer), (l, got, was)


def test_apply_update_moves_toward_lower_loss():
    rng = np.random.default_rng(8)
    from bowtie.net import backward, loss

    model = tiny_model(seed=8, width=6)
    rows, labels = [], []
    for _ in range(8):
        rows.append(rng.normal(0, 1, 6))
        labels.append(int(rng.integers(0, 2)))
    batch = sparse.csr_matrix(np.stack(rows))
    spec = OptimizerSpec(kind="sgd", learning_rate=0.5)
    state = init_state(model)
    start = loss(forward(model, batch), labels, model)[1]
    for _ in range(50):
        cache = forward(model, batch)
        grads = backward(model, cache, labels)
        apply_update(spec, state, model, grads)
    end = loss(forward(model, batch), labels, model)[1]
    assert end < start


# ------------------------------------------------------- chunked vs oracle


def tensors_bytes(model, state):
    arrays = model.weights + model.biases + state.first + state.second
    return [a.tobytes() for a in arrays]


# first-layer heights that the chunk size does not divide (but for chunk 1,
# where a short tensor keeps the row-by-row run quick); the 16- and 8-element
# biases and 16x8 weights are ragged at chunk 7 too
@pytest.mark.parametrize("chunk, width", [(1, 263), (7, 4103), (4096, 4103), (4103, 4103)])
@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_chunked_step_matches_the_oracle_bit_for_bit(kind, chunk, width, monkeypatch):
    """20 chained steps on a nonzero-l2 model, gradients from random batches."""
    rng = np.random.default_rng(11)
    cfg = ModelConfig(input_width=width, dropout_rate=0.0, l2_weight=0.019, init_seed=11)
    fused, reference = init_model(cfg), init_model(cfg)
    spec = OptimizerSpec(kind=kind, learning_rate=0.01)
    fused_state, reference_state = init_state(fused), init_state(reference)
    monkeypatch.setattr(net, "_CHUNK_ROWS", chunk)
    for step in range(20):
        batch = sparse.random(32, width, density=0.03, random_state=rng, format="csr")
        labels = rng.integers(0, 2, 32).tolist()
        grads = backward(fused, forward(fused, batch), labels)
        scale = 10.0 ** rng.uniform(-4.0, 2.0)
        grads = Gradients([g * scale for g in grads.weights], [g * scale for g in grads.biases])
        with monkeypatch.context() as patch:
            patch.setattr(optim, "_step_tensor", oracles.finite_step_tensor)
            apply_update(spec, reference_state, reference, grads)
        apply_update(spec, fused_state, fused, grads)
        assert tensors_bytes(fused, fused_state) == tensors_bytes(reference, reference_state), step
    assert fused_state.step == reference_state.step == 20


def synthetic_steps(kind, step, steps=20):
    """(spec, param, first, second) after ``steps`` chained calls of ``step``
    on a seeded 4 103x16 tensor (ragged against the 4 096-row chunk), each
    gradient scaled by 10^U(-4, 2) rounded to three digits, so no libm ``pow``
    rounding can reach the data."""
    rng = np.random.default_rng(13)
    shape = (4103, 16)
    spec = OptimizerSpec(kind=kind, learning_rate=0.01)
    param, m, v = rng.normal(0.0, 0.1, shape), np.zeros(shape), np.zeros(shape)
    for t in range(1, steps + 1):
        scale = float(f"{10.0 ** rng.uniform(-4.0, 2.0):.3g}")
        step(spec, param, rng.normal(0.0, 1.0, shape) * scale, m, v, t)
    return spec, param, m, v


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_step_bits_equal_at_one_two_and_three_threads(kind, monkeypatch):
    """Five whole chunks and a ragged one, shared by up to three threads."""
    rng = np.random.default_rng(14)
    shape = (5 * net._CHUNK_ROWS + 1001, 16)
    start = rng.normal(0.0, 0.1, shape)
    grads = [rng.normal(0.0, 1.0, shape) for _ in range(3)]
    spec = OptimizerSpec(kind=kind, learning_rate=0.01)
    got = {}
    for threads in (1, 2, 3):
        monkeypatch.setattr(net, "_THREADS", threads)
        param, m, v = start.copy(), np.zeros(shape), np.zeros(shape)
        for t, grad in enumerate(grads, 1):
            assert _step_tensor(spec, param, grad, m, v, t)
        got[threads] = (param.tobytes(), m.tobytes(), v.tobytes())
    assert got[1] == got[2] == got[3]


def test_non_finite_chunk_of_a_helper_raises_the_same_error(monkeypatch):
    """An inf in the first layer's last chunk, which a helper is made to
    take, names the same tensor and layer as on one thread."""
    width = 5 * net._CHUNK_ROWS + 7
    model = init_model(ModelConfig(input_width=width, init_seed=15))
    model.weights[0][-1, 3] = np.inf
    grads = random_grads(np.random.default_rng(15), model)
    messages, last_chunk_threads = [], []

    def helper_takes_the_last_chunk(height, work, scratch):
        caller, last_done = threading.get_ident(), threading.Event()

        def spied(lo, hi, buffers):
            if threading.get_ident() == caller and height > net._CHUNK_ROWS:
                assert last_done.wait(10)
            work(lo, hi, buffers)
            if hi == height > net._CHUNK_ROWS:
                last_chunk_threads.append(threading.get_ident() != caller)
                last_done.set()

        net._chunked(height, spied, scratch)

    for threads in (1, 2):
        monkeypatch.setattr(net, "_THREADS", threads)
        if threads == 2:
            monkeypatch.setattr(optim, "_chunked", helper_takes_the_last_chunk)
        with pytest.raises(DivergenceError) as err:
            apply_update(OptimizerSpec(kind="nadam"), init_state(model), model.copy(), grads)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "non-finite weight after nadam step 1 at layer 0"
    assert last_chunk_threads == [True]


# sgd reads no moments, so their scaling must not move its digest
STEP_DIGESTS = {
    "sgd": "9a97131b8a2170a90a24d9b5bf4907c4f1ce7eb9cd735a3192d5516b6f2e8034",
    "rmsprop": "4e22f0bfe007ab133c93ca1847589b2dd22fcceb6a2019bec34c0cc9d5569fed",
    "adam": "dd0d2e86476ccc45fb3f915eab7c49ac0aef1d1925158ee4316b8ec60010ac7c",
    "nadam": "4a9b614fbb4b558ed922f8c176cb1dc38fadc9182e118e95da70a57f82fe60ab",
}


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_step_bits_are_pinned(kind):
    """Only IEEE add, multiply, divide and sqrt touch the arrays (no BLAS), so
    every platform and numpy version must give these bytes."""
    _, param, m, v = synthetic_steps(kind, _step_tensor)
    digest = hashlib.sha256(param.tobytes() + m.tobytes() + v.tobytes()).hexdigest()
    assert digest == STEP_DIGESTS[kind]


@pytest.mark.parametrize("kind", ["rmsprop", "adam", "nadam"])
def test_scaled_step_agrees_with_the_textbook_formulas(kind):
    """Scaled moments times (1 - decay) are the textbook moments.  Measured
    after 20 steps: parameters and first moments within 2e-11 relative,
    second moments within 2e-15; across seeds 0-11 at most 1.6e-10 and
    4.3e-11 (entries near zero) and 2.1e-15."""
    spec, param, m, v = synthetic_steps(kind, _step_tensor)
    _, want_param, want_m, want_v = synthetic_steps(kind, oracles.textbook_step_tensor)
    decay = spec.rms_decay if kind == "rmsprop" else spec.beta2
    npt.assert_allclose(param, want_param, rtol=1e-9, atol=0.0)
    npt.assert_allclose(v * (1.0 - decay), want_v, rtol=1e-13, atol=0.0)
    if kind != "rmsprop":
        npt.assert_allclose(m * (1.0 - spec.beta1), want_m, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_step_allocates_less_than_half_the_first_layer(kind):
    rng = np.random.default_rng(12)
    model = init_model(ModelConfig(input_width=89_527, init_seed=12))
    grads = random_grads(rng, model)
    state = init_state(model)
    tracemalloc.start()
    try:
        apply_update(OptimizerSpec(kind=kind), state, model, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.weights[0].nbytes / 2, peak


# ------------------------------------------------------------- spec checking


@pytest.mark.parametrize(
    "kw",
    [
        {"kind": "momentum"},
        {"learning_rate": -0.001},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"rms_decay": 1.0},
        {"epsilon": 0.0},
    ],
)
def test_spec_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        OptimizerSpec(**kw)


def test_spec_defaults():
    spec = OptimizerSpec()
    assert spec.kind == "sgd"
    assert spec.learning_rate == 0.001
    assert (spec.beta1, spec.beta2, spec.rms_decay) == (0.9, 0.999, 0.9)
    assert spec.epsilon == 1e-7


# ------------------------------------------------------------------ selftest


class NonConvergenceError(RuntimeError):
    """An optimizer failed to reach its target within the iteration budget."""


def minimize_quadratic_selftest(
    spec: OptimizerSpec,
    start: float = 5.0,
    tolerance: float = 1e-3,
    max_iterations: int = 100_000,
) -> tuple[float, int]:
    """Drive f(w) = w**2 toward 0; returns (final w, iterations used).

    A cheap smoke test that an optimizer configuration actually descends:
    raises NonConvergenceError when |w| never drops below the tolerance,
    which a zero learning rate will always trigger.
    """
    w = np.array([float(start)])
    m = np.zeros(1)
    v = np.zeros(1)
    # explosions surface as the explicit non-finite check, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_iterations + 1):
            grad = 2.0 * w
            _step_tensor(spec, w, grad, m, v, t)
            if not np.isfinite(w[0]):
                raise NonConvergenceError(
                    f"{spec.kind} diverged on the quadratic after {t} iterations"
                )
            if abs(w[0]) < tolerance:
                return float(w[0]), t
    raise NonConvergenceError(
        f"{spec.kind} failed to reach |w| < {tolerance} "
        f"within {max_iterations} iterations"
    )


def test_selftest_sgd_converges_in_39_iterations():
    w, iterations = minimize_quadratic_selftest(
        OptimizerSpec(kind="sgd", learning_rate=0.1)
    )
    assert iterations == 39
    assert abs(w) < 1e-3


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_selftest_default_rates_converge(kind):
    lr = 0.1 if kind == "sgd" else 0.001
    w, iterations = minimize_quadratic_selftest(
        OptimizerSpec(kind=kind, learning_rate=lr)
    )
    assert abs(w) < 1e-3
    assert iterations < 100_000


def test_selftest_zero_learning_rate_never_converges():
    with pytest.raises(NonConvergenceError, match="within"):
        minimize_quadratic_selftest(OptimizerSpec(kind="sgd", learning_rate=0.0))


def test_selftest_unstable_rate_reports_divergence():
    with pytest.raises(NonConvergenceError, match="diverged"):
        minimize_quadratic_selftest(OptimizerSpec(kind="sgd", learning_rate=400.0))


def test_selftest_reports_final_point_under_tolerance():
    w, _ = minimize_quadratic_selftest(
        OptimizerSpec(kind="adam", learning_rate=0.01), tolerance=1e-2
    )
    assert abs(w) < 1e-2
