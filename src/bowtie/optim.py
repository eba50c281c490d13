"""First-order optimizers: sgd, rmsprop, adam, and nadam.

One update rule applied uniformly to every weight matrix and bias vector;
the moment accumulators live in MomentState, scaled so that a step adds the
raw gradient.  The bias corrections, learning rate, ``1 - decay`` factors
and epsilon fold into two scalars per step, so a chunk takes one divide.

Each tensor is updated in place by ``net._chunked``: its ``_CHUNK_ROWS``-row
chunks are shared by the calling thread and helpers on the process's other
CPUs.  A chunk is one pass of ufuncs that write with ``out=`` into two
chunk-sized scratch buffers and a bool one, all allocated by the caller: about
1 MB per thread for a 16-column tensor however tall it is, and each chunk
stays in cache while it is read and written.  The operations and their order
are those of the whole-tensor expressions in ``tests/oracles.py`` and each
element is computed alone, so the results are bit-identical to them at any
chunk size, thread count and chunk order.  They round differently from the
textbook formulas kept there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .net import BowTieModel, Gradients, _chunked

OPTIMIZERS = ("sgd", "rmsprop", "adam", "nadam")


@dataclass
class OptimizerSpec:
    kind: str = "sgd"
    learning_rate: float = 0.001
    beta1: float = 0.9       # adam/nadam first-moment decay
    beta2: float = 0.999     # adam/nadam second-moment decay
    rms_decay: float = 0.9   # rmsprop accumulator decay
    epsilon: float = 1e-7

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ValueError(f"kind must be one of {OPTIMIZERS}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        for name in ("beta1", "beta2", "rms_decay"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and > 0")


@dataclass
class MomentState:
    """Per-parameter accumulators; zeros for freshly initialized runs.

    The moments are stored scaled: ``first`` is m / (1 - beta1) and
    ``second`` is v / (1 - beta2), or v / (1 - rms_decay) for rmsprop.  The
    textbook m and v are ``first * (1 - beta1)`` and ``second * (1 - beta2)``
    (``1 - rms_decay``).  sgd leaves both untouched.
    """

    first: list[np.ndarray] = field(default_factory=list)
    second: list[np.ndarray] = field(default_factory=list)
    step: int = 0


def init_state(model: BowTieModel) -> MomentState:
    shapes = [w.shape for w in model.weights] + [b.shape for b in model.biases]
    return MomentState(
        first=[np.zeros(s) for s in shapes],
        second=[np.zeros(s) for s in shapes],
        step=0,
    )


def _step_tensor(
    spec: OptimizerSpec,
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
) -> bool:
    """Update one tensor in place; m and v mutate for the stateful kinds.

    Returns whether every updated value of the tensor is finite.
    """
    lr, kind, b1 = spec.learning_rate, spec.kind, spec.beta1
    if kind == "rmsprop":
        decay, correct2, k = spec.rms_decay, 1.0, lr
    else:
        decay, correct2, k = spec.beta2, 1.0 - spec.beta2**t, lr * (1.0 - b1) / (1.0 - b1**t)
    # sqrt(v_hat) + eps == (sqrt(second) + e) / root: one array divide per chunk
    root = math.sqrt(correct2 / (1.0 - decay))
    k, e = k * root, spec.epsilon * root
    bad = []  # starts of the chunks left non-finite

    def work(lo, hi, scratch):
        p, g, mc, w = param[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi]
        n = hi - lo
        a, b, ok = scratch[0][:n], scratch[1][:n], scratch[2][:n]
        if kind == "sgd":
            np.multiply(g, lr, out=a)                  # lr * grad
        else:
            w *= decay
            np.multiply(g, g, out=b)
            w += b                                     # second = decay*second + g*g
            np.sqrt(w, out=b)
            b += e
            if kind != "rmsprop":
                mc *= b1
                mc += g                                # first = b1*first + g
            if kind == "nadam":  # folds the incoming gradient into the momentum
                np.multiply(mc, b1, out=a)
                a += g
                a /= b
            else:
                np.divide(g if kind == "rmsprop" else mc, b, out=a)
            a *= k
        p -= a
        if np.count_nonzero(np.isfinite(p, out=ok)) < ok.size:  # cheaper than .all()
            bad.append(lo)

    def scratch(rows):
        shape = (rows, *param.shape[1:])
        return np.empty(shape), np.empty(shape), np.empty(shape, bool)

    _chunked(len(param), work, scratch)
    return not bad


def apply_update(
    spec: OptimizerSpec,
    state: MomentState,
    model: BowTieModel,
    grads: Gradients,
) -> None:
    """One optimizer step over every parameter of the model, in place."""
    n = model.layer_count
    if len(state.first) != 2 * n or len(state.second) != 2 * n:
        raise ValueError("state does not match this model's layer count")
    if len(grads.weights) != n or len(grads.biases) != n:
        raise ValueError("gradients do not match this model's layer count")
    params = [*model.weights, *model.biases]
    for i, (tensor, g) in enumerate(zip(params, [*grads.weights, *grads.biases])):
        if state.first[i].shape != tensor.shape or state.second[i].shape != tensor.shape:
            raise ValueError(f"state shape mismatch at tensor {i}")
        if g.shape != tensor.shape:
            raise ValueError(f"gradient shape mismatch at tensor {i}")
    state.step += 1
    t = state.step
    for l in range(n):
        weight_finite = _step_tensor(
            spec, model.weights[l], grads.weights[l],
            state.first[l], state.second[l], t,
        )
        bias_finite = _step_tensor(
            spec, model.biases[l], grads.biases[l],
            state.first[n + l], state.second[n + l], t,
        )
        if not (weight_finite and bias_finite):
            tensor = "bias" if weight_finite else "weight"
            raise DivergenceError(
                f"non-finite {tensor} after {spec.kind} step {t} at layer {l}"
            )
