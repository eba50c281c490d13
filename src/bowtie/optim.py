"""First-order optimizers: sgd, rmsprop, adam, and nadam.

One update rule applied uniformly to every weight matrix and bias vector;
the moment accumulators live in MomentState.

Each tensor is updated in place, in chunks of ``_CHUNK_ROWS`` rows.  A chunk
is one pass of ufuncs that write with ``out=`` into three chunk-sized
scratch buffers, so a step allocates the same 1.5 MB for a 16-column tensor
however tall it is, and each chunk stays in cache while it is read and
written.
The floating-point operations and their order are those of the plain
whole-tensor expressions (kept in ``tests/oracles.py`` as the reference), so
the parameters and moments are bit-identical to them at any chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .net import BowTieModel, Gradients

OPTIMIZERS = ("sgd", "rmsprop", "adam", "nadam")

# rows per update pass: 512 KiB per buffer for 16 float64 columns, small
# enough that a chunk's operands stay in cache between its ufuncs
_CHUNK_ROWS = 4096


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
    """Per-parameter accumulators; zeros for freshly initialized runs."""

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
    lr, kind = spec.learning_rate, spec.kind
    height = param.shape[0]
    rows = max(1, min(_CHUNK_ROWS, height))
    scratch = [np.empty((rows,) + param.shape[1:], dtype=param.dtype) for _ in range(3)]
    if kind == "rmsprop":
        rho = spec.rms_decay
    else:
        b1, b2 = spec.beta1, spec.beta2
        correct1 = 1.0 - b1**t
        correct2 = 1.0 - b2**t
    finite = True
    for lo in range(0, height, rows):
        hi = min(lo + rows, height)
        p, g, mc, w = param[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi]
        a, b, c = (buf[: hi - lo] for buf in scratch)
        if kind == "sgd":
            np.multiply(g, lr, out=a)                  # lr * grad
        elif kind == "rmsprop":
            w *= rho
            np.multiply(g, 1.0 - rho, out=a)
            a *= g
            w += a                                     # v = v*rho + (1-rho)*g*g
            np.sqrt(w, out=b)
            b += spec.epsilon
            np.multiply(g, lr, out=a)
            a /= b                                     # lr*g / (sqrt(v) + eps)
        else:  # adam and nadam share the moment estimates and bias corrections
            np.multiply(g, 1.0 - b1, out=c)            # (1-b1)*g, reused by nadam
            mc *= b1
            mc += c
            np.multiply(g, 1.0 - b2, out=b)
            b *= g
            w *= b2
            w += b
            np.divide(w, correct2, out=b)
            np.sqrt(b, out=b)
            b += spec.epsilon                          # sqrt(v_hat) + eps
            np.divide(mc, correct1, out=a)             # m_hat
            if kind == "nadam":  # folds the incoming gradient into the corrected momentum
                a *= b1
                c /= correct1
                a += c                                 # b1*m_hat + (1-b1)*g/c1
            a *= lr
            a /= b                                     # lr*numerator / (sqrt(v_hat) + eps)
        p -= a
        finite = finite and bool(np.isfinite(p).all())
    return finite


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
