"""First-order optimizers: sgd, rmsprop, adam, and nadam.

One update rule applied uniformly to every weight matrix and bias vector;
the moment accumulators live in MomentState.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .net import BowTieModel, Gradients

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
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        for name in ("beta1", "beta2", "rms_decay"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")


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
) -> None:
    """Update one tensor in place; m and v mutate for the stateful kinds."""
    lr = spec.learning_rate
    if spec.kind == "sgd":
        param -= lr * grad
        return
    if spec.kind == "rmsprop":
        v *= spec.rms_decay
        v += (1.0 - spec.rms_decay) * grad * grad
        param -= lr * grad / (np.sqrt(v) + spec.epsilon)
        return
    # adam and nadam share the moment estimates and bias corrections
    b1, b2 = spec.beta1, spec.beta2
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t
    m_hat = m / correct1
    v_hat = v / correct2
    if spec.kind == "adam":
        numerator = m_hat
    else:  # nadam folds the incoming gradient into the corrected momentum
        numerator = b1 * m_hat + (1.0 - b1) * grad / correct1
    param -= lr * numerator / (np.sqrt(v_hat) + spec.epsilon)


def apply_update(
    spec: OptimizerSpec,
    state: MomentState,
    model: BowTieModel,
    grads: Gradients,
) -> None:
    """One optimizer step over every parameter of the model, in place."""
    n = model.layer_count
    if len(state.first) != 2 * n:
        raise ValueError("state does not match this model's layer count")
    params = model.weights + model.biases
    for i, (tensor, m) in enumerate(zip(params, state.first)):
        if m.shape != tensor.shape or state.second[i].shape != tensor.shape:
            raise ValueError(f"state shape mismatch at tensor {i}")
    state.step += 1
    t = state.step
    for l in range(n):
        if grads.weights[l].shape != model.weights[l].shape:
            raise ValueError(f"gradient shape mismatch at layer {l}")
        _step_tensor(
            spec, model.weights[l], grads.weights[l],
            state.first[l], state.second[l], t,
        )
        _step_tensor(
            spec, model.biases[l], grads.biases[l],
            state.first[n + l], state.second[n + l], t,
        )
        if not (
            np.isfinite(model.weights[l]).all() and np.isfinite(model.biases[l]).all()
        ):
            raise DivergenceError(
                f"non-finite parameter after {spec.kind} step {t} at layer {l}"
            )
