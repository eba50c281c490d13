"""Slow, independent reference implementations for the property tests.

Everything here is deliberately written with plain Python loops and dense
arrays so it shares no code path with the package under test, except the
finite-difference gradient, which probes the package's own forward pass and
loss to check its backward pass.
"""

import numpy as np

from bowtie.net import forward, loss

PROB_FLOOR = 1e-12


def dense_multi_hot(pairs, width):
    """One dense multi-hot row built index by index from (index, count) pairs."""
    row = np.zeros(width, dtype=np.float64)
    for idx, _ in pairs:
        row[int(idx)] = 1.0
    return row


def dense_polarity_weighted(pairs, ratings, width):
    """One dense polarity-weighted row: rating * count at each index."""
    row = np.zeros(width, dtype=np.float64)
    for idx, count in pairs:
        row[int(idx)] = float(ratings[int(idx)]) * float(count)
    return row


def dense_forward(model, rows):
    """Forward pass over a dense (n, width) matrix, one layer at a time."""
    a = np.asarray(rows, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    n_layers = len(model.weights)
    for l in range(n_layers):
        z = a @ model.weights[l] + model.biases[l]
        if l == n_layers - 1:
            p = 1.0 / (1.0 + np.exp(-z[:, 0]))
            return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
        a = np.maximum(z, 0.0) if model.config.activation == "relu" else z
    raise AssertionError("model had no layers")


def bce_mean(probs, labels):
    """Mean binary cross-entropy with the same probability clamp."""
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(float(p), PROB_FLOOR), 1.0 - PROB_FLOOR)
        total += -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    return total / len(labels)


def l2_penalty(model):
    """lambda * sum of squared weights, biases excluded."""
    acc = 0.0
    for w in model.weights:
        for value in w.ravel():
            acc += float(value) ** 2
    return model.config.l2_weight * acc


def central_difference(f, x: float, h: float) -> float:
    """(f(x+h) - f(x-h)) / 2h."""
    if h <= 0.0:
        raise ValueError("step h must be > 0")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def finite_difference_grad(
    model,
    batch,
    labels,
    coord: tuple[int, str, tuple[int, ...]],
    h: float,
    training: bool = False,
    dropout_seed: int = 0,
) -> float:
    """Central-difference d(total)/d(parameter) at one coordinate.

    ``coord`` is (layer, "W" or "b", index).  Dropout must be disabled or the
    mask frozen by passing the same training/dropout_seed pair the analytic
    gradient used.
    """
    layer, kind, index = coord
    if kind not in ("W", "b"):
        raise ValueError("coordinate kind must be 'W' or 'b'")

    def total_at(value: float) -> float:
        probe = model.copy()
        target = probe.weights[layer] if kind == "W" else probe.biases[layer]
        target[index] = value
        cache = forward(probe, batch, training=training, dropout_seed=dropout_seed)
        return loss(cache, labels, probe)[1]

    base = model.weights[layer] if kind == "W" else model.biases[layer]
    return central_difference(total_at, float(base[index]), h)
