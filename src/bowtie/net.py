"""The BowTie network: a cascade of dense linear layers over sparse inputs.

Forward pass and hand-derived backpropagation of the mean binary
cross-entropy plus an L2 penalty.  The first layer is a sparse-times-dense
kernel so only the nonzero input columns are ever touched; everything past
it is small and dense.  All arithmetic is 64-bit.

No product goes through BLAS, whose kernel, and so whose summation order,
depends on the CPU.  scipy's sparse products sum in stored order, and the
dense products of the later layers are ``np.einsum`` loops without its
``optimize`` path: ``bi,ij->bj`` forward, ``bi,bj->ij`` for a weight
gradient and ``bj,ij->bi`` for the delta passed back.  So a run's
parameters are bit-identical on any CPU, for one numpy and scipy build.
Each dense activation and delta is kept in Fortran order, contiguous along
the batch, so einsum's inner loop runs along the batch, not along a layer
of 16 or fewer: about 2.5 times faster, and in the same order every time.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DivergenceError
from .rngseed import derive_rng

PROB_CLAMP = 1e-12

ACTIVATIONS = ("none", "relu")

# rows per chunk of an in-place pass over a tensor (optimizer step, L2 term):
# 512 KiB per buffer for 16 float64 columns, which stays in cache between ufuncs
_CHUNK_ROWS = 4096

# threads sharing a tensor's chunks, the caller's included: the CPUs this
# process may use, at most 4 so that their scratch (about 1 MB each) stays
# under 40 % of an 89 527x16 first layer
_THREADS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@dataclass
class ModelConfig:
    input_width: int
    hidden_widths: tuple[int, ...] = (16, 8, 1)  # includes the final width-1 layer
    activation: str = "none"
    dropout_rate: float = 0.2
    l2_weight: float = 0.019
    discriminator: float = 0.5
    init_seed: int = 0

    def __post_init__(self):
        self.hidden_widths = tuple(int(w) for w in self.hidden_widths)
        if not self.hidden_widths or self.hidden_widths[-1] != 1:
            raise ValueError("hidden_widths must end with the width-1 output layer")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not 0.0 <= self.l2_weight < math.inf:
            raise ValueError("l2_weight must be finite and >= 0")
        if not 0.0 <= self.discriminator <= 1.0:
            raise ValueError("discriminator must lie in [0, 1]")


@dataclass
class BowTieModel:
    config: ModelConfig
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    @property
    def layer_count(self) -> int:
        return len(self.weights)

    def copy(self) -> "BowTieModel":
        return BowTieModel(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class ForwardCache:
    """Backpropagation intermediates for one batch."""

    inputs: sparse.csr_matrix | None  # None when built by cascade() alone
    pre: list[np.ndarray]   # pre-activation per layer, shape (B, out_l)
    post: list[np.ndarray]  # post-activation (and post-dropout where applied)
    dropout_mask: np.ndarray | None
    prob: np.ndarray        # (B,), clamped into (0, 1)
    training: bool


def init_model(config: ModelConfig) -> BowTieModel:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = derive_rng(config.init_seed)
    widths = (config.input_width, *config.hidden_widths)
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        try:
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        except MemoryError as exc:  # a usage error: the widths ask for too much
            raise ValueError(
                f"cannot allocate layer {l} weights of shape ({fan_in}, {fan_out})"
            ) from exc
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return BowTieModel(config=config, weights=weights, biases=biases)


def batch_matrix(batch, width: int) -> sparse.csr_matrix:
    """Check a batch of values, not int counts, against the input width; returns CSR."""
    if batch.shape[0] == 0:
        raise ValueError("empty batch")
    if batch.shape[1] != width:
        raise ValueError(f"batch width {batch.shape[1]} != input width {width}")
    if batch.dtype.kind in "iu":
        raise ValueError(f"batch of {batch.dtype} counts, not values; encode it first")
    return batch.tocsr()


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else z


def first_layer(model: BowTieModel, x: sparse.csr_matrix) -> np.ndarray:
    """The sparse product ``x @ W0``, one dense row per input row.

    scipy sums each output row from zero over that row's stored entries in
    their stored order, so a row of the product is bit-identical whether it
    is computed alone, in a batch, or over a whole dataset.  Callers pass
    float64 values (``encode.float_rows``); scipy copies any other dtype whole.
    """
    # explosions surface as the explicit non-finite check, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(x @ model.weights[0])


def cascade(
    model: BowTieModel,
    product: np.ndarray,
    inputs: sparse.csr_matrix | None = None,
    training: bool = False,
    dropout_seed: int = 0,
) -> ForwardCache:
    """Everything after the first-layer product: its bias, the activations,
    the later layers, the non-finite check, and the clamped sigmoid.

    ``inputs`` is only recorded in the cache, for ``backward``.
    """
    cfg = model.config
    n_layers = model.layer_count
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    mask = None

    xw = product
    for l in range(n_layers):
        with np.errstate(over="ignore", invalid="ignore"):
            if l:
                xw = np.einsum("bi,ij->bj", post[-1], model.weights[l], order="F",
                               optimize=False)
            z = np.add(xw, model.biases[l], order="F")
        pre.append(z)
        if l == n_layers - 1:
            post.append(z)
            break
        h = _activate(z, cfg.activation)
        if (
            training
            and cfg.dropout_rate > 0.0
            and l == n_layers - 2  # last hidden layer feeds the output layer
        ):
            keep = 1.0 - cfg.dropout_rate
            rng = derive_rng(dropout_seed)
            mask = (rng.random(h.shape) < keep).astype(np.float64, order="F") / keep
            h = h * mask
        post.append(h)

    logits = pre[-1][:, 0]
    if not np.isfinite(logits).all():
        raise DivergenceError("non-finite activation in forward pass")
    # numpy's complex exp of a real value calls the C library's exp, as
    # scipy's expit does; its float exp rounds differently.  Below a logit of
    # -709 the clamp decides the probability, so the exp need not overflow.
    e = np.exp(np.negative(logits).clip(None, 709.0).astype(np.complex128)).real
    prob = np.clip(1.0 / (1.0 + e), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return ForwardCache(
        inputs=inputs, pre=pre, post=post, dropout_mask=mask, prob=prob, training=training
    )


def forward(
    model: BowTieModel,
    batch,
    training: bool = False,
    dropout_seed: int = 0,
) -> ForwardCache:
    """Run the cascade.  Layer 1 touches only nonzero input columns.

    In training mode the last hidden layer's output gets an inverted-dropout
    mask (keep probability 1 - rate, survivors scaled by 1/(1 - rate));
    inference applies no mask and no scaling.
    """
    x = batch_matrix(batch, model.config.input_width)
    return cascade(model, first_layer(model, x), x, training, dropout_seed)


@functools.cache
def _pool(helpers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(helpers, thread_name_prefix="bowtie-chunks")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _chunked(height: int, work, scratch, rows: int = 0) -> None:
    """``work(lo, hi, buffers)`` over rows ``[0, height)`` in chunks of ``rows``
    rows (default ``_CHUNK_ROWS``), shared by the calling thread and up to
    ``_THREADS - 1`` helpers.

    ``scratch(rows)`` makes one thread's buffers, every thread's on the caller.
    Each chunk goes to whichever thread is free, so ``work`` must touch its own
    rows only; a single chunk runs on the caller alone.  The caller waits for
    every helper, then raises its own exception or else a helper's.
    """
    rows = rows or _CHUNK_ROWS
    if height <= rows:
        return work(0, height, scratch(height))
    buffers = [scratch(rows) for _ in range(min(_THREADS, -(-height // rows)))]
    starts = iter(range(0, height, rows))  # shared; next() holds the GIL
    err = np.geterr()  # a helper starts with numpy's default errstate

    def drain(bufs):
        with np.errstate(**err):
            for lo in starts:
                work(lo, min(lo + rows, height), bufs)

    futures = [_pool(_THREADS - 1).submit(drain, bufs) for bufs in buffers[1:]]
    try:
        drain(buffers[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _add_l2(grad: np.ndarray, weight: np.ndarray, scale: float) -> np.ndarray:
    """``grad + scale * weight`` written into ``grad`` by ``_chunked``; each
    element is the same sum as the whole-array expression's."""

    def work(lo, hi, term):
        term = np.multiply(weight[lo:hi], scale, out=term[: hi - lo])
        np.add(grad[lo:hi], term, out=grad[lo:hi])

    _chunked(len(weight), work, lambda rows: np.empty((rows, *weight.shape[1:])))
    return grad


def backward(model: BowTieModel, cache: ForwardCache, labels) -> Gradients:
    """Analytic gradient, for every weight and bias, of the total loss: the mean
    bce plus ``l2_weight`` times the sum of squared weights (biases excluded)."""
    cfg = model.config
    n_layers = model.layer_count
    if len(cache.pre) != n_layers or any(
        cache.pre[l].shape[1] != model.weights[l].shape[1] for l in range(n_layers)
    ):
        raise ValueError("cache does not match this model (stale cache?)")
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be a flat sequence of 0s and 1s")
    batch = len(y)
    if batch != len(cache.prob):
        raise ValueError(f"{len(y)} labels for a batch of {len(cache.prob)}")

    d_weights: list[np.ndarray] = [np.empty(0)] * n_layers
    d_biases: list[np.ndarray] = [np.empty(0)] * n_layers
    # d(total)/d(logit) of the mean bce; clamped prob keeps it finite
    delta = ((cache.prob - y) / batch)[:, None]
    for l in range(n_layers - 1, -1, -1):
        if l:
            product = np.einsum("bi,bj->ij", cache.post[l - 1], delta, optimize=False)
        else:
            product = np.asarray(cache.inputs.T @ delta)
        d_weights[l] = _add_l2(product, model.weights[l], 2.0 * cfg.l2_weight)
        d_biases[l] = delta.sum(axis=0)
        if l == 0:
            break
        back = np.einsum("bj,ij->bi", delta, model.weights[l], order="F", optimize=False)
        if cache.dropout_mask is not None and l - 1 == n_layers - 2:
            back = back * cache.dropout_mask
        if cfg.activation == "relu":
            back = back * (cache.pre[l - 1] > 0.0)
        delta = back
    return Gradients(weights=d_weights, biases=d_biases)

