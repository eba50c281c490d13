"""Mini-batch training, evaluation, metrics, and binary checkpoints.

Epochs reshuffle with a seed derived from (data_seed, epoch) and every batch
gets its own dropout stream, so a run is a pure function of its seeds.  The
ragged final batch is trained like any other.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .corpus import Corpus
from .encode import ENCODING_KINDS, float_buffer, float_rows
from .errors import CheckpointError, DivergenceError, FingerprintError
from .fileio import replacing
from .net import (
    BowTieModel,
    ModelConfig,
    _chunked,
    backward,
    batch_matrix,
    cascade,
    first_layer,
    forward,
)
from .optim import OptimizerSpec, apply_update, init_state
from .rngseed import derive_rng, mix_seed

CHECKPOINT_MAGIC = b"BOWTIECK"
CHECKPOINT_VERSION = 1

_EVAL_ROWS = 1024  # per evaluate chunk, in whole batches: about 1 MB of values a thread


@dataclass
class TrainConfig:
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    batch_size: int = 512
    max_epochs: int = 20
    target_accuracy: float | None = None  # stop once val accuracy reaches this
    data_seed: int = 0
    dropout_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError("target_accuracy must lie in (0, 1]")


@dataclass
class EpochMetrics:
    epoch: int
    train_bce: float
    train_accuracy: float
    val_bce: float
    val_accuracy: float
    epoch_seconds: float

    def line(self) -> str:
        return (
            f"epoch={self.epoch}"
            f" train_bce={self.train_bce:.6f}"
            f" train_acc={self.train_accuracy:.6f}"
            f" val_bce={self.val_bce:.6f}"
            f" val_acc={self.val_accuracy:.6f}"
            f" seconds={self.epoch_seconds:.3f}"
        )


@dataclass
class EvalResult:
    bce: float
    accuracy: float
    count: int


def evaluate(
    model: BowTieModel,
    dataset: Corpus,
    batch_size: int = 512,
) -> EvalResult:
    """Inference-mode mean bce and accuracy.

    ``net._chunked`` shares out chunks of whole batches, about ``_EVAL_ROWS``
    rows each: a chunk makes its float64 values (``encode.float_rows``) and
    first-layer product, then runs the cascade and the bce sum per batch.
    The batches' sums are added in batch order, so the result is
    bit-identical to forwarding each batch on its own, at any thread count."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not len(dataset):
        raise ValueError("cannot evaluate on an empty dataset")
    y, n = dataset.labels, len(dataset)
    chunk = max(1, _EVAL_ROWS // batch_size) * batch_size
    starts, indptr = np.arange(0, n, chunk), dataset.matrix.indptr
    entries = int((indptr[np.minimum(starts + chunk, n)] - indptr[starts]).max())
    sums = np.empty(-(-n // batch_size))
    correct = np.empty(len(sums), dtype=np.int64)

    def work(lo, hi, buf):
        x = batch_matrix(float_rows(dataset, lo, hi, buf), model.config.input_width)
        product = first_layer(model, x)
        for start in range(lo, hi, batch_size):
            stop = min(start + batch_size, hi)
            p = cascade(model, product[start - lo:stop - lo]).prob
            yb = y[start:stop] == 1.0
            sums[start // batch_size] = np.sum(yb * np.log(p) + (~yb) * np.log1p(-p))
            correct[start // batch_size] = np.sum((p >= model.config.discriminator) == yb)

    _chunked(n, work, float_buffer(dataset, entries), chunk)
    bce_sum = 0.0
    for partial in sums.tolist():
        bce_sum -= partial
    return EvalResult(bce=bce_sum / n, accuracy=int(correct.sum()) / n, count=n)


def train(
    model: BowTieModel,
    train_data: Corpus,
    val_data: Corpus | None,
    config: TrainConfig,
    log=None,
) -> tuple[BowTieModel, list[EpochMetrics]]:
    """Optimize the model in place; one EpochMetrics per completed epoch.

    Writes a key=value line per epoch to ``log`` (default stderr; pass False
    to silence).  Stops early the first time validation accuracy reaches
    config.target_accuracy.
    """
    if log is None:
        log = sys.stderr
    if not len(train_data):
        raise ValueError("cannot train on an empty dataset")
    if config.batch_size > len(train_data):
        raise ValueError(
            f"batch_size {config.batch_size} exceeds the "
            f"{len(train_data)}-example training set"
        )
    if train_data.width != model.config.input_width:
        raise ValueError(
            f"dataset width {train_data.width} != "
            f"model input width {model.config.input_width}"
        )
    n = len(train_data)
    state = init_state(model)
    metrics: list[EpochMetrics] = []
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        perm = derive_rng(config.data_seed, epoch).permutation(n)
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            batch = train_data.take(perm[start : start + config.batch_size])
            seed = mix_seed(config.dropout_seed, epoch, batch_index)
            try:
                x = float_rows(batch, 0, len(batch), float_buffer(batch, batch.nnz)())
                cache = forward(model, x, training=True, dropout_seed=seed)
                grads = backward(model, cache, batch.labels)
                del x, cache  # the batch's values go before the step, its gradient after
                apply_update(config.optimizer, state, model, grads)
                del grads
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch} batch {batch_index}: {exc}") from exc
        split = "training"
        try:
            train_eval = evaluate(model, train_data, config.batch_size)
            split = "validation"
            val_eval = EvalResult(bce=float("nan"), accuracy=float("nan"), count=0)
            if val_data is not None:
                val_eval = evaluate(model, val_data, config.batch_size)
        except DivergenceError as exc:
            raise DivergenceError(f"epoch {epoch} {split} split: {exc}") from exc
        entry = EpochMetrics(
            epoch=epoch,
            train_bce=train_eval.bce,
            train_accuracy=train_eval.accuracy,
            val_bce=val_eval.bce,
            val_accuracy=val_eval.accuracy,
            epoch_seconds=time.perf_counter() - started,
        )
        metrics.append(entry)
        if log:
            print(entry.line(), file=log)
        if (
            config.target_accuracy is not None
            and val_data is not None
            and entry.val_accuracy >= config.target_accuracy
        ):
            break
    return model, metrics


def emit_metrics_csv(metrics: list[EpochMetrics], path) -> None:
    """Write metrics as CSV (6 significant digits) to ``path``, replacing it whole."""
    with replacing(path, "w", encoding="utf-8") as out:
        out.write("epoch,train_bce,train_acc,val_bce,val_acc,seconds\n")
        for m in metrics:
            out.write(
                f"{m.epoch},{m.train_bce:.6g},{m.train_accuracy:.6g},"
                f"{m.val_bce:.6g},{m.val_accuracy:.6g},{m.epoch_seconds:.6g}\n"
            )


@dataclass
class Checkpoint:
    model: BowTieModel
    vocab_size: int
    vocab_sha256: str
    encoding: str
    provenance: dict


def save_checkpoint(
    path: str,
    model: BowTieModel,
    vocab_size: int,
    vocab_sha256: str,
    encoding: str,
    provenance: dict | None = None,
) -> str:
    """Binary layout: magic, uint32 version, uint64 manifest length, JSON
    manifest, then every weight and bias as little-endian float64, C order,
    weights first, layer by layer.  Round-trips bit for bit.  Returns the
    sha256 of the parameters, hashed and written from each tensor's buffer.
    """
    if encoding not in ENCODING_KINDS:
        raise ValueError(f"encoding must be one of {ENCODING_KINDS}")
    cfg = asdict(model.config)
    cfg["hidden_widths"] = list(cfg["hidden_widths"])
    manifest = {
        "config": cfg,
        "weights_shapes": [list(w.shape) for w in model.weights],
        "biases_shapes": [list(b.shape) for b in model.biases],
        "vocab": {"size": int(vocab_size), "sha256": vocab_sha256},
        "encoding": encoding,
        "provenance": provenance or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)) + blob)
        params = hashlib.sha256()
        for tensor in (*model.weights, *model.biases):
            data = np.ascontiguousarray(tensor, dtype="<f8")
            params.update(data)
            fh.write(data)
    return params.hexdigest()


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint file; its tensors are views into one float64 array, read once."""
    try:
        with open(path, "rb") as fh:  # a pipe cannot seek to its size: "cannot read"
            return _read_checkpoint(path, fh, fh.seek(0, os.SEEK_END))
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc


def _read_checkpoint(path: str, fh, size: int) -> Checkpoint:
    header = len(CHECKPOINT_MAGIC) + 4 + 8
    fh.seek(0)
    raw = fh.read(header)
    if len(raw) < header:
        raise CheckpointError(f"{path}: truncated (only {len(raw)} bytes)")
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version, manifest_len = struct.unpack_from("<IQ", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if header + manifest_len > size:
        raise CheckpointError(f"{path}: manifest overruns the file")
    try:
        manifest = json.loads(fh.read(manifest_len))
    except ValueError as exc:
        raise CheckpointError(f"{path}: manifest is not valid JSON: {exc}") from exc
    try:
        cfg_dict = dict(manifest["config"])
        cfg_dict["hidden_widths"] = tuple(cfg_dict["hidden_widths"])
        config = ModelConfig(**cfg_dict)
        w_shapes = [tuple(s) for s in manifest["weights_shapes"]]
        b_shapes = [tuple(s) for s in manifest["biases_shapes"]]
        if not all(type(d) is int for s in w_shapes + b_shapes for d in s):
            raise TypeError("shapes must be lists of integers")  # JSON true == 1
        vocab = manifest["vocab"]
        vocab_size = int(vocab["size"])
        vocab_sha256 = str(vocab["sha256"])
        encoding = manifest["encoding"]
        provenance = manifest.get("provenance", {})
        if not isinstance(provenance, dict):
            raise TypeError("provenance must be an object")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed manifest: {exc}") from exc
    if encoding not in ENCODING_KINDS:
        raise CheckpointError(f"{path}: unknown encoding {encoding!r}")
    widths = (config.input_width, *config.hidden_widths)
    want_w, want_b = list(zip(widths, widths[1:])), [(w,) for w in widths[1:]]
    if w_shapes != want_w or b_shapes != want_b:
        raise CheckpointError(
            f"{path}: parameter shapes {w_shapes} and {b_shapes} do not chain "
            f"the configured layer widths {list(widths)}"
        )
    if vocab_size != config.input_width:
        raise CheckpointError(
            f"{path}: vocabulary size {vocab_size} != input width {config.input_width}"
        )
    shapes = w_shapes + b_shapes
    ends = list(accumulate(map(math.prod, shapes), initial=0))
    blob, want = size - header - manifest_len, ends[-1]
    # allocated only once the length matches; a short read means the file shrank meanwhile
    if blob != want * 8 or fh.readinto(flat := np.empty(want, "<f8")) != blob:
        raise CheckpointError(f"{path}: parameter blob is {blob} bytes, expected {want * 8}")
    params = [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]
    weights, biases = params[: len(w_shapes)], params[len(w_shapes) :]
    model = BowTieModel(config=config, weights=weights, biases=biases)
    return Checkpoint(
        model=model,
        vocab_size=vocab_size,
        vocab_sha256=vocab_sha256,
        encoding=encoding,
        provenance=provenance,
    )


def check_fingerprint(checkpoint: Checkpoint, vocab_size: int, vocab_sha256: str) -> None:
    """Refuse to pair a checkpoint with a vocabulary it was not trained on."""
    if checkpoint.vocab_size != vocab_size:
        raise FingerprintError(
            f"checkpoint vocabulary size {checkpoint.vocab_size} "
            f"!= dataset vocabulary size {vocab_size}"
        )
    if checkpoint.vocab_sha256 != vocab_sha256:
        raise FingerprintError(
            "checkpoint vocabulary sha256 does not match the dataset vocabulary"
        )
