"""Slow, independent reference implementations for the property tests.

Everything here is deliberately written with plain Python loops and dense
arrays so it shares no code path with the package under test, except the
finite-difference gradient, which probes the package's own forward pass and
scores it with ``bce_mean + l2_penalty`` to check its backward pass, and
``predict``, which scores one example at a time through the package's
forward pass as the reference for batched evaluation.  The three record-file loaders parse one line and one pair at a
time with ``int()`` and ``str.split()``; they differ from the package's
loaders only on the inputs that the README's "Accepted line grammar" lists
as now rejected or reported differently.  So do the vocabulary, polarity
and word-index loaders, which walk one line or one entry at a time, and the
corpus writer, which formats one pair at a time.
The optimizer step updates a whole tensor with one numpy expression per
formula; the package's chunked step must match it bit for bit.  So must the
package's backward pass, which adds the L2 term in place in row chunks, match
``backward`` with its whole-array sum (its products take the package's einsum
spellings and output order, so that only the L2 term is under test), and the
package's ``evaluate``, which shares chunks of whole batches between
threads, match ``evaluate``, which runs the package's forward pass on each
sliced batch of the float64 values (``synth.values_of``).  The textbook
optimizer step on unscaled moments is kept too, to bound how far the scaled
step rounds from it.
``clamped_sigmoid`` is scipy's ``expit``, which the package no longer
imports; the package's sigmoid must match it bit for bit.
"""

import json
import math

import numpy as np
from scipy import sparse
from scipy.special import expit

from bowtie.corpus import Corpus, Vocabulary
from bowtie.errors import DataError
from bowtie.net import forward
from bowtie.train import EvalResult
from bowtie.transfer import VocabMap
from synth import values_of

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


def clamped_sigmoid(logits):
    """scipy's ``expit`` of each logit, clamped into [PROB_FLOOR, 1 - PROB_FLOOR]."""
    return np.clip(expit(logits), PROB_FLOOR, 1.0 - PROB_FLOOR)


def bce_mean(probs, labels):
    """Mean binary cross-entropy with the same probability clamp."""
    total = 0.0
    for p, y in zip(probs, labels):
        p = min(max(float(p), PROB_FLOOR), 1.0 - PROB_FLOOR)
        total += -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
    return total / len(labels)


def row_sums(matrix):
    """Each CSR row's stored values summed by that row's own ``ndarray.sum``."""
    ptr = matrix.indptr
    return np.array([matrix.data[a:b].sum() for a, b in zip(ptr[:-1], ptr[1:])])


def l2_penalty(model):
    """lambda * sum of squared weights, biases excluded."""
    acc = 0.0
    for w in model.weights:
        for value in w.ravel():
            acc += float(value) ** 2
    return model.config.l2_weight * acc


def predict(model, row):
    """Inference-mode probability and category (1 when p >= discriminator)
    for a one-row sparse matrix."""
    if row.shape[0] != 1:
        raise ValueError(f"predict takes one row, got {row.shape[0]}")
    p = float(forward(model, row, training=False).prob[0])
    return p, int(p >= model.config.discriminator)


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
        return bce_mean(cache.prob, labels) + l2_penalty(probe)

    base = model.weights[layer] if kind == "W" else model.biases[layer]
    return central_difference(total_at, float(base[index]), h)


# --------------------------------------------------- backward and evaluate


def backward(model, cache, labels):
    """(weight gradients, bias gradients) of the total loss, each weight's
    L2 term added as one whole-array expression."""
    y = np.asarray(labels, dtype=np.float64)
    n_layers = len(model.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    delta = ((cache.prob - y) / len(y))[:, None]
    for l in range(n_layers - 1, -1, -1):
        if l:
            product = np.einsum("bi,bj->ij", cache.post[l - 1], delta, optimize=False)
        else:
            product = np.asarray(cache.inputs.T @ delta)
        d_weights[l] = product + 2.0 * model.config.l2_weight * model.weights[l]
        d_biases[l] = delta.sum(axis=0)
        if l == 0:
            break
        back = np.einsum("bj,ij->bi", delta, model.weights[l], order="F", optimize=False)
        if cache.dropout_mask is not None and l - 1 == n_layers - 2:
            back = back * cache.dropout_mask
        if model.config.activation == "relu":
            back = back * (cache.pre[l - 1] > 0.0)
        delta = back
    return d_weights, d_biases


def evaluate(model, dataset, batch_size=512):
    """Mean bce and accuracy from one forward pass per sliced CSR batch."""
    x, y = values_of(dataset), dataset.labels
    n = len(y)
    bce_sum = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        p = forward(model, x[start:stop], training=False).prob
        yb = y[start:stop] == 1.0
        bce_sum -= float(np.sum(yb * np.log(p) + (~yb) * np.log1p(-p)))
        correct += int(np.sum((p >= model.config.discriminator) == yb))
    return EvalResult(bce=bce_sum / n, accuracy=correct / n, count=n)


# ----------------------------------------------------------- optimizer step


def step_tensor(spec, param, grad, m, v, t):
    """Update one tensor in place; m and v mutate for the stateful kinds.

    The package's scaled-moment step: m holds m / (1 - beta1) and v holds
    v / (1 - decay), and the step's scalars are folded into k and e.
    """
    lr = spec.learning_rate
    if spec.kind == "sgd":
        param -= lr * grad
        return
    if spec.kind == "rmsprop":
        decay, correct2, k = spec.rms_decay, 1.0, lr
    else:
        b1, decay = spec.beta1, spec.beta2
        correct2, k = 1.0 - decay**t, lr * (1.0 - b1) / (1.0 - b1**t)
    root = math.sqrt(correct2 / (1.0 - decay))
    k, e = k * root, spec.epsilon * root
    v *= decay
    v += grad * grad
    denom = np.sqrt(v) + e
    if spec.kind == "rmsprop":
        param -= grad / denom * k
        return
    m *= b1
    m += grad
    if spec.kind == "adam":
        param -= m / denom * k
    else:  # nadam folds the incoming gradient into the momentum
        param -= (m * b1 + grad) / denom * k


def textbook_step_tensor(spec, param, grad, m, v, t):
    """The textbook formulas on unscaled moments; they round differently
    from ``step_tensor``."""
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


def finite_step_tensor(spec, param, grad, m, v, t):
    """``step_tensor`` with the package step's return value: all of param finite."""
    step_tensor(spec, param, grad, m, v, t)
    return bool(np.isfinite(param).all())


# ------------------------------------------------------------ record loaders


def _open_text(path):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _stack_rows(rows, labels, width):
    """One Corpus from per-review (sorted indices, counts) array pairs."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(idx) for idx, _ in rows], out=indptr[1:])
    indices = np.concatenate([np.empty(0, np.int64)] + [idx for idx, _ in rows])
    counts = np.concatenate([np.empty(0, np.int64)] + [cnt for _, cnt in rows])
    matrix = sparse.csr_matrix((counts, indices, indptr), shape=(len(rows), width))
    return Corpus(matrix, np.array(labels, dtype=np.int64))


def _parse_pairs(parts, width, where):
    indices = np.empty(len(parts), dtype=np.int64)
    counts = np.empty(len(parts), dtype=np.int64)
    for i, part in enumerate(parts):
        idx_s, sep, cnt_s = part.partition(":")
        if not sep:
            raise DataError(f"{where}: malformed pair {part!r}")
        try:
            idx, cnt = int(idx_s), int(cnt_s)
        except ValueError:
            raise DataError(f"{where}: malformed pair {part!r}") from None
        if not 0 <= idx < width:
            raise DataError(f"{where}: token index {idx} outside [0, {width})")
        if cnt < 1:
            raise DataError(f"{where}: count {cnt} for index {idx} must be >= 1")
        indices[i], counts[i] = idx, cnt
    order = np.argsort(indices, kind="stable")
    indices, counts = indices[order], counts[order]
    if indices.size > 1 and (np.diff(indices) == 0).any():
        dup = int(indices[np.flatnonzero(np.diff(indices) == 0)[0]])
        raise DataError(f"{where}: duplicate token index {dup}")
    return indices, counts


def load_slmrd_bow(path, vocab):
    """Reference ``labeledBow.feat`` loader: ``rating idx:count ...`` lines."""
    rows, labels = [], []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path}: line {lineno}"
            parts = line.split()
            if not parts:
                raise DataError(f"{where}: blank record")
            try:
                rating = int(parts[0])
            except ValueError:
                raise DataError(f"{where}: malformed rating {parts[0]!r}") from None
            if not 0 <= rating <= 10:
                raise DataError(f"{where}: rating {rating} outside [0, 10]")
            if rating in (5, 6):
                raise DataError(f"{where}: rating {rating} has no defined label")
            labels.append(1 if rating >= 7 else 0)
            rows.append(_parse_pairs(parts[1:], vocab.size, where))
    return _stack_rows(rows, labels, vocab.size)


def word_index_tokens(word_index_path):
    """Reference word-index reader: the tokens of a JSON token->rank object
    in rank order, each entry's rank checked in turn, then each token for a
    line break, then each token for a lone surrogate (JSON can spell one)."""
    with _open_text(word_index_path) as fh:
        try:
            word_index = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{word_index_path}: not valid JSON: {exc}") from exc
    if not isinstance(word_index, dict) or not word_index:
        raise DataError(f"{word_index_path}: expected a non-empty token->rank object")
    ranks_seen = {}
    for tok, rank in word_index.items():
        if not isinstance(rank, int) or rank < 1:
            raise DataError(f"{word_index_path}: rank for {tok!r} must be a positive integer")
        if rank in ranks_seen:
            raise DataError(
                f"{word_index_path}: tokens {ranks_seen[rank]!r} and {tok!r} share rank {rank}"
            )
        ranks_seen[rank] = tok
    tokens = [tok for tok, _ in sorted(word_index.items(), key=lambda kv: kv[1])]
    for i, tok in enumerate(tokens):
        if "\n" in tok or "\r" in tok:
            raise DataError(
                f"{word_index_path}: token {tok!r} at index {i} contains a line break"
            )
    for i, tok in enumerate(tokens):
        try:
            tok.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(
                f"{word_index_path}: token {tok!r} at index {i} is not encodable as UTF-8"
            ) from None
    return tokens


def load_kid(word_index_path, sequences_path, index_offset=3):
    """Reference integer-sequence loader: ``label<TAB>v1 v2 ...`` lines."""
    vocab = Vocabulary(word_index_tokens(word_index_path))

    rows, labels = [], []
    with _open_text(sequences_path) as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{sequences_path}: line {lineno}"
            label_s, sep, rest = line.rstrip("\n").partition("\t")
            if not sep:
                raise DataError(f"{where}: missing label")
            try:
                label = int(label_s)
            except ValueError:
                raise DataError(f"{where}: missing label") from None
            if label not in (0, 1):
                raise DataError(f"{where}: label {label} not in {{0, 1}}")
            ranks = []
            for value_s in rest.split():
                try:
                    rank = int(value_s) - index_offset
                except ValueError:
                    raise DataError(f"{where}: malformed value {value_s!r}") from None
                if rank >= vocab.size:
                    raise DataError(
                        f"{where}: rank {rank} outside [0, {vocab.size}) after offset removal"
                    )
                if rank >= 0:
                    ranks.append(rank)
            labels.append(label)
            rows.append(np.unique(np.array(ranks, dtype=np.int64), return_counts=True))
    return vocab, _stack_rows(rows, labels, vocab.size)


def load_corpus_file(path, *, width):
    """Reference canonical loader: ``label<TAB>idx:count ...`` lines."""
    rows, labels = [], []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path}: line {lineno}"
            label_s, sep, rest = line.rstrip("\n").partition("\t")
            if not sep:
                raise DataError(f"{where}: missing label field")
            try:
                label = int(label_s)
            except ValueError:
                raise DataError(f"{where}: malformed label {label_s!r}") from None
            if label not in (0, 1):
                raise DataError(f"{where}: label {label} not in {{0, 1}}")
            labels.append(label)
            rows.append(_parse_pairs(rest.split(), width, where))
    return _stack_rows(rows, labels, width)


def load_slmrd_vocab(path):
    """Reference vocabulary loader: one token per line, checked line by line."""
    tokens = []
    seen = {}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.rstrip("\n")
            if tok in seen:
                raise DataError(
                    f"{path}: duplicate token {tok!r} at lines {seen[tok]} and {lineno}"
                )
            seen[tok] = lineno
            tokens.append(tok)
    if not tokens:
        raise DataError(f"{path}: empty vocabulary file")
    return Vocabulary(tokens)


def vocabulary_index(tokens):
    """Reference token -> index map of a Vocabulary, built token by token."""
    index_of = {}
    for i, tok in enumerate(tokens):
        if tok in index_of:
            raise DataError(f"duplicate token {tok!r} at indices {index_of[tok]} and {i}")
        index_of[tok] = i
    return index_of


def load_polarity(path, vocab):
    """Reference polarity loader: ``float()`` on one stripped line at a time."""
    ratings = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            try:
                value = float(text)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: cannot parse rating {text!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{path}: line {lineno}: non-finite rating {text!r}")
            ratings.append(value)
    if len(ratings) != vocab.size:
        raise DataError(
            f"{path}: {len(ratings)} ratings for a vocabulary of {vocab.size} tokens"
        )
    return np.array(ratings, dtype=np.float64)


# ------------------------------------------------------------ corpus writer


def save_corpus_file(corpus, path):
    """Reference canonical writer: one f-string per pair."""
    m = corpus.matrix
    indptr = m.indptr.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, label in enumerate(corpus.labels.tolist()):
            lo, hi = indptr[row], indptr[row + 1]
            pairs = zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())
            fh.write(f"{label}\t{' '.join(f'{i}:{c}' for i, c in pairs)}\n")


# ---------------------------------------------------------- vocabulary map


def build_vocab_map(source, target):
    """Reference source -> target index map, one dict lookup per token."""
    mapping = np.full(source.size, -1, dtype=np.int64)
    dropped = []
    lookup = vocabulary_index(target.tokens)
    for i, token in enumerate(source.tokens):
        j = lookup.get(token)
        if j is None:
            dropped.append(token)
        else:
            mapping[i] = j
    return VocabMap(
        mapping=mapping,
        dropped=sorted(dropped),
        source_size=source.size,
        target_size=target.size,
    )
