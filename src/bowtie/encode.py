"""Sparse input encodings: plain multi-hot rows and polarity-weighted rows.

An encoded corpus is one CSR matrix, a row per review, because the full
dense design matrix would be on the order of 25 000 x 89 527 doubles
(~18 GB) while almost every entry is zero.  Each row keeps the corpus row's
sorted column order and stores no zeros.  Multi-hot stores a bool pattern;
polarity-weighted stores each count once, in the narrowest unsigned dtype
that holds the largest, beside the shared polarity table as ``ratings``.
No corpus holds a float64 per stored entry: ``float_rows`` makes one row
range's float64 values at a time, for the network's products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import Corpus
from .errors import DataError

MULTI_HOT = "multi-hot"
POLARITY_WEIGHTED = "polarity-weighted"
ENCODING_KINDS = (MULTI_HOT, POLARITY_WEIGHTED)

# entries per chunk when a corpus's arrays are rewritten in place: a ufunc whose
# output aliases an input of another dtype, or a take by int32 indices, copies it all
_CHUNK = 1 << 16


# the benchmark's tracer (perfbench/spans.py) reads this old name when it
# installs its spans; the name goes when that row of its table does
EncodedDataset = Corpus


@dataclass
class PolarityStats:
    """Extrema of stored entry values and of per-example sums of stored values."""

    element_min: float
    element_max: float
    rowsum_min: float
    rowsum_max: float


def encode_corpus(
    corpus: Corpus, kind: str, polarity: np.ndarray | None = None, *, width: int
) -> Corpus:
    """Encode every review as a row ``width`` columns wide, keeping row order.

    multi-hot stores True, a 1-byte pattern, at each distinct token index
    (counts ignored); polarity-weighted stands for float64 rating_k *
    count_k at index k and drops entries whose rating is exactly zero,
    which the encoding cannot distinguish from absent tokens.  Its polarity
    table is a float64 array of ``width`` ratings; every product is checked
    finite here, a chunk at a time, and the table rides on the result.

    The result shares the corpus's ``indices`` and ``indptr``.  Multi-hot
    allocates its pattern once and lets the counts go; polarity-weighted
    keeps the loaded counts' buffer when its dtype is already the narrowest
    unsigned one that holds them, as a loader's is unless zeroed entries held
    the largest, and copies them to that dtype otherwise.  So once the
    arguments check out the corpus is consumed, even by a non-finite product;
    copy it first to keep it.
    """
    if kind == POLARITY_WEIGHTED:
        if polarity is None:
            raise DataError("polarity-weighted encoding requires a polarity table")
        if len(polarity) != width:
            raise DataError(
                f"polarity table of length {len(polarity)} for encoding width {width}"
            )
    elif kind != MULTI_HOT:
        raise DataError(f"unknown encoding kind {kind!r}")
    counts = corpus.matrix
    indices = counts.indices
    if indices.size and indices.max() >= width:
        raise DataError(
            f"bag index {int(indices[indices >= width][0])} outside encoding width {width}"
        )
    del corpus.matrix
    if kind == MULTI_HOT:
        values, polarity = np.ones(len(indices), dtype=bool), None
    else:
        for lo in range(0, len(indices), _CHUNK):
            chunk = polarity.take(indices[lo:lo + _CHUNK])
            with np.errstate(over="ignore"):  # an overflow is the DataError below
                chunk *= counts.data[lo:lo + _CHUNK]  # exact for counts below 2**53
            finite = np.isfinite(chunk)
            if not finite.all():
                bad = int(indices[lo:lo + _CHUNK][~finite][0])
                raise DataError(f"non-finite cumulative polarity at token index {bad}")
            counts.data[lo:lo + _CHUNK][chunk == 0.0] = 0  # zero rating: eliminate_zeros drops it
        values = counts.data.astype(np.min_scalar_type(counts.data.max(initial=0)), copy=False)
    matrix = sparse.csr_matrix((values, indices, counts.indptr), shape=(len(corpus), width))
    matrix.eliminate_zeros()
    return Corpus(matrix, corpus.labels, polarity)


def float_rows(dataset: Corpus, lo: int, hi: int, buf) -> sparse.csr_matrix:
    """Rows ``[lo, hi)`` as a float64 CSR matrix over views of the corpus's
    index arrays, its values made in ``buf`` (from ``float_buffer``): the
    float64 rating x count that ``encode_corpus`` checked, or a slice of
    ones for a pattern.  Other data passes as stored, so counts stay int."""
    m, (values, at) = dataset.matrix, buf
    p0, p1 = m.indptr[lo], m.indptr[hi]
    data = m.data[p0:p1]
    if dataset.ratings is not None:
        # intp indices, else take() copies them; "clip", else it buffers its output
        np.copyto(at[:p1 - p0], m.indices[p0:p1])
        values = np.take(dataset.ratings, at[:p1 - p0], out=values[:p1 - p0], mode="clip")
        data = np.multiply(values, data, out=values)
    elif data.dtype == np.bool_:
        data = values[:p1 - p0]
    # set, not passed: scipy's constructor copies a view of under half its base
    block = sparse.csr_matrix((hi - lo, m.shape[1]), dtype=data.dtype)
    block.data, block.indices = data, m.indices[p0:p1]
    block.indptr = m.indptr[lo:hi + 1] - p0
    return block


def float_buffer(dataset: Corpus, entries: int):
    """``scratch()`` for ``float_rows``: new value and index buffers, or shared ones."""
    if dataset.ratings is not None:
        return lambda rows=0: (np.empty(entries), np.empty(entries, np.intp))
    ones = np.ones(entries if dataset.matrix.dtype == np.bool_ else 0)
    return lambda rows=0: (ones, None)


def polarity_stats(dataset: Corpus) -> PolarityStats:
    """Exact extrema over stored entry values and per-example stored-value sums.

    Examples with no stored entries contribute 0.0 to the row sums; if the
    whole dataset stores nothing, the element extrema are 0.0 as well.
    """
    if not len(dataset):
        raise DataError("polarity_stats on an empty dataset")
    # reduceat and csr.sum round differently from a row's own ndarray.sum; a
    # sum along the rows of a (rows, length) array is that same pairwise sum,
    # so the values are made and summed for one group of a stored length at a time
    m = dataset.matrix
    lengths = np.diff(m.indptr)
    order = np.argsort(lengths)
    rowsums = np.zeros(len(lengths))
    lows, highs = [], []
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if n := lengths[group[0]]:
            at = m.indptr[group][:, None] + np.arange(n)
            values = m.data[at]
            if dataset.ratings is not None:  # the float64 product float_rows makes
                values = dataset.ratings[m.indices[at]] * values
            rowsums[group] = values.sum(axis=1)
            lows.append(values.min())
            highs.append(values.max())
    return PolarityStats(
        element_min=float(min(lows, default=0.0)),
        element_max=float(max(highs, default=0.0)),
        rowsum_min=float(rowsums.min()),
        rowsum_max=float(rowsums.max()),
    )
