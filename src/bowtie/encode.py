"""Sparse input encodings: plain multi-hot rows and polarity-weighted rows.

An encoded corpus is one CSR matrix, a row per review, because the full
dense design matrix would be on the order of 25 000 x 89 527 doubles
(~18 GB) while almost every entry is zero.  Each row keeps the corpus row's
sorted column order and stores no zeros.  Multi-hot stores a bool pattern,
which scipy turns into exactly 1.0 inside every product; polarity-weighted
stores float64 values.  The network's first-layer kernels consume row slices
of this matrix directly.
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

    multi-hot stores True, a 1-byte pattern that products read as 1.0, at
    each distinct token index (counts ignored); polarity-weighted stores
    float64 rating_k * count_k at index k and drops entries whose rating is
    exactly zero, which the encoding cannot distinguish from absent tokens.
    Its polarity table is a float64 array of ``width`` ratings.

    The result shares the corpus's ``indices`` and ``indptr``.  Multi-hot
    allocates its pattern once and lets the int64 counts go; polarity-weighted
    writes each value over its count.  So once the arguments check out the
    corpus is consumed, even by a non-finite product; copy it first to keep it.
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
        values = np.ones(len(indices), dtype=bool)
    else:
        values = counts.data.view(np.float64)  # each value overwrites its count
        for lo in range(0, len(values), _CHUNK):
            chunk = polarity.take(indices[lo:lo + _CHUNK])
            with np.errstate(over="ignore"):  # an overflow is the DataError below
                chunk *= counts.data[lo:lo + _CHUNK]  # exact for counts below 2**53
            finite = np.isfinite(chunk)
            if not finite.all():
                bad = int(indices[lo:lo + _CHUNK][~finite][0])
                raise DataError(f"non-finite cumulative polarity at token index {bad}")
            values[lo:lo + _CHUNK] = chunk
    matrix = sparse.csr_matrix((values, indices, counts.indptr), shape=(len(corpus), width))
    matrix.eliminate_zeros()
    return Corpus(matrix, corpus.labels)


def polarity_stats(dataset: Corpus) -> PolarityStats:
    """Exact extrema over stored entry values and per-example stored-value sums.

    Examples with no stored entries contribute 0.0 to the row sums; if the
    whole dataset stores nothing, the element extrema are 0.0 as well.
    """
    if not len(dataset):
        raise DataError("polarity_stats on an empty dataset")
    data, indptr = dataset.matrix.data, dataset.matrix.indptr
    # reduceat and csr.sum round differently from a row's own ndarray.sum; a
    # sum along the rows of a (rows, length) gather is that same pairwise sum,
    # so rows are summed in groups of one stored length, a group at a time
    lengths = np.diff(indptr)
    order = np.argsort(lengths)
    rowsums = np.zeros(len(lengths))
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if n := lengths[rows[0]]:
            rowsums[rows] = data[indptr[rows][:, None] + np.arange(n)].sum(axis=1)
    element_min = float(data.min()) if data.size else 0.0
    element_max = float(data.max()) if data.size else 0.0
    return PolarityStats(
        element_min=element_min,
        element_max=element_max,
        rowsum_min=float(rowsums.min()),
        rowsum_max=float(rowsums.max()),
    )
