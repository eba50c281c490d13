"""Corpus ingestion for the two review collections.

Loads the Stanford-style raw distribution (one-token-per-line vocabulary,
per-line polarity ratings, ``rating idx:count ...`` bag-of-words lines) and
the Keras-style integer-sequence distribution, normalizing both into one
CSR matrix of token counts over a dense vocabulary (a row per review) plus
a label array.  A canonical line format (``label<TAB>idx:count ...``) makes
everything downstream source-agnostic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import DataError
from .rngseed import derive_rng


class Vocabulary:
    """Ordered token-to-index map; indices are dense and start at 0."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.index_of: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.index_of:
                raise DataError(
                    f"duplicate token {tok!r} at indices "
                    f"{self.index_of[tok]} and {i}"
                )
            self.index_of[tok] = i

    @property
    def size(self) -> int:
        return len(self.tokens)

    def fingerprint(self) -> str:
        """SHA-256 over the newline-joined token list."""
        joined = "\n".join(self.tokens).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return f"Vocabulary(size={self.size})"


@dataclass
class PolarityTable:
    """Per-token sentiment ratings aligned index-for-index with a Vocabulary."""

    ratings: np.ndarray  # float64, all finite

    def __post_init__(self):
        self.ratings = np.asarray(self.ratings, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ratings)


@dataclass(eq=False)  # matrices have no single truth value; compare rows instead
class Corpus:
    """Reviews as the rows of one token-count matrix plus one label per row.

    ``counts`` is an int64 CSR matrix of shape (reviews, width) whose rows
    have sorted column indices, no duplicates and no stored zeros; every
    vocabulary index a review uses is a column.
    """

    counts: sparse.csr_matrix
    labels: np.ndarray  # int64, 0 or 1 per row
    vocab_id: str = ""
    split: str = "train"

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def nnz(self) -> int:
        return self.counts.nnz

    def label_counts(self) -> tuple[int, int]:
        """(negative, positive) totals."""
        pos = int(self.labels.sum())
        return len(self) - pos, pos

    def take(self, rows, split: str | None = None) -> "Corpus":
        """The reviews at ``rows`` (an index array or a slice), in that order."""
        return Corpus(
            self.counts[rows], self.labels[rows], self.vocab_id, split or self.split
        )


def _stack_rows(rows, labels, width, vocab_id: str, split: str) -> Corpus:
    """One Corpus from per-review (sorted indices, counts) array pairs."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(idx) for idx, _ in rows], out=indptr[1:])
    indices = np.concatenate([np.empty(0, np.int64)] + [idx for idx, _ in rows])
    counts = np.concatenate([np.empty(0, np.int64)] + [cnt for _, cnt in rows])
    if width is None:
        width = int(indices.max()) + 1 if indices.size else 0
    matrix = sparse.csr_matrix((counts, indices, indptr), shape=(len(rows), width))
    return Corpus(matrix, np.array(labels, dtype=np.int64), vocab_id, split)


def _open_text(path: str | Path):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_slmrd_vocab(path: str | Path) -> Vocabulary:
    """Load a one-token-per-line vocabulary file (line number = index, 0-based).

    This is both the Stanford ``imdb.vocab`` layout and the canonical
    vocabulary format written by ``prepare``.
    """
    tokens: list[str] = []
    seen: dict[str, int] = {}
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


def load_polarity(path: str | Path, vocab: Vocabulary) -> PolarityTable:
    """Load one-rating-per-line polarity values aligned with ``vocab``."""
    ratings: list[float] = []
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
    return PolarityTable(np.array(ratings, dtype=np.float64))


def _parse_pairs(parts: list[str], width: int, where: str) -> tuple[np.ndarray, np.ndarray]:
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


def load_slmrd_bow(path: str | Path, vocab: Vocabulary, split: str = "train") -> Corpus:
    """Load a ``labeledBow.feat`` file: each line ``rating idx:count ...``.

    Ratings >= 7 become positive labels, <= 4 negative; 5 and 6 do not occur
    in the dataset by construction and are rejected loudly.
    """
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    labels: list[int] = []
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
    return _stack_rows(rows, labels, vocab.size, vocab.fingerprint(), split)


def load_kid(
    word_index_path: str | Path,
    sequences_path: str | Path,
    index_offset: int = 3,
) -> tuple[Vocabulary, Corpus]:
    """Load the integer-sequence distribution.

    The word-index file is a JSON object mapping token -> positive rank; the
    vocabulary index of a token is its position in rank order.  The sequence
    file holds one review per line as ``label<TAB>v1 v2 ...``; each stored
    value v maps to token index ``v - index_offset``, and values below the
    offset are reserved control codes that are dropped.
    """
    with _open_text(word_index_path) as fh:
        try:
            word_index = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{word_index_path}: not valid JSON: {exc}") from exc
    if not isinstance(word_index, dict) or not word_index:
        raise DataError(f"{word_index_path}: expected a non-empty token->rank object")
    ranks_seen: dict[int, str] = {}
    for tok, rank in word_index.items():
        if not isinstance(rank, int) or rank < 1:
            raise DataError(f"{word_index_path}: rank for {tok!r} must be a positive integer")
        if rank in ranks_seen:
            raise DataError(
                f"{word_index_path}: tokens {ranks_seen[rank]!r} and {tok!r} share rank {rank}"
            )
        if "\n" in tok or "\r" in tok:
            # the canonical vocabulary is one token per line
            raise DataError(f"{word_index_path}: token {tok!r} contains a line break")
        ranks_seen[rank] = tok
    tokens = [tok for tok, _ in sorted(word_index.items(), key=lambda kv: kv[1])]
    vocab = Vocabulary(tokens)

    rows: list[tuple[np.ndarray, np.ndarray]] = []
    labels: list[int] = []
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
            ranks: list[int] = []
            for value_s in rest.split():
                try:
                    rank = int(value_s) - index_offset
                except ValueError:
                    raise DataError(f"{where}: malformed value {value_s!r}") from None
                if rank >= vocab.size:
                    raise DataError(
                        f"{where}: rank {rank} outside [0, {vocab.size}) after offset removal"
                    )
                if rank >= 0:  # lower values are reserved control codes
                    ranks.append(rank)
            labels.append(label)
            rows.append(np.unique(np.array(ranks, dtype=np.int64), return_counts=True))
    return vocab, _stack_rows(rows, labels, vocab.size, vocab.fingerprint(), "full")


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Deterministically permute the reviews; same seed, same order."""
    return corpus.take(derive_rng(seed).permutation(len(corpus)))


def save_corpus_file(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical format: one ``label<TAB>idx:count ...`` record per line."""
    m = corpus.counts
    indptr = m.indptr.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, label in enumerate(corpus.labels.tolist()):
            lo, hi = indptr[row], indptr[row + 1]
            pairs = zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist())
            fh.write(f"{label}\t{' '.join(f'{i}:{c}' for i, c in pairs)}\n")


def load_corpus_file(
    path: str | Path,
    vocab_id: str = "",
    split: str = "train",
    width: int | None = None,
) -> Corpus:
    """Read the canonical format back.

    Pairs within a record may come in any order and are sorted by token
    index; a repeated index, a count below 1, an index outside ``width``
    (when given) or a label other than 0/1 raises a ``DataError`` naming
    the line.  Without ``width`` the matrix is as wide as the largest index
    seen requires.
    """
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    labels: list[int] = []
    bound = width if width is not None else np.iinfo(np.int64).max
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
            rows.append(_parse_pairs(rest.split(), bound, where))
    return _stack_rows(rows, labels, width, vocab_id, split)
