"""Corpus ingestion for the two review collections.

Loads the Stanford-style raw distribution (one-token-per-line vocabulary,
per-line polarity ratings, ``rating idx:count ...`` bag-of-words lines) and
the Keras-style integer-sequence distribution, normalizing both into one
CSR matrix of token counts over a dense vocabulary (a row per review) plus
a label array.  A canonical line format (``label<TAB>idx:count ...``) makes
everything downstream source-agnostic.  The three record formats are read
in blocks of whole lines by one array-op scanner, and the canonical one is
written a block of rows at a time by array ops too; the README gives the
line grammar each file accepts.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import DataError
from .fileio import replacing
from .rngseed import derive_rng


class Vocabulary:
    """Ordered token-to-index map; indices are dense and start at 0."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        if len(set(self.tokens)) < len(self.tokens):
            first, again = _first_repeat(self.tokens)
            raise DataError(
                f"duplicate token {self.tokens[again]!r} at indices {first} and {again}"
            )

    @cached_property
    def index_of(self) -> dict[str, int]:
        # built on first use: only a transfer's target vocabulary needs it
        return dict(zip(self.tokens, range(len(self.tokens))))

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


# Loaders read a record file in blocks of whole lines of about this many
# bytes, so their per-byte work arrays stay small however long the file is.
_BLOCK_BYTES = 1 << 18

# Byte classes of record files, as a bytes.translate table.
_DIGIT, _SPACE, _COLON, _NEWLINE, _CR, _OTHER = range(6)
_CLASS_OF = bytes(
    _DIGIT if 48 <= b <= 57
    else {32: _SPACE, 9: _SPACE, 11: _SPACE, 12: _SPACE,
          58: _COLON, 10: _NEWLINE, 13: _CR}.get(b, _OTHER)
    for b in range(256)
)
_SPACES = re.compile("[ \t\v\f]+")
_NUMBER = re.compile("[0-9]{1,18}")
_PAIR = re.compile("([0-9]{1,18}):([0-9]{1,18})")


def _blocks(path: str | Path):
    """Yield (block, lines before it): ``path`` in blocks of whole lines,
    each ending in a newline, even when the file does not."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        lines, pending = 0, []  # the chunks of a line longer than a block
        while chunk := fh.read(_BLOCK_BYTES):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                block = b"".join([*pending, chunk[:cut]])
                pending = []
                yield block, lines
                lines += block.count(b"\n")
            pending.append(chunk[cut:])
        tail = b"".join(pending)
        if tail:
            yield tail + b"\n", lines


def _scan(block: bytes, tab_after_head: bool, pairs: bool):
    """The numbers of a block of whole lines, checked against the grammar.

    A record is a head number (label or rating), then whitespace-separated
    fields: ``index:count`` pairs with ``pairs``, otherwise single numbers.
    With ``tab_after_head`` the head starts the line and a tab follows it;
    otherwise the line may be indented and any whitespace follows the head.
    A number is a run of 1 to 18 ASCII digits; whitespace is space, tab,
    \\v, \\f and the \\r of a \\r\\n line end.

    Returns (values, head, line, n_lines, bad): each number's value,
    whether it is a head and its line (0-based); the block's line count;
    and the first line that breaks the grammar (``n_lines`` if none), whose
    numbers and those of later lines are left out.
    """
    raw = np.frombuffer(block, np.uint8)
    cls = np.frombuffer(block.translate(_CLASS_OF), np.uint8)
    digit = cls == _DIGIT
    run_first, run_last = digit.copy(), digit.copy()
    run_first[1:] &= ~digit[:-1]
    run_last[:-1] &= ~digit[1:]
    start = np.flatnonzero(run_first)
    end = np.flatnonzero(run_last) + 1
    newline = np.flatnonzero(cls == _NEWLINE)
    n_lines = newline.size
    line_start = np.concatenate(([0], newline[:-1] + 1))
    first = np.searchsorted(start, line_start)  # each line's first number
    per_line = np.diff(first, append=start.size)
    line = np.repeat(np.arange(n_lines), per_line)
    head = np.zeros(start.size, dtype=bool)
    head[first[per_line > 0]] = True

    # A number's role follows from the bytes between it and the number
    # before it: a newline makes it a head, a lone colon a count, anything
    # else (whitespace, checked below) an index or a single value.
    gap = np.concatenate(([0], end))[:-1]
    lead = raw[gap]
    colon = (lead == ord(":")) & (start - gap == 1) & ~head
    after_head = np.concatenate(([False], head))[:-1]
    after_colon = np.concatenate(([False], colon))[:-1]
    fits = head | np.where(
        after_head,
        lead == ord("\t") if tab_after_head else ~colon,
        colon != after_colon if pairs else ~colon,
    )
    # Every line has a head; a tab_after_head head starts its line and a
    # tab follows it even when nothing else does; a pairs line ends on a count.
    line_ok = per_line > 0
    lines = np.flatnonzero(line_ok)
    head_at = first[lines]
    last = head_at + per_line[lines] - 1
    if tab_after_head:
        line_ok[lines] = (start[head_at] == line_start[lines]) & (
            (last > head_at) | (raw[end[head_at]] == ord("\t"))
        )
    if pairs:
        line_ok[lines] &= (last == head_at) | colon[last]
    length = end - start
    bad = [line[~fits | (length > 18)], np.flatnonzero(~line_ok)]
    # Every byte between numbers is whitespace, except the lone colons.
    if np.count_nonzero(cls == _COLON) != np.count_nonzero(colon) or np.any(cls >= _CR):
        cr = np.flatnonzero(cls == _CR)
        stray = np.concatenate((
            np.flatnonzero(cls == _OTHER),
            cr[cls[cr + 1] != _NEWLINE],
            np.setdiff1d(np.flatnonzero(cls == _COLON), gap[colon]),
        ))
        bad.append(np.searchsorted(newline, stray))
    bad = _first_bad(n_lines, *bad)

    # a number's value, 8 digits at a time: words[i] holds bytes i-8..i-1
    words = np.ndarray((len(block) + 1,), "<u8", bytes(8) + block, 0, (1,))
    length = np.minimum(length, 18)
    values = _eight_digits(words[end], np.minimum(length, 8))
    for shift in (8, 16):
        more = np.flatnonzero(length > shift)
        values[more] += 10**shift * _eight_digits(
            words[end[more] - shift], np.minimum(length[more] - shift, 8)
        )
    if bad < n_lines:
        keep = line < bad
        values, head, line = values[keep], head[keep], line[keep]
    return values, head, line, n_lines, bad


def _eight_digits(word: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The value of the last ``count`` (1 to 8) bytes of each little-endian
    ``word``, which are ASCII digits; the other bytes are ignored."""
    u = np.uint64
    word = word & u(0x0F0F0F0F0F0F0F0F)
    unused = ((8 - count) * 8).astype(u)
    word = (word >> unused) << unused
    # add neighbouring digits, then pairs, then quads, within the word
    word = (word * u(10) + (word >> u(8))) & u(0x00FF00FF00FF00FF)
    word = (word * u(100) + (word >> u(16))) & u(0x0000FFFF0000FFFF)
    word = (word * u(10000) + (word >> u(32))) & u(0xFFFFFFFF)
    return word.astype(np.int64)


def _first_bad(default: int, *lines: np.ndarray) -> int:
    """The smallest line number in ``lines``, or ``default`` when all are empty."""
    return min([default] + [int(a.min()) for a in lines if a.size])


def _record_error(path, block: bytes, lines_before: int, line: int, explain) -> DataError:
    """The DataError for bad line ``line`` of ``block``; ``explain`` names the
    first thing wrong with the line's text."""
    text = block.split(b"\n")[line].decode("utf-8", "backslashreplace").removesuffix("\r")
    reason = explain(text) or "malformed record"
    return DataError(f"{path}: line {lines_before + line + 1}: {reason}")


def _fields(text: str) -> list[str]:
    return [field for field in _SPACES.split(text) if field]


def _pairs_error(fields: list[str], bound: int) -> str | None:
    indices = []
    for field in fields:
        match = _PAIR.fullmatch(field)
        if not match:
            return f"malformed pair {field!r}"
        idx, cnt = int(match[1]), int(match[2])
        if idx >= bound:
            return f"token index {idx} outside [0, {bound})"
        if cnt < 1:
            return f"count {cnt} for index {idx} must be >= 1"
        indices.append(idx)
    indices.sort()
    for a, b in zip(indices, indices[1:]):
        if a == b:
            return f"duplicate token index {a}"
    return None


def _canonical_error(text: str, bound: int) -> str | None:
    label_s, sep, rest = text.partition("\t")
    if not sep:
        return "missing label field"
    if not _NUMBER.fullmatch(label_s):
        return f"malformed label {label_s!r}"
    if int(label_s) > 1:
        return f"label {int(label_s)} not in {{0, 1}}"
    return _pairs_error(_fields(rest), bound)


def _slmrd_error(text: str, bound: int) -> str | None:
    fields = _fields(text)
    if not fields:
        return "blank record"
    if not _NUMBER.fullmatch(fields[0]):
        return f"malformed rating {fields[0]!r}"
    rating = int(fields[0])
    if rating > 10:
        return f"rating {rating} outside [0, 10]"
    if rating in (5, 6):
        return f"rating {rating} has no defined label"
    return _pairs_error(fields[1:], bound)


def _kid_error(text: str, size: int, offset: int) -> str | None:
    label_s, sep, rest = text.partition("\t")
    if not sep or not _NUMBER.fullmatch(label_s):
        return "missing label"
    if int(label_s) > 1:
        return f"label {int(label_s)} not in {{0, 1}}"
    for field in _fields(rest):
        if not _NUMBER.fullmatch(field):
            return f"malformed value {field!r}"
        rank = int(field) - offset
        if rank >= size:
            return f"rank {rank} outside [0, {size}) after offset removal"
    return None


def _load_pairs(path, bound: int, tab_after_head: bool, bad_head, explain):
    """Read a file of ``head index:count ...`` records.

    Returns (heads, indices, counts, sizes): one head per record, the pairs
    of all records sorted by index within each record, and the number of
    pairs per record.  ``bad_head`` flags invalid heads; the first bad
    record raises a DataError whose reason ``explain`` gives.
    """
    heads, indices, counts, sizes = [], [], [], []
    for block, lines_before in _blocks(path):
        values, is_head, line, n_lines, bad = _scan(block, tab_after_head, pairs=True)
        head, pairs, row = values[is_head], values[~is_head], line[~is_head][::2]
        idx, cnt = pairs[::2], pairs[1::2]  # a good record alternates them
        distinct = (idx[1:] > idx[:-1]) | (row[1:] != row[:-1])
        if not distinct.all():
            # rows are already in order, so sorting by (row, index) keeps them
            order = np.lexsort((idx, row))
            idx, cnt = idx[order], cnt[order]
            distinct = (idx[1:] != idx[:-1]) | (row[1:] != row[:-1])
        bad = _first_bad(
            bad,
            np.flatnonzero(bad_head(head)),
            row[idx >= bound],
            row[cnt < 1],
            row[1:][~distinct],
        )
        if bad < n_lines:
            raise _record_error(path, block, lines_before, bad, explain)
        heads.append(head)
        indices.append(idx)
        counts.append(cnt)
        sizes.append(np.bincount(row, minlength=n_lines))
    return _joined(heads, indices, counts, sizes)


def _joined(*block_arrays: list) -> tuple:
    """Each list of per-block int64 arrays as one array."""
    return tuple(np.concatenate([np.empty(0, np.int64), *parts]) for parts in block_arrays)


def _csr(counts, indices, sizes, width: int) -> sparse.csr_matrix:
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return sparse.csr_matrix((counts, indices, indptr), shape=(sizes.size, width))


def _open_text(path: str | Path):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _utf8_error(path: str | Path) -> DataError:
    """The DataError for a text file that does not decode as UTF-8; it names
    the first bad byte by its offset in the file."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return DataError(
            f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start} ({exc.reason})"
        )
    return DataError(f"{path}: not UTF-8")  # the file changed since it was read


def _first_repeat(tokens: list[str]) -> tuple[int, int]:
    """The positions of the first token seen again, and of its repeat."""
    seen: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        first = seen.setdefault(tok, i)
        if first != i:
            return first, i
    raise ValueError("no token repeats")


def load_slmrd_vocab(path: str | Path) -> Vocabulary:
    """Load a one-token-per-line vocabulary file (line number = index, 0-based).

    This is both the Stanford ``imdb.vocab`` layout and the canonical
    vocabulary format written by ``prepare``.  Lines end in ``\\n``,
    ``\\r\\n`` or a lone ``\\r``; a token is the rest of its line.
    """
    with _open_text(path) as fh:
        try:
            tokens = fh.read().split("\n")
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
    if tokens[-1] == "":  # what follows the last line end
        tokens.pop()
    if not tokens:
        raise DataError(f"{path}: empty vocabulary file")
    try:
        return Vocabulary(tokens)
    except DataError:
        first, again = _first_repeat(tokens)
        raise DataError(
            f"{path}: duplicate token {tokens[again]!r} at lines {first + 1} and {again + 1}"
        ) from None


def load_polarity(path: str | Path, vocab: Vocabulary) -> PolarityTable:
    """Load one-rating-per-line polarity values aligned with ``vocab``.

    A rating is any text ``float()`` accepts, whitespace around it included,
    and must be finite.
    """
    with _open_text(path) as fh:
        try:
            ratings = np.fromiter(map(float, fh), np.float64)
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
        except ValueError:
            ratings = None
    if ratings is None or not np.isfinite(ratings).all():
        raise _rating_error(path)
    if ratings.size != vocab.size:
        raise DataError(
            f"{path}: {ratings.size} ratings for a vocabulary of {vocab.size} tokens"
        )
    return PolarityTable(ratings)


def _rating_error(path: str | Path) -> DataError:
    """The DataError for the first line of ``path`` that is not a finite rating."""
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            try:
                value = float(text)
            except ValueError:
                return DataError(f"{path}: line {lineno}: cannot parse rating {text!r}")
            if not np.isfinite(value):
                return DataError(f"{path}: line {lineno}: non-finite rating {text!r}")
    return DataError(f"{path}: malformed ratings")  # the file changed since it was read


def load_slmrd_bow(path: str | Path, vocab: Vocabulary, split: str = "train") -> Corpus:
    """Load a ``labeledBow.feat`` file: each line ``rating idx:count ...``.

    Ratings >= 7 become positive labels, <= 4 negative; 5 and 6 do not occur
    in the dataset by construction and are rejected loudly.
    """
    ratings, indices, counts, sizes = _load_pairs(
        path, vocab.size, False,
        lambda r: (r > 10) | (r == 5) | (r == 6),
        lambda text: _slmrd_error(text, vocab.size),
    )
    matrix = _csr(counts, indices, sizes, vocab.size)
    return Corpus(matrix, (ratings >= 7).astype(np.int64), vocab.fingerprint(), split)


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
    vocab = Vocabulary(_word_index_tokens(word_index_path))

    labels, indices, counts, sizes = [], [], [], []
    for block, lines_before in _blocks(sequences_path):
        values, is_head, line, n_lines, bad = _scan(block, True, pairs=False)
        label = values[is_head]
        rank, row = values[~is_head] - index_offset, line[~is_head]
        bad = _first_bad(bad, np.flatnonzero(label > 1), row[rank >= vocab.size])
        if bad < n_lines:
            raise _record_error(
                sequences_path, block, lines_before, bad,
                lambda text: _kid_error(text, vocab.size, index_offset),
            )
        keep = rank >= 0  # lower values are reserved control codes
        key, count = np.unique(row[keep] * vocab.size + rank[keep], return_counts=True)
        row, rank = np.divmod(key, vocab.size)
        labels.append(label)
        indices.append(rank)
        counts.append(count)
        sizes.append(np.bincount(row, minlength=n_lines))
    labels, indices, counts, sizes = _joined(labels, indices, counts, sizes)
    return vocab, Corpus(
        _csr(counts, indices, sizes, vocab.size), labels, vocab.fingerprint(), "full"
    )


def _word_index_tokens(path: str | Path) -> list[str]:
    """The tokens of a JSON token->rank object in rank order, checked."""
    with _open_text(path) as fh:
        try:
            word_index = json.load(fh)
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(word_index, dict) or not word_index:
        raise DataError(f"{path}: expected a non-empty token->rank object")
    tokens = list(word_index)
    joined = "".join(tokens)
    if set(map(type, word_index.values())) == {int} and "\n" not in joined and "\r" not in joined:
        try:
            ranks = np.fromiter(word_index.values(), np.int64, len(tokens))
        except OverflowError:  # a rank beyond int64: the walk below sorts it
            ranks = None
        if ranks is not None:
            order = np.argsort(ranks, kind="stable")
            ranks = ranks[order]
            if ranks[0] >= 1 and (ranks[1:] != ranks[:-1]).all():
                return [tokens[i] for i in order.tolist()]
    return _walk_word_index(path, word_index)


def _walk_word_index(path: str | Path, word_index: dict) -> list[str]:
    """``_word_index_tokens`` one entry at a time: raises the DataError for
    the first bad entry, or returns the tokens in rank order."""
    ranks_seen: dict[int, str] = {}
    for tok, rank in word_index.items():
        if type(rank) is not int or rank < 1:  # JSON true is a bool, not a rank
            raise DataError(f"{path}: rank for {tok!r} must be a positive integer")
        if rank in ranks_seen:
            raise DataError(f"{path}: tokens {ranks_seen[rank]!r} and {tok!r} share rank {rank}")
        if "\n" in tok or "\r" in tok:
            # the canonical vocabulary is one token per line
            raise DataError(f"{path}: token {tok!r} contains a line break")
        ranks_seen[rank] = tok
    return [tok for tok, _ in sorted(word_index.items(), key=lambda kv: kv[1])]


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Deterministically permute the reviews; same seed, same order."""
    return corpus.take(derive_rng(seed).permutation(len(corpus)))


# save_corpus_file lays out blocks of rows of about this many stored pairs
# (each row counts as one more), so its work arrays stay small.
_WRITE_PAIRS = 1 << 15

_TENS = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10**18


def save_corpus_file(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical format: one ``label<TAB>idx:count ...`` record per line.

    Pairs are written in their stored order.  A label, index or count that
    is negative, or not an integer, raises ``ValueError`` before the file is
    touched, since the loaders could not read it back.
    """
    m = corpus.counts
    labels = _writable(corpus.labels, "label", path)
    indices = _writable(m.indices, "index", path)
    counts = _writable(m.data, "count", path)
    indptr = m.indptr.astype(np.int64)
    # cut between rows each time pairs plus rows pass a multiple of _WRITE_PAIRS
    weight = indptr + np.arange(indptr.size)
    cuts = np.searchsorted(weight, np.arange(_WRITE_PAIRS, weight[-1], _WRITE_PAIRS))
    bounds = np.unique(np.concatenate(([0], cuts, [len(corpus)]))).tolist()
    with replacing(path, "wb") as fh:
        for lo, hi in zip(bounds, bounds[1:]):
            p0, p1 = indptr[lo], indptr[hi]
            fh.write(_record_bytes(labels[lo:hi], indptr[lo : hi + 1] - p0,
                                   indices[p0:p1], counts[p0:p1]))


def _writable(values: np.ndarray, name: str, path) -> np.ndarray:
    """``values``, or the ValueError for one that cannot be written."""
    values = np.asarray(values)
    if not np.can_cast(values.dtype, np.int64):
        raise ValueError(f"{path}: cannot write {name}s of dtype {values.dtype}")
    if values.size and values.min() < 0:
        raise ValueError(f"{path}: cannot write negative {name} {int(values.min())}")
    return values


def _record_bytes(labels, indptr, indices, counts) -> np.ndarray:
    """The canonical lines of some rows as bytes (``indptr`` starts at 0).

    A row is its label, a tab, then each pair as ``index:count`` and one
    byte after it: a space, or the newline after the row's last pair.  An
    empty row is its label, a tab and the newline.
    """
    values = np.concatenate((labels, indices, counts), dtype=np.int64)
    digits = np.searchsorted(_TENS, values, side="right") + 1
    label_len, index_len, count_len = np.split(digits, [labels.size, labels.size + indices.size])
    pair_bytes = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(index_len + count_len + 2, out=pair_bytes[1:])
    sizes = np.diff(indptr)
    row_len = label_len + 1 + np.diff(pair_bytes[indptr]) + (sizes == 0)
    row_end = np.cumsum(row_len)
    label_end = row_end - row_len + label_len
    pair_start = pair_bytes[:-1] + np.repeat(label_end + 1 - pair_bytes[indptr[:-1]], sizes)
    index_end = pair_start + index_len
    count_end = index_end + 1 + count_len
    out = np.empty(row_end[-1], dtype=np.uint8)
    out[label_end] = ord("\t")
    out[index_end] = ord(":")
    out[count_end] = ord(" ")
    out[row_end - 1] = ord("\n")
    # the digits, last place first: the inverse of _eight_digits
    end = np.concatenate((label_end, index_end, count_end))
    while values.size:
        values, digit = np.divmod(values, 10)
        end -= 1
        out[end] = digit + ord("0")
        more = values > 0
        values, end = values[more], end[more]
    return out


def load_corpus_file(
    path: str | Path,
    vocab_id: str = "",
    split: str = "train",
    width: int | None = None,
) -> Corpus:
    """Read the canonical format back.

    Pairs within a record may come in any order and are sorted by token
    index; a repeated index, a count below 1, an index outside ``width``
    (when given), a label other than 0/1 or a line outside the grammar
    raises a ``DataError`` naming the line.  Without ``width`` the matrix is as wide as the largest index
    seen requires.
    """
    bound = width if width is not None else np.iinfo(np.int64).max
    labels, indices, counts, sizes = _load_pairs(
        path, bound, True, lambda label: label > 1,
        lambda text: _canonical_error(text, bound),
    )
    if width is None:
        width = int(indices.max()) + 1 if indices.size else 0
    return Corpus(_csr(counts, indices, sizes, width), labels, vocab_id, split)
