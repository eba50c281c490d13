"""Corpus ingestion for the two review collections.

Loads the Stanford-style raw distribution (one-token-per-line vocabulary,
per-line polarity ratings, ``rating idx:count ...`` bag-of-words lines) and
the Keras-style integer-sequence distribution into one CSR matrix of token
counts over a dense vocabulary (a row per review) plus a label array; a
canonical ``label<TAB>idx:count ...`` format makes everything downstream
source-agnostic.  A vocabulary keeps its tokens as the one string of its
canonical file, not a str object per token, and equal tokens are found by
sorting the UTF-8 bytes of that string (``_sort_tokens``), for the
vocabulary's repeat check and for ``transfer``'s map alike.  Every input
is read whole in one read (``fileio``) and a failure is explained from the
bytes read, so a pipe loads like a file.
Record files are scanned in file order, in blocks of whole lines, by one
array-op scanner on the calling thread that fills arrays sized once from
the file's newline and mark counts, the indices at scipy's final dtype
(int32 when it fits), and stops at the first bad line.  The canonical
format is written a block of rows at a time by array ops too; the README
gives the line grammar each file accepts.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import DataError
from .fileio import read_bytes, read_text, replacing
from .rngseed import derive_rng


class Vocabulary:
    """Ordered token-to-index map; indices are dense and start at 0.

    The tokens are kept as one string, ``text``, joined by newlines (the
    canonical ``vocab.txt`` less its final newline), not a str object each,
    so no token may hold a line break.  Every token must encode as UTF-8,
    so two tokens are equal exactly when their UTF-8 bytes are, which is
    how repeats are found (``_sort_tokens``).
    """

    def __init__(self, tokens: list[str]):
        tokens = list(tokens)
        self.text, self.size = "\n".join(tokens), len(tokens)
        if "\r" in self.text or self.text.count("\n") != max(self.size - 1, 0):
            bad = next(i for i, tok in enumerate(tokens) if "\n" in tok or "\r" in tok)
            raise DataError(f"token {tokens[bad]!r} at index {bad} contains a line break")
        try:
            spans = _token_bytes(self.text, self.size)
        except UnicodeEncodeError as exc:  # a lone surrogate
            bad = self.text.count("\n", 0, exc.start)
            raise DataError(
                f"token {tokens[bad]!r} at index {bad} is not encodable as UTF-8"
            ) from None
        repeat = _first_repeat(*spans)
        if repeat:
            first, again, token = repeat
            raise DataError(f"duplicate token {token!r} at indices {first} and {again}")

    @classmethod
    def _of_text(cls, text: str, size: int) -> "Vocabulary":
        """The vocabulary of ``size`` tokens whose ``text`` is already checked."""
        vocab = cls.__new__(cls)
        vocab.text, vocab.size = text, size
        return vocab

    @property
    def tokens(self) -> list[str]:
        """A new list of the tokens, split from ``text``."""
        return self.text.split("\n") if self.size else []

    def fingerprint(self) -> str:
        """SHA-256 over ``text``: the canonical file less its final newline."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _token_bytes(text: str, size: int) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``text``, ``size`` newline-joined tokens, then 8
    newlines (so every token is followed by one, and a word can be read
    from any byte), and the start and byte length of each token."""
    data = (text + "\n" * 8).encode("utf-8")
    end = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))[:size]
    start = np.zeros(size, np.int64)
    start[1:] = end[:-1] + 1
    end -= start
    return data, start, end


# _windows' mask of a word's first c bytes, by c (0 to 7)
_FIRST = np.array([(1 << 64) - (1 << 8 * (8 - c)) for c in range(8)], np.uint64)

# _sort_tokens reads at most about this many windows in a pass after its first
_PASS_WINDOWS = 1 << 16


def _windows(words: np.ndarray, start: np.ndarray, length: np.ndarray, at: int, count: int):
    """``count`` windows of 7 bytes of each token from its byte ``at`` on, as
    a (tokens, count) uint64 array whose rows sort as the bytes do.

    A window is its bytes big-endian, those past the token's end as 0, then
    a low byte of how many are the token's, so a prefix sorts first and a
    window that holds fewer than 7 is the token's last.
    """
    at = at + 7 * np.arange(count)
    held = np.clip(length[:, None] - at, 0, 7)
    where = start[:, None] + at
    np.minimum(where, words.size - 1, out=where)  # a window past the end holds none
    key = words[where].astype(np.uint64)  # take() would copy all of ``words`` first
    key &= _FIRST.take(held)
    key |= held.view(np.uint64)
    return key


def _sort_tokens(data: bytes, start: np.ndarray, length: np.ndarray):
    """(order, heads) of the tokens ``data[start:start + length]``: their
    indices sorted by their bytes, and ``heads[p]``, true where sorted
    position ``p`` starts a class of equal tokens, with one more true entry
    at the end, so that position ``p`` is a class of one when ``heads[p]``
    and ``heads[p + 1]`` both hold.

    ``data`` is read as 8-byte big-endian words (``_windows``), so it needs 7
    bytes past its last token.  One sort orders all the tokens by their
    first window; each later pass sorts each class still of two or more
    tokens with 7 bytes in their last window by their next windows, as
    many as ``_PASS_WINDOWS`` allows.  So the passes are few however long a
    shared prefix runs, none is per token length, and no result rests on a
    hash.
    """
    words = np.ndarray((len(data) - 7,), ">u8", data, 0, (1,))
    key = _windows(words, start, length, 0, 1)[:, 0]
    order = key.argsort()
    key = key.take(order)
    heads = np.ones(start.size + 1, bool)
    np.not_equal(key[1:], key[:-1], out=heads[1:-1])
    act, at = np.arange(start.size), 7  # the sorted positions still read
    while True:
        act = act[~(heads[act] & heads[act + 1]) & (key & np.uint64(0xFF) == 7)]
        if not act.size:
            return order, heads
        tok = order.take(act)
        first, size = start.take(tok), length.take(tok)
        count = max(1, min(_PASS_WINDOWS // act.size, (int(size.max()) - at) // 7 + 1))
        keys = _windows(words, first, size, at, count)
        rows = np.empty((count + 1, act.size), np.uint64)  # lexsort's last row sorts first
        rows[:count] = keys.T[::-1]
        rows[count] = np.maximum.accumulate(np.where(heads[act], act, 0))  # each one's class
        sort = np.lexsort(rows)
        order[act] = tok.take(sort)
        keys = keys.take(sort, axis=0)
        heads[act[1:]] |= (keys[1:] != keys[:-1]).any(axis=1)
        key, at = keys[:, -1], at + 7 * count


def _first_repeat(data: bytes, start: np.ndarray, length: np.ndarray):
    """(first, again, token) for the earliest token ``again`` equal to an
    earlier one, ``first``; None when no two are equal."""
    order, heads = _sort_tokens(data, start, length)
    if heads.all():
        return None
    head = np.flatnonzero(heads[:-1])
    smallest = np.empty(start.size, np.int64)  # of each token's class
    smallest[order] = np.repeat(np.minimum.reduceat(order, head), np.diff(head, append=start.size))
    again = int(np.flatnonzero(smallest != np.arange(start.size))[0])
    return int(smallest[again]), again, _token_strs(data, start, length, [again])[0]


def _token_strs(data: bytes, start: np.ndarray, length: np.ndarray, which) -> list[str]:
    """The tokens at indices ``which``, in that order, decoded in one call."""
    start = start.take(which)
    ends = (start + length.take(which) + 1).tolist()  # each with the newline after it
    text = b"".join([data[lo:hi] for lo, hi in zip(start.tolist(), ends)]).decode("utf-8")
    return text.split("\n")[:-1]


@dataclass(eq=False)  # matrices have no single truth value; compare rows instead
class Corpus:
    """Reviews as the rows of one CSR matrix plus one label per row.

    ``matrix`` has shape (reviews, width) and rows with sorted column
    indices, no duplicates and no stored zeros.  Loaders fill it with token
    counts, a column per vocabulary index, at the narrowest of uint8,
    uint16, uint32 and int64 that holds the largest; ``encode_corpus`` gives
    a bool pattern (multi-hot) or narrow unsigned counts with the polarity
    table as ``ratings`` (polarity-weighted, value rating x count) on the
    same ``indices`` and ``indptr``.  Encoding and remapping consume it in
    place and delete it: the corpus keeps only its labels.
    """

    matrix: sparse.csr_matrix = field(repr=False)  # gone once consumed
    labels: np.ndarray  # int64, 0 or 1 per row
    ratings: np.ndarray | None = field(default=None, repr=False)  # shared, not copied

    def __len__(self) -> int:
        return len(self.labels)

    def __getattr__(self, name):  # reached for ``matrix`` only once it is deleted
        if name == "matrix":
            raise ValueError("corpus was consumed by encoding or remapping; copy it first")
        raise AttributeError(name)

    @property
    def width(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def label_counts(self) -> tuple[int, int]:
        """(negative, positive) totals."""
        pos = int(self.labels.sum())
        return len(self) - pos, pos

    def take(self, rows) -> "Corpus":
        """The reviews at ``rows`` (an index array or a slice), in that order."""
        return Corpus(self.matrix[rows], self.labels[rows], self.ratings)


# Loaders read a record file whole and scan it in blocks of whole lines of
# about this many bytes, so their per-byte work arrays stay small however
# long the file is.
_BLOCK_BYTES = 1 << 17

_SPACES = re.compile("[ \t\v\f]+")
_NUMBER = re.compile("[0-9]{1,18}")
_PAIR = re.compile("([0-9]{1,18}):([0-9]{1,18})")


def _blocks(data: bytes):
    """Yield (start, end) of each block of whole lines of ``data``, which ends in a newline."""
    lo = 0
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + _BLOCK_BYTES) + 1 or data.find(b"\n", lo + _BLOCK_BYTES) + 1
        yield lo, hi
        lo = hi


def _index_dtype(*bounds: int) -> type:
    """int32 when every bound (width, rows, stored entries) fits it, as scipy's CSR would pick."""
    return np.int32 if max(bounds) <= np.iinfo(np.int32).max else np.int64


# The dtypes loaded counts take, narrowest first.  Never uint64: the writer
# and ``_writable`` need a dtype int64 can hold, and counts stop at 10**18 - 1.
_COUNT_DTYPES = (np.uint8, np.uint16, np.uint32, np.int64)


def _count_dtype(largest: int) -> type:
    """The narrowest of ``_COUNT_DTYPES`` that holds counts up to ``largest``."""
    return next(d for d in _COUNT_DTYPES if largest <= np.iinfo(d).max)


def _load_records(path, work, explain, width: int, marks: bytes):
    """Read record file ``path`` whole, scan it in blocks of whole lines and
    return its records' heads and their ``width``-column CSR matrix.

    ``work(block)`` returns the block's first line that breaks the format
    (its line count if none), its line count, then its records' heads,
    indices, counts and sizes.  The arrays are sized once by the file's
    newlines and ``marks`` bytes (one precedes each value a valid block
    stores) and filled in file order; the first bad line raises the
    DataError ``explain`` names before its block is placed.  The counts
    start at uint8 and are copied to a wider ``_count_dtype`` only when a
    block holds a count the current one cannot, so each width is allocated
    at most once and the result is at the narrowest that holds them all.
    """
    data = read_bytes(path)
    if data and not data.endswith(b"\n"):
        data += b"\n"
    raw, spans = np.frombuffer(data, np.uint8), list(_blocks(data))

    def total(byte: int) -> int:
        return sum(np.count_nonzero(raw[lo:hi] == byte) for lo, hi in spans)

    n_lines, n_marks = total(ord("\n")), sum(map(total, marks))
    heads, counts = np.empty(n_lines, np.int64), np.empty(n_marks, np.uint8)
    indptr = np.zeros(n_lines + 1, _index_dtype(width, n_lines, n_marks))
    indices = np.empty(n_marks, indptr.dtype)
    line = cell = 0
    for lo, hi in spans:
        first_bad, n, head, idx, cnt, size = work(data[lo:hi])
        if first_bad < n:
            raise _record_error(path, data[lo:hi], line, first_bad, explain)
        heads[line : line + n] = head
        if (top := cnt.max(initial=0)) > np.iinfo(counts.dtype).max:
            counts = counts.astype(_count_dtype(top))
        indptr[line + 1 : line + n + 1] = cell + np.cumsum(size)
        indices[cell : cell + idx.size], counts[cell : cell + idx.size] = idx, cnt
        line, cell = line + n, cell + idx.size
    matrix = sparse.csr_matrix((counts[:cell], indices[:cell], indptr), shape=(n_lines, width))
    return heads, matrix


def _scan(block: bytes, tab_after_head: bool, pairs: bool):
    """The numbers of a block of whole lines, checked against the grammar.

    A record is a head number (label or rating), then whitespace-separated
    fields: ``index:count`` pairs with ``pairs``, otherwise single numbers.
    With ``tab_after_head`` the head starts the line and a tab follows it;
    otherwise the line may be indented and any whitespace follows the head.
    A number is a run of 1 to 18 ASCII digits; whitespace is space, tab,
    \\v, \\f and the \\r of a \\r\\n line end.

    Returns (values, first, n_lines, bad): each number's value; the index in
    ``values`` of the head of each line before ``bad``; the block's line
    count; and the first line that breaks the grammar (``n_lines`` if none),
    whose numbers and those of later lines are left out.
    """
    raw = np.frombuffer(block, np.uint8)
    digit = raw - np.uint8(48) < 10
    # a number is a run of digits; the edges alternate its first byte and the one after it
    edge = np.flatnonzero(np.diff(digit, prepend=False))
    start, end = edge[::2], edge[1::2]
    length = end - start
    newline = np.flatnonzero(raw == ord("\n"))
    if not start.size:
        return np.zeros(0, np.int64), start, newline.size, 0

    # Each number's separator, the bytes up to the next number or the end,
    # is coded by its first byte, plus _NL if it holds a line end.
    code = raw[end].astype(np.uint32)
    follows = np.searchsorted(end, newline, "right") - 1  # the number each line end follows
    code[follows] |= _NL  # -1 is the last number, whose separator holds the block's end
    head = np.append(0, follows + 1)  # each line's first number, once
    head = head[(np.diff(head, prepend=-1) > 0) & (head < start.size)]
    head_line = np.searchsorted(newline, start[head])
    bad = []
    # When every separator is one byte, the usual layout, the codes below
    # say all there is to check; otherwise the bytes are checked too.
    if raw.size - length.sum() > end.size:
        # every line has a number; with tab_after_head, one that starts it
        bad.append(np.flatnonzero(np.append(head_line, newline.size) != np.arange(head.size + 1))[:1])
        if tab_after_head:  # raw[-1], before a head at 0, is a newline
            bad.append(head_line[raw[start[head] - 1] != ord("\n")])
        # every byte between numbers is whitespace, a line end or a colon between two digits
        colon = raw == ord(":")
        other = ~(digit | colon | (raw - np.uint8(9) < 4) | (raw == ord(" ")))
        if other.any() or np.count_nonzero(colon[1:-1] & digit[:-2] & digit[2:]) < np.count_nonzero(colon):
            code[(code == ord(":")) & ~np.append(digit, False)[end + 1]] = 0  # not a lone colon
            cr = np.flatnonzero(raw == ord("\r"))
            stray = np.concatenate((
                np.flatnonzero(other & (raw != ord("\r"))),
                cr[raw[cr + 1] != ord("\n")],
                np.setdiff1d(np.flatnonzero(colon), end[code == ord(":")]),
            ))
            bad.append(np.searchsorted(newline, stray))
    # the code before each number and the code after it must be a pair the grammar allows
    pair = code.copy()
    pair[1:] |= code[:-1] << 9
    pair[0] |= (_NL | ord("\n")) << 9
    fits = _GRAMMARS[tab_after_head, pairs].take(pair) & (length <= 18)
    if not fits.all():
        bad.append(np.searchsorted(newline, start[~fits]))
    bad = _first_bad(newline.size, *bad)
    kept = head[bad] if bad < head.size else start.size
    return _values(block, end[:kept], length[:kept]), head[:bad], newline.size, bad


_NL = 1 << 8  # _scan's mark of a separator that holds a line end


def _grammar(*allowed: tuple[set, set]) -> np.ndarray:
    """A table over (code before a number) << 9 | (code after it) that is
    true for the ``allowed`` pairs of sets of ``_scan``'s separator codes."""
    ok = np.zeros(1 << 18, dtype=bool)
    for before, after in allowed:
        ok[[b << 9 | a for b in before for a in after]] = True
    return ok


_WS = set(b" \t\v\f")
_END = {_NL | b for b in b" \t\v\f\n\r"}  # whitespace up to a line end
_TAB = {ord("\t"), _NL | ord("\t")}  # a tab, maybe up to a line end
_COLON = {ord(":")}
_GRAMMARS = {  # a head follows a line end; an index, its colon; a count, whitespace
    (True, True): _grammar((_END, _TAB), (_WS, _COLON), (_COLON, _WS | _END)),  # canonical
    (False, True): _grammar((_END, _WS | _END), (_WS, _COLON), (_COLON, _WS | _END)),  # slmrd
    (True, False): _grammar((_END, _TAB), (_WS, _WS | _END)),  # kid
}


def _values(block: bytes, end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The value of each number of ``length`` (1 to 18) digits that ends
    before byte ``end`` of ``block``, 4 digits at a time.

    ``words[i]`` holds bytes i-4..i-1 of the block as a little-endian uint32,
    so ``words[end]`` ends on a number's last digit; numbers of more than 4
    digits, few in practice, add the words that end 4, 8, ... digits earlier.
    """
    words = np.ndarray((len(block) + 1,), "<u4", bytes(4) + block, 0, (1,))
    # take() copies the unaligned view once, then gathers faster than indexing can
    values = _four_digits(words.take(end), length)
    more, shift = np.flatnonzero(length > 4), 4
    while more.size:
        values[more] += 10**shift * _four_digits(words[end[more] - shift], length[more] - shift)
        shift += 4
        more = more[length[more] > shift]
    return values


# _four_digits' mask by digit count: the low nibbles of the word's last bytes
_DIGIT_MASK = np.array([0, 0x0F000000, 0x0F0F0000, 0x0F0F0F00] + [0x0F0F0F0F] * 15, np.uint32)


def _four_digits(word: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The value, as int64, of the last ``count`` bytes (1 to 4, or all 4
    when more) of each little-endian uint32 ``word``, which are ASCII digits."""
    u = np.uint32
    word = word & _DIGIT_MASK.take(count)
    # a multiply adds ten times each digit into the next byte up, then a
    # hundred times each pair into the next pair up; the shifts keep those
    word = ((word * u(1 + (10 << 8))) >> u(8)) & u(0x00FF00FF)
    return ((word * u(1 + (100 << 16))) >> u(16)).astype(np.int64)


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


def _pairs_block(block: bytes, bound: int, tab_after_head: bool, bad_head):
    """``_load_records``' work for a block of ``head index:count ...``
    records: their heads, their pairs sorted by index within each record,
    and the number of pairs per record.  ``bad_head`` flags invalid heads."""
    values, first, n_lines, bad = _scan(block, tab_after_head, pairs=True)
    head, pairs = values[first], np.delete(values, first)
    idx, cnt = pairs[::2], pairs[1::2]  # a good record alternates them
    sizes = np.diff(first, append=values.size) // 2
    row = np.repeat(np.arange(sizes.size), sizes)
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
    return bad, n_lines, head, idx, cnt, sizes


def _lines(path: str | Path) -> list[str]:
    """The lines of text file ``path``, without their line ends."""
    text = read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def load_slmrd_vocab(path: str | Path) -> Vocabulary:
    """Load a one-token-per-line vocabulary file (line number = index, 0-based).

    This is both the Stanford ``imdb.vocab`` layout and the canonical
    vocabulary format written by ``prepare``.  Lines end in ``\\n``,
    ``\\r\\n`` or a lone ``\\r``; a token is the rest of its line.  The text
    read becomes the vocabulary's ``text`` as it is: no token is split out
    of it unless it repeats.
    """
    text = read_text(path)
    if not text:
        raise DataError(f"{path}: empty vocabulary file")
    text = text.removesuffix("\n")
    size = text.count("\n") + 1
    repeat = _first_repeat(*_token_bytes(text, size))
    if repeat:
        first, again, token = repeat
        raise DataError(f"{path}: duplicate token {token!r} at lines {first + 1} and {again + 1}")
    return Vocabulary._of_text(text, size)


def load_polarity(path: str | Path, vocab: Vocabulary) -> np.ndarray:
    """The float64 ratings of a one-rating-per-line file, aligned with ``vocab``.

    A rating is any text ``float()`` accepts, whitespace around it included,
    and must be finite.
    """
    lines = _lines(path)
    try:
        ratings = np.fromiter(map(float, lines), np.float64, count=len(lines))
    except ValueError:
        raise _rating_error(path, lines) from None
    if not np.isfinite(ratings).all():
        raise _rating_error(path, lines)
    if ratings.size != vocab.size:
        raise DataError(
            f"{path}: {ratings.size} ratings for a vocabulary of {vocab.size} tokens"
        )
    return ratings


def _rating_error(path: str | Path, lines: list[str]) -> DataError:
    """The DataError for the first of ``lines`` that is not a finite rating."""
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        try:
            value = float(text)
        except ValueError:
            return DataError(f"{path}: line {lineno}: cannot parse rating {text!r}")
        if not np.isfinite(value):
            return DataError(f"{path}: line {lineno}: non-finite rating {text!r}")


def load_slmrd_bow(path: str | Path, vocab: Vocabulary) -> Corpus:
    """Load a ``labeledBow.feat`` file: each line ``rating idx:count ...``.

    Ratings >= 7 become positive labels, <= 4 negative; 5 and 6 do not occur
    in the dataset by construction and are rejected loudly.
    """
    ratings, matrix = _load_records(path, partial(
        _pairs_block, bound=vocab.size, tab_after_head=False,
        bad_head=lambda r: (r > 10) | (r == 5) | (r == 6),
    ), lambda text: _slmrd_error(text, vocab.size), vocab.size, b":")
    return Corpus(matrix, (ratings >= 7).astype(np.int64))


def load_kid(
    word_index_path: str | Path,
    sequences_path: str | Path,
    index_offset: int = 3,
) -> tuple[Vocabulary, Corpus]:
    """Load the integer-sequence distribution.

    The word-index file is a JSON object mapping token -> positive rank; the
    vocabulary index of a token is its position in rank order.  The sequence
    file holds one review per line as ``label<TAB>v1 v2 ...``; each stored
    value v maps to token index ``v - index_offset``; values below the offset
    are reserved control codes that are dropped.  The matrix holds views into
    arrays sized by the file's value count (scipy copies them if half empty).
    """
    tokens = _word_index_tokens(word_index_path)
    try:
        vocab = Vocabulary(tokens)
    except DataError as exc:  # a token with a line break, a lone surrogate, or a repeat
        raise DataError(f"{word_index_path}: {exc}") from None

    labels, matrix = _load_records(
        sequences_path,
        partial(_kid_block, size=vocab.size, offset=index_offset),
        lambda text: _kid_error(text, vocab.size, index_offset),
        vocab.size, b" \t\v\f",
    )
    return vocab, Corpus(matrix, labels)


def _kid_block(block: bytes, size: int, offset: int):
    """``_load_records``' work for a block of ``load_kid``'s records: per
    record, its distinct token indices and how often each occurs."""
    values, first, n_lines, bad = _scan(block, True, pairs=False)
    # past +-10**18 an offset drops or rejects every value (18 digits at most)
    label, rank = values[first], np.delete(values, first) - min(max(offset, -10**18), 10**18)
    row = np.repeat(np.arange(first.size), np.diff(first, append=values.size) - 1)
    bad = _first_bad(bad, np.flatnonzero(label > 1), row[rank >= size])
    keep = (rank >= 0) & (rank < size)  # lower: control codes; higher: a bad line
    key, count = np.unique(row[keep] * size + rank[keep], return_counts=True)
    row = key // size
    return bad, n_lines, label, key - row * size, count, np.bincount(row, minlength=n_lines)


def _word_index_tokens(path: str | Path) -> list[str]:
    """The tokens of a JSON token->rank object in rank order, checked."""
    try:
        word_index = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(word_index, dict) or not word_index:
        raise DataError(f"{path}: expected a non-empty token->rank object")
    tokens = list(word_index)
    if set(map(type, word_index.values())) == {int}:
        try:
            ranks = np.fromiter(word_index.values(), np.int64, len(tokens))
        except OverflowError:  # a rank beyond int64: the walk below sorts it
            ranks = None
        if ranks is not None:
            order = np.argsort(ranks)  # any sort: the order is kept only if ranks are distinct
            ranks = ranks[order]
            if ranks[0] >= 1 and (ranks[1:] != ranks[:-1]).all():
                return np.array(tokens, dtype=object).take(order).tolist()
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
        ranks_seen[rank] = tok
    return [tok for tok, _ in sorted(word_index.items(), key=lambda kv: kv[1])]


def shuffle(corpus: Corpus, seed: int) -> Corpus:
    """Deterministically permute the reviews; same seed, same order."""
    return corpus.take(derive_rng(seed).permutation(len(corpus)))


# save_corpus_file lays out blocks of rows of about this many stored pairs
# (each row counts as one more), so its work arrays stay small.
_WRITE_PAIRS = 1 << 15

# the tens and the ones character of each two-digit value 00 .. 99
_TENS_CHAR = np.arange(100, dtype=np.uint8) // 10 + ord("0")
_ONES_CHAR = np.arange(100, dtype=np.uint8) % 10 + ord("0")


def save_corpus_file(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical format: one ``label<TAB>idx:count ...`` record per line.

    Pairs are written in their stored order.  A label other than 0 or 1, an
    index or count that is negative or has more than 18 digits, a count of
    0, or a dtype that is not an integer raises ``ValueError`` before the
    file is touched, since the loaders could not read it back.
    """
    m = corpus.matrix
    labels = _writable(corpus.labels, "label", path, high=1)
    indices = _writable(m.indices, "index", path)
    counts = _writable(m.data, "count", path, low=1)
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


def _writable(values: np.ndarray, name: str, path, low: int = 0, high: int = 10**18 - 1):
    """``values``, or the ValueError for a dtype that is not an integer
    int64 can hold (bool, such as an encoded multi-hot pattern, is not) or a
    value outside [``low``, ``high``] (18 digits at most by default)."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.int64):
        names = "indices" if name == "index" else name + "s"
        raise ValueError(f"{path}: cannot write {names} of dtype {values.dtype}")
    least, most = (int(values.min()), int(values.max())) if values.size else (low, high)
    if least < low or most > high:
        bad = least if least < low else most
        sign = "negative " if bad < 0 else ""
        raise ValueError(f"{path}: cannot write {sign}{name} {bad} outside [{low}, {high}]")
    return values


def _record_bytes(labels, indptr, indices, counts) -> np.ndarray:
    """The canonical lines of some rows as bytes (``indptr`` starts at 0).

    A row is its label, a tab, then each pair as ``index:count`` and one
    byte after it: a space, or the newline after the row's last pair.  An
    empty row is its label, a tab and the newline.  The values (1 to 18
    digits) are written two digits per pass, last first, into a buffer with
    one spare byte in front: the inverse of ``_values``.
    """
    values = np.concatenate((labels, indices, counts), dtype=np.int64)
    digits = np.ones(values.size, np.uint8)
    for k in range(1, len(str(values.max(initial=0)))):
        digits += values >= 10**k
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
    # an odd-length number's last pass puts a '0' on the byte before it: the
    # separator, written after the digits, or the block's spare byte out[0]
    out = np.empty(row_end[-1] + 1, dtype=np.uint8)
    end = np.concatenate((label_end, index_end, count_end))  # each last digit, in out
    while values.size:
        high = values // 100
        pair = values - 100 * high
        out[end] = _ONES_CHAR.take(pair)
        out[end - 1] = _TENS_CHAR.take(pair)
        more = high > 0
        values, end = high[more], end[more] - 2
    text = out[1:]
    text[label_end] = ord("\t")
    text[index_end] = ord(":")
    text[count_end] = ord(" ")
    text[row_end - 1] = ord("\n")
    return text


def load_corpus_file(path: str | Path, *, width: int, vocab_id=None, split=None) -> Corpus:
    """Read the canonical format back as a matrix ``width`` columns wide.

    Pairs within a record may come in any order and are sorted by token
    index; a repeated index, a count below 1, an index outside ``width``, a
    label other than 0/1 or a line outside the grammar raises a
    ``DataError`` naming the line.
    """
    # vocab_id and split are accepted and ignored: the benchmark worker still passes them
    labels, matrix = _load_records(
        path,
        partial(_pairs_block, bound=width, tab_after_head=True, bad_head=lambda label: label > 1),
        lambda text: _canonical_error(text, width),
        width, b":",
    )
    return Corpus(matrix, labels)
