"""Synthetic corpora with a planted sentiment signal.

Each token carries a fixed rating; a review's label is the sign of its
summed rating*count score, resampled away from zero so the task is cleanly
learnable.  The raw writers mirror both real on-disk layouts at toy scale.
"""

import json
import struct
from pathlib import Path

import numpy as np
from scipy import sparse

from bowtie.corpus import Corpus
from bowtie.train import CHECKPOINT_MAGIC


def corpus_from_rows(rows, labels, width):
    """A Corpus from per-review lists of (token index, count) pairs, each
    list already sorted by index with no repeats and counts >= 1."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    pairs = [pair for row in rows for pair in row]
    indices = np.array([i for i, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    matrix = sparse.csr_matrix((counts, indices, indptr), shape=(len(rows), width))
    return Corpus(matrix, np.array(labels, dtype=np.int64))


def copy_of(corpus):
    """An independent copy of ``corpus``, for a test that reads it again after
    encoding or remapping has consumed the original."""
    return Corpus(corpus.matrix.copy(), corpus.labels.copy(), corpus.ratings)


def values_of(corpus):
    """``corpus.matrix`` with the values its entries stand for: a
    polarity-weighted corpus's float64 rating x count, the stored data otherwise."""
    m = corpus.matrix
    if corpus.ratings is None:
        return m
    return sparse.csr_matrix((corpus.ratings[m.indices] * m.data, m.indices, m.indptr), shape=m.shape)


def rows_of(matrix):
    """Per-row lists of (column, value) pairs of a CSR matrix, as Python numbers."""
    ptr = matrix.indptr
    return [
        list(zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist()))
        for a, b in zip(ptr[:-1], ptr[1:])
    ]


# Tokens that the package tells apart by their UTF-8 bytes, 7 at a time:
# longer than 8 and 16 bytes and sharing their first 8 or 16, the empty token
# against NUL and "a" against "a\0", 2-, 3- and 4-byte characters, and "\xff",
# whose UTF-8 bytes are c3 bf.  ``odd_token`` pastes two together;
# ``odd_vocabularies`` are the two shapes that make the most passes.
ODD_TOKENS = [
    "", "\x00", "a", "a\x00", "\xff", "caf\xe9", "\u3000", "\U0001f600", "\U0010ffff",
    "12345678", "123456789", "1234567890123456", "12345678901234567", "\x00" * 9,
]


def odd_token(rng):
    return "".join(ODD_TOKENS[int(i)] for i in rng.integers(len(ODD_TOKENS), size=2))


def odd_vocabularies():
    """Token lists that tie for many bytes: every length from 1 to 3 000
    bytes of one letter, and 1 000 tokens of 10 000 bytes that share their
    first 9 992."""
    return {
        "every-length": ["x" * n for n in range(1, 3001)],
        "long-prefix": ["y" * 9992 + f"{i:08d}" for i in range(1000)],
    }


def token_list(n, prefix="tok"):
    pad = len(str(max(n - 1, 1)))
    return [f"{prefix}{i:0{pad}d}" for i in range(n)]


def rating_table(seed, n, scale=1.5):
    return np.random.default_rng(seed).normal(0.0, scale, n)


def planted_bag(rng, ratings, max_distinct=8, max_count=3, margin=0.5):
    width = len(ratings)
    limit = min(max_distinct, width)
    while True:
        k = int(rng.integers(1, limit + 1))
        indices = np.sort(rng.choice(width, size=k, replace=False)).astype(np.int64)
        counts = rng.integers(1, max_count + 1, size=k).astype(np.int64)
        score = float(np.dot(ratings[indices], counts))
        if abs(score) >= margin:
            return list(zip(indices.tolist(), counts.tolist())), int(score > 0.0)


def planted_corpus(seed, size, ratings, **kw):
    rng = np.random.default_rng(seed)
    rows, labels = zip(*[planted_bag(rng, ratings, **kw) for _ in range(size)])
    return corpus_from_rows(rows, labels, len(ratings))


def write_slmrd_tree(root, tokens, ratings, train_corpus, test_corpus, seed=0):
    """Lay out imdb.vocab, imdbEr.txt, and the two labeledBow.feat files."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    (root / "train").mkdir(parents=True, exist_ok=True)
    (root / "test").mkdir(parents=True, exist_ok=True)
    (root / "imdb.vocab").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    with open(root / "imdbEr.txt", "w", encoding="utf-8", newline="\n") as fh:
        for rating in ratings:
            fh.write(f"{float(rating)!r}\n")
    for split, corpus in (("train", train_corpus), ("test", test_corpus)):
        with open(root / split / "labeledBow.feat", "w", encoding="utf-8", newline="\n") as fh:
            for row, label in zip(rows_of(corpus.matrix), corpus.labels):
                stars = int(rng.integers(7, 11)) if label else int(rng.integers(1, 5))
                pairs = " ".join(f"{i}:{c}" for i, c in row)
                fh.write(f"{stars} {pairs}\n")
    return root


def write_kid_tree(root, tokens, corpus, offset=3):
    """Lay out a word-index JSON (1-based ranks) and a label<TAB>values file."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    word_index = {tok: i + 1 for i, tok in enumerate(tokens)}
    (root / "word_index.json").write_text(json.dumps(word_index), encoding="utf-8")
    with open(root / "sequences.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for row, label in zip(rows_of(corpus.matrix), corpus.labels):
            values = [1]  # leading start-of-review control code
            for idx, count in row:
                values.extend([idx + offset] * count)
            fh.write(f"{label}\t{' '.join(str(v) for v in values)}\n")
    return root


def edit_checkpoint_manifest(path, edit):
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its manifest."""
    raw = Path(path).read_bytes()
    start = len(CHECKPOINT_MAGIC) + 4 + 8
    (length,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC) + 4)
    manifest = json.loads(raw[start : start + length])
    edit(manifest)
    text = json.dumps(manifest, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(
        raw[: len(CHECKPOINT_MAGIC) + 4] + struct.pack("<Q", len(text)) + text
        + raw[start + length :]
    )
