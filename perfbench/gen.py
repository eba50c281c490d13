"""Seeded generator for the benchmark's inputs.

Everything the program reads is built here from one integer seed: a
frequency-ranked vocabulary with Zipf-like token frequencies, per-token
polarity ratings (some exactly 0) that plant the sentiment signal, labeled
bag-of-words splits, and a second integer-sequence corpus whose vocabulary
shares a planted subset of tokens by exact string with the first.  The same
seed gives the same bytes.

Files are rendered with vectorized numpy so that generation stays a small
share of a run; generation time is never part of a metric.  Besides the
program's inputs the generator writes ``expect.json``: the sha256 of the
canonical files ``bowtie prepare`` must produce, the planted transfer counts,
and the accuracy an independent numpy oracle predicts for the fixed
transfer checkpoint.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import string
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 4
LANGUAGE_SEED = 20190430

ZIPF_EXPONENT = 1.2  # with ~212 tokens per review this leaves ~132 distinct
ZIPF_OFFSET = 2.7
ZERO_RATING_SHARE = 0.08
LABEL_NOISE = 0.10
KID_INDEX_OFFSET = 3  # the CLI default --index-offset
CHECKPOINT_SCALE = 0.05
STOPWORD_RANKS = 100.0
RARE_RANKS = 2_000.0


@dataclass(frozen=True)
class Shape:
    vocab: int
    kid_vocab: int
    shared: int       # kid tokens equal to an slmrd token by exact string
    near_miss: int    # kid tokens differing from an slmrd token by case or apostrophe
    train: int        # training workloads' splits
    test: int
    ingest_split: int  # reviews per raw slmrd split in ingest-transfer
    kid_reviews: int
    tokens_per_review: int
    accuracy_floor: float  # the lowest validation accuracy a training pass may reach


SHAPES = {
    # The paper's scenario-3/4 shapes.  The ingest corpora hold a quarter of
    # the paper's reviews (the vocabularies are full size) so that each of a
    # run's three worker processes can make one pass of the three commands.
    "paper": Shape(
        vocab=89_527, kid_vocab=88_584, shared=70_000, near_miss=6_000,
        train=25_000, test=25_000, ingest_split=6_250, kid_reviews=6_250,
        tokens_per_review=212, accuracy_floor=0.6,
    ),
    # Seconds-long version of the same pipeline for self-tests; too small to
    # learn from in one epoch, so it sets no accuracy floor.
    "tiny": Shape(
        vocab=3_000, kid_vocab=2_800, shared=2_000, near_miss=300,
        train=1_024, test=600, ingest_split=600, kid_reviews=500,
        tokens_per_review=60, accuracy_floor=0.0,
    ),
}


@dataclass
class Bags:
    """Rows of sorted (index, count) pairs in CSR layout."""

    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def row_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.rows), np.diff(self.indptr))


# ---------------------------------------------------------------- rendering

def _digits_to_bytes(nums: np.ndarray, seps: np.ndarray) -> bytes:
    """Decimal text of non-negative ``nums``, each followed by up to two
    separator bytes from ``seps`` (0 means no byte)."""
    top = int(nums.max()) if nums.size else 0
    width = len(str(top))
    table = np.arange(top + 1, dtype=np.int64)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    glyphs = ((table // powers) % 10 + 48).astype(np.uint8)
    glyphs[(table < powers)[:, :-1].nonzero()] = 0  # no leading zeros; 0 prints as "0"
    cells = np.concatenate([glyphs[nums], seps], axis=1)
    return cells.tobytes().translate(None, b"\0")


def render_rows(head, head_sep: str, indptr, cols, inner: str = ":") -> bytes:
    """One text line per row: ``head<head_sep>item item ...\\n`` where an
    item is its column values joined by ``inner``."""
    head = np.asarray(head, dtype=np.int64)
    rows = len(head)
    lengths = np.diff(indptr)
    nnz = int(indptr[-1])
    m = len(cols)
    total = rows + nnz * m
    nums = np.empty(total, dtype=np.int64)
    seps = np.zeros((total, 2), dtype=np.uint8)
    hpos = indptr[:-1] * m + np.arange(rows)
    nums[hpos] = head
    seps[hpos, 0] = ord(head_sep)
    seps[hpos[lengths == 0], 1] = ord("\n")
    base = np.arange(nnz) * m + np.repeat(np.arange(rows), lengths) + 1
    for c, col in enumerate(cols):
        nums[base + c] = col
        seps[base + c, 0] = ord(inner) if c < m - 1 else ord(" ")
    last = indptr[1:][lengths > 0] - 1
    seps[base[last] + m - 1, 0] = ord("\n")
    return _digits_to_bytes(nums, seps)


def canonical_corpus(labels, bags: Bags) -> bytes:
    """The canonical ``label<TAB>idx:count ...`` rendering."""
    return render_rows(labels, "\t", bags.indptr, [bags.indices, bags.counts])


def token_lines(tokens) -> bytes:
    return ("\n".join(tokens) + "\n").encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- sampling

def _letters(n: int) -> list[str]:
    """The first ``n`` words over a-z in shortlex order: a .. z, aa, ab, ..."""
    words: list[str] = []
    size = 1
    while len(words) < n:
        words.extend("".join(p) for p in itertools.product(string.ascii_lowercase, repeat=size))
        size += 1
    return words[:n]


def slmrd_tokens(n: int) -> list[str]:
    """Distinct lowercase tokens; every 20th carries an apostrophe."""
    return [w + "'s" if i % 20 == 7 else w for i, w in enumerate(_letters(n))]


def zipf_ranks(rng, size: int, n: int) -> np.ndarray:
    """Ranks in [0, n) with P(k) roughly proportional to (k + ZIPF_OFFSET)^-ZIPF_EXPONENT,
    drawn by inverting the continuous law's CDF."""
    e = 1.0 - ZIPF_EXPONENT
    lo = ZIPF_OFFSET**e
    hi = (n + ZIPF_OFFSET) ** e
    ranks = (lo + rng.random(size) * (hi - lo)) ** (1.0 / e) - ZIPF_OFFSET
    return np.clip(ranks.astype(np.int64), 0, n - 1)


def sample_reviews(rng, rows: int, width: int, mean_tokens: int):
    """Token sequences drawn from a Zipf law over frequency rank: returns the
    sequences' row pointer and tokens, and the same reviews folded into bags."""
    lengths = rng.integers(mean_tokens // 2, mean_tokens * 3 // 2 + 1, size=rows)
    seq_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=seq_ptr[1:])
    draws = zipf_ranks(rng, int(seq_ptr[-1]), width)
    keys, counts = np.unique(
        np.repeat(np.arange(rows, dtype=np.int64), lengths) * width + draws,
        return_counts=True,
    )
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=rows), out=indptr[1:])
    return seq_ptr, draws, Bags(indptr, keys % width, counts.astype(np.int64))


def plant_labels(rng, bags: Bags, ratings: np.ndarray) -> np.ndarray:
    """Whether the summed rating*count score exceeds its median, so the classes
    balance, with LABEL_NOISE of the labels flipped."""
    score = np.bincount(
        bags.row_of, weights=ratings[bags.indices] * bags.counts, minlength=bags.rows
    )
    labels = (score > np.median(score)).astype(np.int64)
    flip = rng.random(bags.rows) < LABEL_NOISE
    return np.where(flip, 1 - labels, labels)


def make_ratings(n: int) -> np.ndarray:
    """Per-token ratings at 5 decimals (the raw file's precision), some exactly 0.

    The ratings are the same for every seed, like one language that every
    seed's reviews are written in, so accuracy varies little between seeds.
    The most frequent tokens rate near 0, like stop words, so no handful of
    tokens decides every label; the rarest tokens rate near 0 too, so the
    signal sits in tokens that occur often enough to be learned.
    """
    rng = np.random.default_rng(LANGUAGE_SEED)
    rank = np.arange(n) + 1.0
    damp = (1.0 - np.exp(-rank / STOPWORD_RANKS)) * np.exp(-rank / RARE_RANKS)
    ratings = np.round(rng.normal(0.0, 1.0, n) * damp, 5)
    ratings[rng.random(n) < ZERO_RATING_SHARE] = 0.0
    return ratings + 0.0  # no negative zeros


# ---------------------------------------------------------------- vocabularies

def kid_vocabulary(shape: Shape, tokens: list[str], ratings: np.ndarray):
    """The kid-layout vocabulary in rank order, the slmrd index of each kid
    token (-1 where none matches exactly), and each kid token's hidden rating.
    Like the ratings, it is the same for every seed."""
    rng = np.random.default_rng([LANGUAGE_SEED, 1])
    n_head = min(shape.shared // 7, shape.vocab)
    rest = rng.choice(np.arange(n_head, shape.vocab), shape.shared - n_head, replace=False)
    shared = np.concatenate([np.arange(n_head), np.sort(rest)])
    near_src = np.sort(rng.choice(shape.vocab, shape.near_miss, replace=False))
    near = []
    for i in near_src.tolist():
        tok = tokens[i]
        # a curly apostrophe or a capital letter never matches exactly
        near.append(tok.replace("'", "’") if "'" in tok else tok.capitalize())
    n_only = shape.kid_vocab - shape.shared - shape.near_miss
    only = [f"{w}{j % 10}" for j, w in enumerate(_letters(n_only))]

    kid_tokens = [tokens[i] for i in shared.tolist()] + near + only
    source = np.concatenate([shared, near_src, np.full(n_only, -1)])
    exact = np.concatenate([shared, np.full(shape.near_miss + n_only, -1)])
    hidden = np.concatenate(
        [ratings[shared], ratings[near_src], np.round(rng.normal(0.0, 1.0, n_only), 5)]
    )
    # kid rank follows slmrd frequency rank, loosely; kid-only tokens are rare
    key = np.where(source >= 0, source, shape.vocab) * rng.lognormal(0.0, 0.5, len(source))
    order = np.argsort(key, kind="stable")
    return [kid_tokens[i] for i in order.tolist()], exact[order], hidden[order]


# ---------------------------------------------------------------- checkpoint

def checkpoint_bytes(vocab_size: int, vocab_sha: str) -> tuple[bytes, np.ndarray]:
    """A checkpoint-v1 file for a 16,8,1 polarity-weighted model whose logit
    is CHECKPOINT_SCALE times the summed encoded values; the same bytes for
    every seed.  Returns the file bytes and the first-layer column that
    carries the logit."""
    rng = np.random.default_rng([LANGUAGE_SEED, 2])
    w1 = rng.normal(0.0, 0.01, (vocab_size, 16))
    w1[:, 0] = CHECKPOINT_SCALE
    w2 = np.zeros((16, 8))
    w2[0, 0] = 1.0
    w3 = np.zeros((8, 1))
    w3[0, 0] = 1.0
    weights = [w1, w2, w3]
    biases = [np.zeros(16), np.zeros(8), np.zeros(1)]
    manifest = {
        "config": {
            "input_width": vocab_size, "hidden_widths": [16, 8, 1],
            "activation": "none", "dropout_rate": 0.2, "l2_weight": 0.019,
            "discriminator": 0.5, "init_seed": 0,
        },
        "weights_shapes": [list(w.shape) for w in weights],
        "biases_shapes": [list(b.shape) for b in biases],
        "vocab": {"size": vocab_size, "sha256": vocab_sha},
        "encoding": "polarity-weighted",
        "provenance": {"source": "perfbench generator"},
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    params = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in weights + biases)
    head = b"BOWTIECK" + struct.pack("<I", 1) + struct.pack("<Q", len(blob))
    return head + blob + params, w1[:, 0].copy()


# ---------------------------------------------------------------- workloads

def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _polarity_text(ratings: np.ndarray, fmt=repr) -> bytes:
    return "".join(fmt(float(r)) + "\n" for r in ratings).encode("utf-8")


def generate_canonical(out: Path, shape: Shape, seed: int) -> dict:
    """Prepared slmrd files (vocab.txt, polarity.txt, train/test.corpus)
    for the training workloads."""
    rng = np.random.default_rng([seed, 1])
    tokens = slmrd_tokens(shape.vocab)
    ratings = make_ratings(shape.vocab)
    _write(out / "vocab.txt", token_lines(tokens))
    _write(out / "polarity.txt", _polarity_text(ratings))
    info = {"vocab": shape.vocab, "accuracy_floor": shape.accuracy_floor}
    for split, rows in (("train", shape.train), ("test", shape.test)):
        _, _, bags = sample_reviews(rng, rows, shape.vocab, shape.tokens_per_review)
        labels = plant_labels(rng, bags, ratings)
        _write(out / f"{split}.corpus", canonical_corpus(labels, bags))
        encoded = int(np.count_nonzero(ratings[bags.indices]))
        info[split] = {
            "reviews": rows, "positive": int(labels.sum()),
            "nnz": int(bags.indptr[-1]), "nnz_polarity": encoded,
        }
    return info


def generate_raw(out: Path, shape: Shape, seed: int) -> dict:
    """Raw slmrd and kid trees plus the fixed transfer checkpoint."""
    rng = np.random.default_rng([seed, 2])
    tokens = slmrd_tokens(shape.vocab)
    ratings = make_ratings(shape.vocab)
    slmrd = out / "raw" / "slmrd"
    _write(slmrd / "imdb.vocab", token_lines(tokens))
    _write(slmrd / "imdbEr.txt", _polarity_text(ratings, "{:.5f}".format))
    expect = {
        "slmrd/vocab.txt": sha256(token_lines(tokens)),
        "slmrd/polarity.txt": sha256(_polarity_text(ratings)),
    }
    reviews = 0
    for split in ("train", "test"):
        rows = shape.ingest_split
        _, _, bags = sample_reviews(rng, rows, shape.vocab, shape.tokens_per_review)
        labels = plant_labels(rng, bags, ratings)
        stars = np.where(labels == 1, rng.integers(7, 11, rows), rng.integers(0, 5, rows))
        _write(slmrd / split / "labeledBow.feat",
               render_rows(stars, " ", bags.indptr, [bags.indices, bags.counts]))
        expect[f"slmrd/{split}.corpus"] = sha256(canonical_corpus(labels, bags))
        reviews += rows

    kid_tokens, exact, hidden = kid_vocabulary(shape, tokens, ratings)
    seq_ptr, seq, kid_bags = sample_reviews(
        rng, shape.kid_reviews, shape.kid_vocab, shape.tokens_per_review
    )
    kid_labels = plant_labels(rng, kid_bags, hidden)
    kid = out / "raw" / "kid"
    ranks = {kid_tokens[i]: i + 1 for i in rng.permutation(len(kid_tokens)).tolist()}
    _write(kid / "word_index.json", json.dumps(ranks).encode("utf-8"))
    # each review: a start code 1, then its tokens in drawn order
    seq_ptr_out = seq_ptr + np.arange(len(seq_ptr))
    starts = seq_ptr_out[:-1]
    body = np.ones(int(seq_ptr_out[-1]), dtype=bool)
    body[starts] = False
    values = np.empty(len(body), dtype=np.int64)
    values[starts] = 1
    values[body] = seq + KID_INDEX_OFFSET
    _write(kid / "sequences.tsv", render_rows(kid_labels, "\t", seq_ptr_out, [values]))
    expect["kid/vocab.txt"] = sha256(token_lines(kid_tokens))
    expect["kid/full.corpus"] = sha256(canonical_corpus(kid_labels, kid_bags))

    vocab_sha = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    ckpt, logit_col = checkpoint_bytes(shape.vocab, vocab_sha)
    _write(out / "raw" / "model.ckpt", ckpt)

    # oracle: remap by exact string, weight by target rating * count, score
    target = exact[kid_bags.indices]
    mapped = target >= 0
    x = ratings[target[mapped]] * kid_bags.counts[mapped]
    logit = np.bincount(kid_bags.row_of[mapped], weights=x * logit_col[target[mapped]],
                        minlength=kid_bags.rows)
    oracle_accuracy = float(np.mean((logit >= 0.0) == (kid_labels == 1)))
    return {
        "vocab": shape.vocab,
        "kid_vocab": shape.kid_vocab,
        "prepare_reviews": reviews + shape.kid_reviews,
        "kid_reviews": shape.kid_reviews,
        "mapped": shape.shared,
        "dropped": shape.kid_vocab - shape.shared,
        "oracle_accuracy": oracle_accuracy,
        "kid_nnz": int(kid_bags.indptr[-1]),
        "sha256": expect,
    }


def generate(out: Path, kind: str, shape_name: str, seed: int) -> dict:
    """Write one workload family's inputs under ``out``; returns expect.json's body."""
    shape = SHAPES[shape_name]
    out.mkdir(parents=True, exist_ok=True)
    if kind == "canonical":
        body = generate_canonical(out, shape, seed)
    elif kind == "raw":
        body = generate_raw(out, shape, seed)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    body.update({"generator": GENERATOR_VERSION, "shape": shape_name, "seed": seed})
    (out / "expect.json").write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return body
