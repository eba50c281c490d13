"""Cross-dataset vocabulary transfer.

Maps one vocabulary onto another by exact token string (no case folding, no
apostrophe canonicalization), rewrites a corpus's count matrix into the
target index space, and evaluates a checkpoint trained on the target
vocabulary against the re-encoded corpus.  Tokens without a counterpart are
dropped per token, so a review can come out empty but is still scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np
from scipy import sparse

from .corpus import Corpus, Vocabulary, _index_dtype
from .encode import _CHUNK, PolarityStats, encode_corpus, polarity_stats
from .fileio import replacing
from .train import Checkpoint, EvalResult, check_fingerprint, evaluate


@dataclass
class VocabMap:
    """source index -> target index, -1 where the token has no counterpart."""

    mapping: np.ndarray = field(repr=False)  # int64, length source_size
    dropped: list[str]                       # sorted source tokens with no target
    source_size: int
    target_size: int

    @property
    def mapped_count(self) -> int:
        return self.source_size - len(self.dropped)


def build_vocab_map(source: Vocabulary, target: Vocabulary) -> VocabMap:
    # built per call, never cached on the vocabulary, so it does not outlive the map
    index_of = dict(zip(target.tokens, range(target.size)))
    mapping = np.fromiter(map(index_of.get, source.tokens, repeat(-1)), np.int64, source.size)
    return VocabMap(
        mapping=mapping,
        dropped=sorted(compress(source.tokens, (mapping < 0).tolist())),
        source_size=source.size,
        target_size=target.size,
    )


def remap_corpus(corpus: Corpus, vmap: VocabMap) -> Corpus:
    """Rewrite every review into the target index space.

    ``vmap`` must send no two source indices to one target, as every map
    ``build_vocab_map`` makes does (a ``Vocabulary`` holds no duplicate
    token), so each count keeps its loaded dtype and each row is only
    re-sorted.  Unmapped tokens vanish, and a review can come out empty.
    The result reuses the corpus's arrays, so the corpus is consumed; copy
    it first to keep it.
    """
    counts = corpus.matrix
    del corpus.matrix
    dtype = _index_dtype(vmap.target_size, len(corpus), counts.nnz)
    indices, data = counts.indices.astype(dtype, copy=False), counts.data
    mapping = vmap.mapping.astype(dtype)
    for lo in range(0, len(indices), _CHUNK):
        part = indices[lo:lo + _CHUNK]
        mapping.take(part, out=part)
        unmapped = part < 0
        data[lo:lo + _CHUNK][unmapped] = 0  # eliminate_zeros drops the entry
        part[unmapped] = 0
    out = sparse.csr_matrix((data, indices, counts.indptr), shape=(len(corpus), vmap.target_size))
    out.eliminate_zeros()
    out.sort_indices()
    return Corpus(out, corpus.labels)


@dataclass
class TransferReport:
    source_vocab_size: int
    target_vocab_size: int
    mapped_count: int
    dropped: list[str]
    stats: PolarityStats
    result: EvalResult


def transfer_evaluate(
    checkpoint: Checkpoint,
    source_corpus: Corpus,
    source_vocab: Vocabulary,
    target_vocab: Vocabulary,
    polarity: np.ndarray | None = None,
    batch_size: int = 512,
) -> TransferReport:
    """Score a target-vocabulary checkpoint on a foreign corpus.

    The checkpoint must fingerprint-match the target vocabulary.  The corpus
    is remapped into the target index space and encoded as the checkpoint
    was trained, so the polarity-weighted encoding needs a polarity table
    over the target vocabulary.  Both steps reuse the corpus's arrays: once
    the fingerprint matches, the corpus is consumed; copy it first to keep it.
    """
    check_fingerprint(checkpoint, target_vocab.size, target_vocab.fingerprint())
    vmap = build_vocab_map(source_vocab, target_vocab)
    remapped = remap_corpus(source_corpus, vmap)
    dataset = encode_corpus(
        remapped, checkpoint.encoding, polarity=polarity, width=target_vocab.size
    )
    result = evaluate(checkpoint.model, dataset, batch_size=batch_size)
    return TransferReport(
        source_vocab_size=vmap.source_size,
        target_vocab_size=vmap.target_size,
        mapped_count=vmap.mapped_count,
        dropped=list(vmap.dropped),
        stats=polarity_stats(dataset),
        result=result,
    )


def write_transfer_report(report: TransferReport, path) -> None:
    """Write to ``path``, replacing it whole: dropped tokens one per line,
    then the mapping summary, polarity stats, and accuracy/bce, closed by a
    machine-parseable key=value footer."""
    with replacing(path, "w", encoding="utf-8") as out:
        out.write("# tokens with no counterpart in the target vocabulary\n")
        for token in report.dropped:
            out.write(f"{token}\n")
        out.write(
            f"# {report.mapped_count} of {report.source_vocab_size} source tokens "
            f"map onto the {report.target_vocab_size}-token target vocabulary, "
            f"{len(report.dropped)} dropped\n"
        )
        s = report.stats
        out.write(
            f"# re-encoded entry range [{s.element_min:.6f}, {s.element_max:.6f}], "
            f"per-review sum range [{s.rowsum_min:.6f}, {s.rowsum_max:.6f}]\n"
        )
        r = report.result
        out.write(
            f"# {r.count} examples: accuracy {r.accuracy:.4f}, bce {r.bce:.4f}\n"
        )
        out.write("---\n")
        out.write(f"source_vocab={report.source_vocab_size}\n")
        out.write(f"target_vocab={report.target_vocab_size}\n")
        out.write(f"mapped={report.mapped_count}\n")
        out.write(f"dropped={len(report.dropped)}\n")
        out.write(f"element_min={s.element_min:.9g}\n")
        out.write(f"element_max={s.element_max:.9g}\n")
        out.write(f"rowsum_min={s.rowsum_min:.9g}\n")
        out.write(f"rowsum_max={s.rowsum_max:.9g}\n")
        out.write(f"examples={r.count}\n")
        out.write(f"accuracy={r.accuracy:.6f}\n")
        out.write(f"bce={r.bce:.6f}\n")
