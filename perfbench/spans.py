"""Spans around calls into the program's public functions.

Each function is wrapped where its caller looks it up: ``bowtie.train``
imports ``forward``/``backward``/``apply_update``/``evaluate`` by name, so
they are patched there; the CLI imports lazily inside its handlers, so the
defining modules are patched.  Spans live in memory; ``summarize`` turns
them into per-layer metrics, computing self time from span nesting.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as ``[name, unit, start, end, parent]``; ``unit`` is ``setup``
    or the pass number the span belongs to, ``parent`` an index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[tuple[str, float]]] = defaultdict(list)
        self.active = False
        self.unit = "setup"
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.unit, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append((self.unit, float(value)))

    def wrap(self, fn, name, after=None):
        """``name`` is a string or a function of the call's (args, kwargs);
        ``after(tracer, args, kwargs, result)`` records counts once the span
        has closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, OSError):
                    pass  # a count the program's objects no longer expose is left out
            return result

        return traced


# ---------------------------------------------------------------- counts

def _nnz(obj) -> int:
    """Stored entries of a corpus or an encoded dataset, whichever layout it has."""
    for rows_attr in ("bags", "examples"):
        rows = getattr(obj, rows_attr, None)
        if rows is not None:
            return sum(len(row.indices) for row in rows)
    return int(getattr(obj, "nnz"))


def _after_load_corpus(tracer, args, kwargs, result):
    tracer.count("corpus.load_corpus_file.reviews", len(result))


def _after_save_corpus(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("corpus.save_corpus_file.bytes", os.path.getsize(path))


def _after_encode(tracer, args, kwargs, result):
    tracer.count("encode.nnz_in", _nnz(kwargs.get("corpus", args[0] if args else None)))
    tracer.count("encode.nnz_out", _nnz(result))


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "net.forward.train" if training else "net.forward.eval"


def _after_forward(tracer, args, kwargs, result):
    if getattr(result, "training", False):
        tracer.count("net.batch_nnz", result.inputs.nnz)


def _after_save_checkpoint(tracer, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    tracer.count("train.checkpoint_bytes", os.path.getsize(path))


def _after_transfer(tracer, args, kwargs, result):
    tracer.count("transfer.mapped", result.mapped_count)
    tracer.count("transfer.dropped", len(result.dropped))


def install(tracer: Tracer, corpus, encode, train, transfer):
    """Patch every traced function in place; returns a function that undoes it."""
    table = [
        (corpus, "load_corpus_file", "corpus.load_corpus_file", _after_load_corpus),
        (corpus, "load_slmrd_bow", "corpus.load_slmrd_bow", None),
        (corpus, "load_kid", "corpus.load_kid", None),
        (corpus, "save_corpus_file", "corpus.save_corpus_file", _after_save_corpus),
        (corpus, "load_slmrd_vocab", "corpus.load_vocab", None),
        (corpus, "load_vocab_file", "corpus.load_vocab", None),
        (corpus, "load_polarity", "corpus.load_polarity", None),
        (encode, "encode_corpus", "encode.encode_corpus", _after_encode),
        (encode, "polarity_stats", "encode.polarity_stats", None),
        (encode.EncodedDataset, "to_csr", "encode.to_csr", None),
        (train, "forward", _forward_name, _after_forward),
        (train, "backward", "net.backward", None),
        (train, "apply_update", "optim.apply_update", None),
        (train, "evaluate", "train.evaluate", None),
        (train, "train", "train.train", None),
        (train, "save_checkpoint", "train.save_checkpoint", _after_save_checkpoint),
        (train, "load_checkpoint", "train.load_checkpoint", None),
        (transfer, "encode_corpus", "encode.encode_corpus", _after_encode),
        (transfer, "polarity_stats", "encode.polarity_stats", None),
        (transfer, "evaluate", "train.evaluate", None),
        (transfer, "build_vocab_map", "transfer.build_vocab_map", None),
        (transfer, "remap_corpus", "transfer.remap_corpus", None),
        (transfer, "transfer_evaluate", "transfer.transfer_evaluate", _after_transfer),
    ]
    undo = []
    for owner, attr, name, after in table:
        original = owner.__dict__.get(attr)
        if original is None:
            continue  # the program no longer has this function; its metrics read 0
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, after))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------- summary

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def _per_unit(pairs) -> tuple[float, int]:
    """Median over units of the per-unit total, and the number of samples."""
    totals: dict[str, float] = defaultdict(float)
    n = 0
    for unit, value in pairs:
        totals[unit] += value
        n += 1
    return (statistics.median(totals.values()) if totals else 0.0), n


def summarize(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as ``name -> (value, samples)``.

    ``.s`` and ``.self_s`` are seconds per unit (the setup or one pass) that
    calls the function, as the median over such units; ``.calls`` likewise;
    ``.ms.p50``/``.ms.p90`` pool every call.
    """
    own = self_times(tracer.spans)
    durations: dict[str, list[tuple[str, float]]] = defaultdict(list)
    selfs: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for (name, unit, start, end, _), self_s in zip(tracer.spans, own):
        durations[name].append((unit, end - start))
        selfs[name].append((unit, self_s))
    forward = durations["net.forward.train"] + durations["net.forward.eval"]
    durations["net.forward"] = forward

    out: dict[str, tuple[float, int]] = {}

    def seconds(name, key=None):
        out[key or f"{name}.s"] = _per_unit(durations.get(name, []))

    def self_seconds(name):
        out[f"{name}.self_s"] = _per_unit(selfs.get(name, []))

    def calls(name):
        value, n = _per_unit((u, 1.0) for u, _ in durations.get(name, []))
        out[f"{name}.calls"] = (value, n)

    def pcts(name):
        ms = [d * 1e3 for _, d in durations.get(name, [])]
        out[f"{name}.ms.p50"] = (_pct(ms, 0.5), len(ms))
        out[f"{name}.ms.p90"] = (_pct(ms, 0.9), len(ms))

    def counted(name, key, how):
        values = [v for _, v in tracer.counts.get(name, [])]
        out[key] = (how(values) if values else 0.0, len(values))

    for name in ("corpus.load_corpus_file", "corpus.load_slmrd_bow", "corpus.load_kid",
                 "corpus.save_corpus_file", "corpus.load_vocab", "corpus.load_polarity",
                 "encode.encode_corpus", "encode.to_csr", "encode.polarity_stats",
                 "net.forward", "net.backward", "optim.apply_update", "train.train",
                 "train.evaluate", "train.save_checkpoint", "train.load_checkpoint",
                 "transfer.build_vocab_map", "transfer.remap_corpus"):
        seconds(name)
    for name in ("encode.to_csr", "net.forward", "net.backward", "optim.apply_update",
                 "train.evaluate"):
        calls(name)
    for name in ("net.forward.train", "net.forward.eval", "net.backward",
                 "optim.apply_update"):
        pcts(name)
    for name in ("train.train", "train.evaluate", "transfer.transfer_evaluate",
                 "cli.prepare", "cli.transfer"):
        self_seconds(name)

    load_s = sum(d for _, d in durations.get("corpus.load_corpus_file", []))
    reviews = sum(v for _, v in tracer.counts.get("corpus.load_corpus_file.reviews", []))
    out["corpus.load_corpus_file.reviews_per_s"] = (
        reviews / load_s if load_s else 0.0, len(durations.get("corpus.load_corpus_file", []))
    )
    save_s = sum(d for _, d in durations.get("corpus.save_corpus_file", []))
    saved = sum(v for _, v in tracer.counts.get("corpus.save_corpus_file.bytes", []))
    out["corpus.save_corpus_file.mb_per_s"] = (
        saved / 1e6 / save_s if save_s else 0.0, len(durations.get("corpus.save_corpus_file", []))
    )
    for name in ("encode.nnz_in", "encode.nnz_out"):
        out[name] = _per_unit(tracer.counts.get(name, []))
    counted("net.batch_nnz", "net.batch_nnz.p50", lambda v: _pct(v, 0.5))
    counted("train.checkpoint_bytes", "train.checkpoint_bytes", max)
    counted("transfer.mapped", "transfer.mapped", lambda v: v[-1])
    counted("transfer.dropped", "transfer.dropped", lambda v: v[-1])
    return out
