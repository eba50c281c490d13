"""One benchmark process: set up, then run workload passes in a closed loop.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path.  Everything from process start to the end of ``setup()`` is the
set-up time; passes then run until ``--seconds`` have gone by, at least one
(with ``--trace 1``, at least one untraced and one traced).  The result,
with the operations attempted and failed, goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

TRAIN_WORKLOADS = {
    # encoding, optimizer, learning rate, epochs per pass
    "train-polarity-nadam": ("polarity-weighted", "nadam", 0.001, 1),
    "train-multihot-sgd": ("multi-hot", "sgd", 0.05, 4),
}
BATCH_SIZE = 512
# The CLI's default --seed: initialisation, shuffling and dropout are the
# same for every workload seed, which draws only the inputs.
MODEL_SEED = 0
# bytes read plus bytes written per parameter by one step, for each kind
OPTIMIZER_ARRAYS = {"sgd": 3, "rmsprop": 5, "adam": 7, "nadam": 7}


class Ops:
    """Counts operations attempted and failed; a failed output check fails
    the operation it checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every failure of the program counts, then the run stops
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            traceback.print_exc()
            raise OperationFailed(name) from exc

    def check(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            raise CheckFailed(f"{name}: {detail}")


class OperationFailed(Exception):
    pass


class CheckFailed(Exception):
    pass


def file_sha256(path: Path, offset: int = 0) -> str:
    """sha256 of a file from ``offset`` on, read in blocks so that hashing
    adds nothing to the worker's peak RSS."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        fh.seek(offset)
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    """High-water RSS of this process image.  ``ru_maxrss`` would also count
    the parent's peak, which Linux carries across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def param_blob_sha256(path: Path) -> str:
    """sha256 of a checkpoint-v1 file's parameter blob (after the manifest)."""
    with open(path, "rb") as fh:
        manifest_len = int.from_bytes(fh.read(20)[12:20], "little")
    return file_sha256(path, 20 + manifest_len)


class TrainWorkload:
    """Load prepared slmrd files, then per pass: train a copy of the initial
    model for a fixed number of epochs, checkpoint it, reload it and score
    both splits (``bowtie train``, then ``bowtie eval`` on each split)."""

    def __init__(self, name, data: Path, out: Path, seed: int, ops: Ops, bt):
        self.encoding, self.optimizer, self.lr, self.epochs = TRAIN_WORKLOADS[name]
        self.data, self.out, self.seed, self.ops, self.bt = data, out, seed, ops, bt
        self.expect = json.loads((data / "expect.json").read_text())
        self.blob_sha: str | None = None

    def setup(self):
        corpus, encode, net = self.bt["corpus"], self.bt["encode"], self.bt["net"]
        from bowtie.rngseed import mix_seed

        op = self.ops.op
        with op("load_vocab"):
            self.vocab = corpus.load_slmrd_vocab(self.data / "vocab.txt")
        polarity = None
        if self.encoding == "polarity-weighted":
            with op("load_polarity"):
                polarity = corpus.load_polarity(self.data / "polarity.txt", self.vocab)
        sets = {}
        for split in ("train", "test"):
            with op(f"load_corpus_file {split}"):
                bags = corpus.load_corpus_file(
                    self.data / f"{split}.corpus", vocab_id=self.vocab.fingerprint(),
                    split=split, width=self.vocab.size,
                )
            with op(f"encode_corpus {split}"):
                sets[split] = encode.encode_corpus(
                    bags, self.encoding, polarity=polarity, width=self.vocab.size
                )
        self.train_set, self.val_set = sets["train"], sets["test"]
        with op("init_model"):
            self.model = net.init_model(net.ModelConfig(
                input_width=self.vocab.size, init_seed=mix_seed(MODEL_SEED, 1),
            ))
        self.data_seed, self.dropout_seed = mix_seed(MODEL_SEED, 2), mix_seed(MODEL_SEED, 3)

    def check_setup(self):
        with self.ops.op("setup checks"):
            for split, ds in (("train", self.train_set), ("test", self.val_set)):
                want = self.expect[split]["reviews"]
                self.ops.check(split, len(ds) == want, f"{len(ds)} examples, expected {want}")
            self.ops.check("vocab", self.vocab.size == self.expect["vocab"], "vocabulary size")

    def run_pass(self, tracer) -> dict:
        optim, train = self.bt["optim"], self.bt["train"]
        op, check = self.ops.op, self.ops.check
        model = self.model.copy()
        config = train.TrainConfig(
            optimizer=optim.OptimizerSpec(kind=self.optimizer, learning_rate=self.lr),
            batch_size=BATCH_SIZE, max_epochs=self.epochs, target_accuracy=None,
            data_seed=self.data_seed, dropout_seed=self.dropout_seed,
        )
        ckpt = self.out / "model.ckpt"
        t0 = time.perf_counter()
        with op("train"):
            model, epochs = train.train(model, self.train_set, self.val_set, config, log=False)
            t1 = time.perf_counter()
            check("train", len(epochs) == self.epochs, f"{len(epochs)} epochs run")
            losses = [x for e in epochs for x in (e.train_bce, e.val_bce)]
            check("train", all(math.isfinite(x) for x in losses), f"non-finite loss {losses}")
        with op("save_checkpoint"):
            train.save_checkpoint(
                str(ckpt), model, self.vocab.size, self.vocab.fingerprint(), self.encoding,
                provenance={"command": "perfbench", "seed": self.seed},
            )
        with op("load_checkpoint"):
            loaded = train.load_checkpoint(str(ckpt))
        t2 = time.perf_counter()
        with op("evaluate"):
            result = train.evaluate(loaded.model, self.val_set, BATCH_SIZE)
            on_train = train.evaluate(loaded.model, self.train_set, BATCH_SIZE)
            t3 = time.perf_counter()
            for split, got, want in (("validation", result, epochs[-1].val_accuracy),
                                     ("training", on_train, epochs[-1].train_accuracy)):
                check("evaluate", got.accuracy == want,
                      f"reloaded model scores {got.accuracy} on the {split} split, training saw {want}")
            floor = self.expect["accuracy_floor"]
            check("evaluate", result.accuracy >= floor,
                  f"validation accuracy {result.accuracy} below {floor}")
        with op("checkpoint determinism"):
            sha = param_blob_sha256(ckpt)
            check("checkpoint", self.blob_sha in (None, sha), "passes trained different parameters")
            self.blob_sha = sha
        n_train, n_val = len(self.train_set), len(self.val_set)
        return {
            "run_s": t3 - t0,
            "build_reviews_per_s": self.epochs * n_train / (t1 - t0),
            "score_reviews_per_s": (n_val + n_train) / (t3 - t2),
            "accuracy": result.accuracy,
        }

    def provenance(self) -> dict:
        params = sum(w.size for w in self.model.weights) + sum(b.size for b in self.model.biases)
        return {
            "shapes": {k: self.expect[k] for k in ("vocab", "train", "test")},
            "optimizer": self.optimizer, "learning_rate": self.lr, "epochs": self.epochs,
            "encoding": self.encoding, "batch_size": BATCH_SIZE,
            "params": int(params),
            "checkpoint_param_sha256": self.blob_sha,
        }

    def bytes_per_step(self) -> float:
        return 8.0 * OPTIMIZER_ARRAYS[self.optimizer] * self.provenance()["params"]


class IngestWorkload:
    """Per pass: ``bowtie prepare slmrd``, ``bowtie prepare kid`` and
    ``bowtie transfer`` of a fixed checkpoint onto the kid corpus."""

    def __init__(self, name, data: Path, out: Path, seed: int, ops: Ops, bt):
        self.data, self.out, self.ops, self.bt = data, out, ops, bt
        self.expect = json.loads((data / "expect.json").read_text())

    def setup(self):
        pass  # the commands read everything themselves; set-up is start-up and imports

    def check_setup(self):
        pass

    def _cli(self, tracer, span: str, argv: list[str]) -> None:
        with tracer.span(span) if tracer else contextlib.nullcontext():
            code = self.bt["cli"].main(argv)
        self.ops.check(span, code == 0, f"exit code {code}")

    def run_pass(self, tracer) -> dict:
        raw, out, exp = self.data / "raw", self.out, self.expect
        op, check = self.ops.op, self.ops.check
        t0 = time.perf_counter()
        with op("prepare slmrd"):
            self._cli(tracer, "cli.prepare",
                      ["prepare", "slmrd", "--input", str(raw / "slmrd"), "--out", str(out / "slmrd")])
        with op("prepare kid"):
            self._cli(tracer, "cli.prepare",
                      ["prepare", "kid", "--word-index", str(raw / "kid" / "word_index.json"),
                       "--sequences", str(raw / "kid" / "sequences.tsv"), "--out", str(out / "kid")])
        t1 = time.perf_counter()
        report = out / "report.txt"
        with op("transfer"):
            self._cli(tracer, "cli.transfer", [
                "transfer", "--checkpoint", str(raw / "model.ckpt"),
                "--source-corpus", str(out / "kid" / "full.corpus"),
                "--source-vocab", str(out / "kid" / "vocab.txt"),
                "--target-vocab", str(out / "slmrd" / "vocab.txt"),
                "--polarity", str(out / "slmrd" / "polarity.txt"),
                "--report", str(report),
            ])
        t2 = time.perf_counter()
        with op("prepare outputs"):
            for rel, want in sorted(exp["sha256"].items()):
                check(rel, file_sha256(out / rel) == want, "differs from the canonical rendering")
        with op("transfer report"):
            lines = report.read_text(encoding="utf-8").splitlines()
            footer = dict(line.split("=", 1) for line in lines[lines.index("---") + 1:])
            check("report", bool(footer) and lines[-1] == f"bce={footer.get('bce')}",
                  "report does not end in its key=value footer")
            for key, want in (("mapped", exp["mapped"]), ("dropped", exp["dropped"]),
                              ("examples", exp["kid_reviews"])):
                check("report", int(footer[key]) == want, f"{key}={footer[key]}, planted {want}")
            accuracy = float(footer["accuracy"])
            check("report", abs(accuracy - exp["oracle_accuracy"]) <= 1.0 / exp["kid_reviews"] + 1e-6,
                  f"accuracy {accuracy}, oracle {exp['oracle_accuracy']}")
        return {
            "run_s": t2 - t0,
            "build_reviews_per_s": exp["prepare_reviews"] / (t1 - t0),
            "score_reviews_per_s": exp["kid_reviews"] / (t2 - t1),
            "accuracy": accuracy,
        }

    def provenance(self) -> dict:
        exp = self.expect
        return {
            "shapes": {k: exp[k] for k in ("vocab", "kid_vocab", "prepare_reviews", "kid_reviews",
                                            "kid_nnz", "mapped", "dropped")},
            "checkpoint_param_sha256": param_blob_sha256(self.data / "raw" / "model.ckpt"),
        }

    def bytes_per_step(self) -> float:
        return 0.0


def run(args, ops: Ops) -> dict:
    result: dict = {}
    try:
        with ops.op("import"):
            from bowtie import cli, corpus, encode, net, optim, train, transfer
        bt = {"cli": cli, "corpus": corpus, "encode": encode, "net": net,
              "optim": optim, "train": train, "transfer": transfer}
        tracer = restore = None
        if args.trace:
            from spans import Tracer, install
            tracer = Tracer()
            restore = install(tracer, corpus, encode, train, transfer)
            tracer.active = True
        kind = IngestWorkload if args.workload == "ingest-transfer" else TrainWorkload
        workload = kind(args.workload, Path(args.data), Path(args.out), args.seed, ops, bt)
        workload.setup()
        result["setup_s"] = time.monotonic() - args.spawned_at
        workload.check_setup()
        passes, traced_passes = [], []
        started = time.perf_counter()
        while True:
            done = len(passes) + len(traced_passes)
            traced = tracer is not None and done % 2 == 1
            if tracer is not None:
                tracer.active = traced
                tracer.unit = str(done)
            record = workload.run_pass(tracer if traced else None)
            (traced_passes if traced else passes).append(record)
            if time.perf_counter() - started >= args.seconds and (
                tracer is None or traced_passes
            ):
                break
        result["passes"] = passes
        result["traced_passes"] = traced_passes
        result["provenance"] = workload.provenance()
        if tracer is not None:
            tracer.active = False
            restore()
            from spans import summarize
            layers = summarize(tracer)
            layers["optim.bytes_per_step"] = (workload.bytes_per_step(), 1)
            overhead = (statistics.median(p["run_s"] for p in traced_passes)
                        - statistics.median(p["run_s"] for p in passes))
            layers["trace.overhead_s"] = (overhead, len(passes) + len(traced_passes))
            result["layers"] = layers
    except OperationFailed as exc:
        print(f"perfbench worker: operation {exc} failed", file=sys.stderr)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    ops = Ops()
    result = run(args, ops)
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
