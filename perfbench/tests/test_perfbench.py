"""Self-tests of the benchmark: generator determinism, a tiny run of every
workload through run.py, and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ["canonical", "raw"])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, kind):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.generate(tmp_path / name, kind, "tiny", seed)
    a, b, c = (tree_digest(tmp_path / name) for name in "abc")
    assert a == b
    assert a != c


def test_renderer_matches_python_formatting():
    indptr = [0, 2, 2, 5]
    indices, counts = [3, 10, 0, 99, 100000], [1, 12, 7, 1, 2]
    got = gen.render_rows([1, 0, 1], "\t", np.array(indptr), [np.array(indices), np.array(counts)])
    want = "".join(
        f"{label}\t" + " ".join(f"{i}:{c}" for i, c in zip(indices[lo:hi], counts[lo:hi])) + "\n"
        for label, lo, hi in zip([1, 0, 1], indptr, indptr[1:])
    )
    assert got.decode() == want


def run_bench(workload, trace, work, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--shape", "tiny", "--work", str(work)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(tmp_path, workload, trace):
    done = run_bench(workload, trace, tmp_path)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "ingest-transfer":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["optim.apply_update.calls"] == 0
        assert metrics["net.backward.calls"] == 0
        assert metrics["transfer.mapped"] == gen.SHAPES["tiny"].shared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, tmp_path / "work", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_direct_children_only():
    tree = [
        ["train.train", "0", 0.0, 10.0, -1],
        ["net.forward.train", "0", 1.0, 2.0, 0],
        ["train.evaluate", "0", 3.0, 7.0, 0],
        ["net.forward.eval", "0", 4.0, 5.5, 2],
        ["encode.to_csr", "0", 6.0, 6.5, 2],
    ]
    assert spans.self_times(tree) == [5.0, 1.0, 2.0, 1.5, 0.5]


def test_summary_takes_the_median_over_units():
    tracer = spans.Tracer()
    tracer.spans = [
        ["train.train", "1", 0.0, 4.0, -1],
        ["optim.apply_update", "1", 0.5, 1.5, 0],
        ["optim.apply_update", "1", 2.0, 3.0, 0],
        ["train.train", "3", 10.0, 13.0, -1],
        ["optim.apply_update", "3", 10.5, 11.0, 3],
        ["train.train", "5", 20.0, 26.0, -1],
        ["optim.apply_update", "5", 21.0, 25.0, 5],
    ]
    out = spans.summarize(tracer)
    assert out["train.train.s"] == (4.0, 3)
    assert out["train.train.self_s"] == (2.0, 3)
    assert out["optim.apply_update.s"] == (2.0, 4)
    assert out["optim.apply_update.calls"] == (1.0, 4)
    assert out["optim.apply_update.ms.p50"] == (1000.0, 4)
    assert out["net.backward.s"] == (0.0, 0)


def test_install_wraps_and_restore_undoes():
    sys.path.insert(0, str(ROOT / "src"))
    from bowtie import corpus, encode, train, transfer

    before = (train.forward, transfer.remap_corpus, encode.EncodedDataset.to_csr)
    tracer = spans.Tracer()
    restore = spans.install(tracer, corpus, encode, train, transfer)
    try:
        assert train.forward is not before[0]
        assert encode.EncodedDataset.to_csr is not before[2]
    finally:
        restore()
    assert (train.forward, transfer.remap_corpus, encode.EncodedDataset.to_csr) == before
