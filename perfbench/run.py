"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload train-polarity-nadam --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  The inputs for the seed are generated once
under ``.perfbench/data`` and reused.  With ``--trace 0`` the run starts
WORKERS processes one after another; each sets the workload up and then
runs passes for its share of ``--seconds``, so the passes sample the whole
run and more than one process.  The end-to-end metrics are medians over the
set-ups and over the passes.  With ``--trace 1`` one worker runs traced and
untraced passes alternately and the per-layer metrics come from the spans.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PIN = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(BLAS_PIN)  # before numpy loads, here and in every worker

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = {
    "train-polarity-nadam": "canonical",
    "train-multihot-sgd": "canonical",
    "ingest-transfer": "raw",
}
WORKERS = 3
RUN_LIMIT_S = 170  # a run ends within 180 s, generation and workers included


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def inputs(work: Path, workload: str, shape: str, seed: int) -> Path:
    """The workload's generated inputs, made on first use for this seed."""
    kind = WORKLOADS[workload]
    data = work / "data" / f"{kind}-{shape}-seed{seed}"
    marker = data / "expect.json"
    if marker.exists():
        body = json.loads(marker.read_text())
        if body.get("generator") == gen.GENERATOR_VERSION:
            return data
    shutil.rmtree(data, ignore_errors=True)
    # the marker is written last, so an interrupted generation is redone
    gen.generate(data, kind, shape, seed)
    return data


def spawn(root: Path, args, data: Path, out: Path, result: Path, seconds: float,
          deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--data", str(data), "--out", str(out),
        "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace), "--result", str(result),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    log = out / "worker.log"
    result.unlink(missing_ok=True)
    with open(log, "ab") as fh:
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            code = subprocess.run(cmd, env=env, stdout=fh, stderr=fh,
                                  timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result.exists():
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
        return {"attempted": 1, "failed": 1, "errors": [f"worker exited with {code}"]}
    return json.loads(result.read_text())


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, args, workers: list[dict]) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    last = workers[-1]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "shape": args.shape,
        "commit": commit or "unknown", "src_sha256": source_digest(root),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN, "load": "closed loop, 1 client, one worker process at a time",
        "workers": len(workers), "passes": sum(len(w.get("passes", [])) for w in workers),
        "traced_passes": len(last.get("traced_passes", [])),
        **last.get("provenance", {}),
    }


def run_one(root: Path, work: Path, args) -> dict:
    """One run of one workload; prints its metrics and returns the result line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    data = inputs(work, args.workload, args.shape, args.seed)
    out = work / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    workers: list[dict] = []
    try:
        result_file = out / "result.json"
        count = 1 if args.trace else WORKERS
        for _ in range(count):
            workers.append(spawn(root, args, data, out, result_file, args.seconds / count,
                                 deadline))
            if workers[-1]["failed"]:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    trained = {w["provenance"]["checkpoint_param_sha256"] for w in workers if "provenance" in w}
    if len(trained) > 1:
        failed += 1
        workers[-1].setdefault("errors", []).append("workers trained different parameters")
    values: dict[str, tuple[float, int]] = {}
    if args.trace:
        units = metric_units("per_layer")
        layers = workers[-1].get("layers", {})
        values = {name: tuple(layers.get(name, (0.0, 0))) for name in units}
    else:
        units = metric_units("end_to_end")
        passes = [rec for w in workers for rec in w.get("passes", [])]
        setups = [w["setup_s"] for w in workers if "setup_s" in w]
        values["setup_s"] = (statistics.median(setups) if setups else 0.0, len(setups))
        for name in ("run_s", "build_reviews_per_s", "score_reviews_per_s", "accuracy"):
            got = [rec[name] for rec in passes]
            values[name] = (statistics.median(got) if got else 0.0, len(got))
        rss = [w["peak_rss_mb"] for w in workers if "peak_rss_mb" in w]
        values["peak_rss_mb"] = (max(rss) if rss else 0.0, len(rss))

    prov = provenance(root, args, workers)
    for name, (value, n) in values.items():
        print(f"{name:45s} {value:14.6g} {units[name]:<10s} n={n}")
    for err in (e for w in workers for e in w.get("errors", [])):
        print(f"failed: {err}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()},
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({**record, "samples": {k: n for k, (_, n) in values.items()},
                    "provenance": prov, "workers": workers}, indent=1, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="'all' runs every workload untraced and then traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shape", choices=sorted(gen.SHAPES), default="paper",
                   help="input sizes; 'tiny' is for the benchmark's self-tests")
    p.add_argument("--work", help="directory for inputs and outputs (default .perfbench)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bowtie" / "__init__.py").is_file():
        print(f"perfbench: no program at {root / 'src' / 'bowtie'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = Path(args.work).resolve() if args.work else root / ".perfbench"
    if args.workload != "all":
        print(json.dumps(run_one(root, work, args)))
        return 0
    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} trace={trace}")
            one = run_one(root, work, argparse.Namespace(**{**vars(args), "workload": name,
                                                             "trace": trace}))
            attempted += one["attempted"]
            failed += one["failed"]
    print(f"error_rate {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations failed)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
