"""Record repeated benchmark runs of one checkout in a committed BENCH file.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --label <name> --workload scheme --seed 17 --runs 3 \
        [--checkout <other checkout>]

Runs `python3 bench/run.py --workload W --seed S --trace 0` of `--checkout`
(default: this one) `--runs` times, for the run length BENCHMARK.json sets,
and adds each run's end-to-end metrics to BENCH_<label>.json at the root of
this checkout, under "<workload>/seed<S>".  Every workload entry also holds
the median and quartiles of each metric over its runs.  Calling it again with
the same label adds runs, so two checkouts can be measured in alternation.
The file also records the environment: Python, numpy, BLAS, CPU and cores;
a call made in another environment than the one recorded is refused.

Before each run a fixed kernel is timed and stored as `calibration_s`, with
the run and in the summary: files recorded hours apart, when the shared
machine ran at another speed, can be compared at equal calibration time.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# About 0.2 s of seeded symmetric eigensolves and a pure-Python loop, timed in
# a fresh interpreter with one BLAS thread as bench/run.py sets.  It imports
# nothing from spectralpath, so its time follows the machine, not the code.
CALIBRATION = """
import time
import numpy as np
S = np.random.default_rng(0).standard_normal((48, 48))
S = S + S.T
t0 = time.perf_counter()
for _ in range(300):
    np.linalg.eigh(S)
acc = 0
for i in range(500_000):
    acc = (acc * 31 + i) % 1_000_003
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu": cpu,
        "cores": len(os.sched_getaffinity(0)),
    }


def source_digest(checkout: str) -> str:
    """sha256 over the program sources, so a record names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, checkout).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def calibration_s() -> float:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return float(proc.stdout)


def _stats(vals: list) -> dict:
    vals = sorted(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else vals * 3
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def summary(runs: list) -> dict:
    out = {name: _stats([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
    calibrated = [r["calibration_s"] for r in runs if "calibration_s" in r]  # older runs lack it
    if calibrated:
        out["calibration_s"] = _stats(calibrated)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--checkout", default=ROOT)
    args = parser.parse_args()
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    record = {"label": args.label, "environment": environment(), "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        if stored["environment"] != record["environment"]:
            sys.stderr.write(f"{path} was recorded in another environment:\n"
                             f"  stored:  {json.dumps(stored['environment'])}\n"
                             f"  current: {json.dumps(record['environment'])}\n")
            return 2
        record = stored
    entry = record["workloads"].setdefault(f"{args.workload}/seed{args.seed}", {"runs": []})
    entry["units"] = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    for _ in range(args.runs):
        calibration = calibration_s()
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        entry["runs"].append({
            "source_sha256": source_digest(checkout),
            "calibration_s": calibration,
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
        })
        entry["summary"] = summary(entry["runs"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
