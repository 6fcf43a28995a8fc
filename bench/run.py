"""Benchmark of spectralpath's command line, run in-process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload path_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20          # all four workloads

One run writes the workload's inputs for `--seed` under `.bench_run/`,
measures set-up time in fresh interpreters, plays one warm-up round (whose
outputs also feed the self-check of the oracles), then plays whole rounds of
`spectralpath.cli.main([... , "--json"])` calls for `--seconds` seconds.
Every call's exit code and JSON report is checked against `oracles`.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`.
See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy is imported anywhere in this process or its children.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_run")

SETUP_REPEATS = 5

END_TO_END = {
    "goodput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "spectra.entry_product_profile.self_ms_per_op": "ms",
    "spectra.gap_product.calls_per_profile": "count",
    "linalg.sym_eigen.self_ms_per_op": "ms",
    "spectra.primitive_idempotents.self_ms_per_op": "ms",
    "spectra.spectrum_of.self_ms_per_op": "ms",
    "symmetrize.find_symmetrizer.self_ms_per_op": "ms",
    "digraph.gamma.self_ms_per_op": "ms",
    "equivalence.analyze_matrix.self_ms_per_op": "ms",
    "spectra.char_poly_coefficients.self_ms_per_op": "ms",
    "spectra.real_roots.self_ms_per_op": "ms",
    "linalg.numeric_rank.self_ms_per_op": "ms",
    "spectra.classify.calls_per_op": "count",
    "linalg.read_matrix.self_ms_per_op": "ms",
    "cli.main.self_ms_per_op": "ms",
    "cli.build_parser.self_ms_per_op": "ms",
    "schemes.read_scheme.self_ms_per_op": "ms",
    "schemes.builtin_scheme.self_ms_per_op": "ms",
    "schemes.scheme_from_relations.self_ms_per_op": "ms",
    "schemes.scheme_from_relations.gflop_per_op": "GFLOP",
    "schemes.scheme_from_relations.gflop_s": "GFLOP/s",
    "schemes.eigendata.self_ms_per_op": "ms",
    "schemes.eigendata.attempts_per_call": "count",
    "schemes.krein_parameters.self_ms_per_op": "ms",
    "linalg.solve.self_ms_per_op": "ms",
    "schemes.detect_p_polynomial.calls_per_op": "count",
    "schemes.detect_p_polynomial.self_ms_per_op": "ms",
    "schemes.detect_q_polynomial.calls_per_op": "count",
    "schemes.detect_q_polynomial.self_ms_per_op": "ms",
    "digraph.bidirected_path_endpoints.self_ms_per_op": "ms",
    "schemes.scheme_from_p_tensor.self_ms_per_op": "ms",
    "spectra.primitive_idempotents.raised_per_run": "count",
}


def _import_program():
    """Import spectralpath from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spectralpath", "cli.py")):
        sys.exit(f"error: no spectralpath sources under {SRC}")
    sys.path.insert(0, SRC)
    from spectralpath import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: spectralpath imported from {cli.__file__}, not from {SRC}")
    return cli


def _call(cli, argv):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def _report(out):
    if not out.strip():
        return None
    return json.loads(out)


def judge(op, code, out, err):
    """("ok" | "fault" | "wrong", reason, report) for one operation's output."""
    try:
        rep = _report(out)
        reason = op.check(code, rep, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        rep, reason = None, f"malformed report: {exc!r}"
    if reason is None:
        return "ok", None, rep
    if op.fault is not None:
        try:
            if op.fault_sig(code, rep, err):
                return "fault", reason, rep
        except (KeyError, TypeError):
            pass
    return "wrong", reason, rep


def self_check(op, code, rep, err) -> list:
    """Reasons the oracle accepted an altered report or exit code (should be none)."""
    misses = []
    if op.check(code, op.alter(copy.deepcopy(rep)), err) is None:
        misses.append(f"altered report accepted for {' '.join(op.argv)}")
    if op.check(1 if code == 0 else 0, rep, err) is None:
        misses.append(f"altered exit code accepted for {' '.join(op.argv)}")
    return misses


def measure_setup(ops):
    """Median wall time of fresh interpreters running operation 0."""
    times, problems = [], []
    cmd = [sys.executable, os.path.join(HERE, "first_op.py"), SRC, *ops[0].argv]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        verdict, reason, _ = judge(ops[0], proc.returncode, proc.stdout, proc.stderr)
        if verdict != "ok":
            problems.append(f"set-up operation: {reason}")
    return statistics.median(times), problems


class Tally:
    def __init__(self):
        self.latencies = []
        self.round_seconds = []
        self.attempted = 0
        self.accepted = 0
        self.faults = Counter()
        self.fault_fixed = Counter()
        self.wrong = []

    def add(self, op, verdict, reason):
        self.attempted += 1
        if verdict == "ok":
            self.accepted += 1
            if op.fault is not None:
                self.fault_fixed[op.fault] += 1
        elif verdict == "fault":
            self.faults[op.fault] += 1
        else:
            self.wrong.append(f"{' '.join(op.argv)}: {reason}")

    @property
    def failed(self):
        return self.attempted - self.accepted

    @property
    def goodput(self):
        return self.accepted / sum(self.round_seconds)


def play(cli, ops, seconds, rng, tracer=None):
    """Whole rounds in seeded order until `seconds` have passed; checks after each round."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        outputs = []
        r0 = time.perf_counter()
        for i in rng.permutation(len(ops)):
            if tracer is not None:
                tracer.start_op(tally.attempted + len(outputs))
            code, out, err, dt = _call(cli, ops[i].argv)
            outputs.append((ops[i], code, out, err))
            tally.latencies.append(dt)
        tally.round_seconds.append(time.perf_counter() - r0)
        for op, code, out, err in outputs:
            verdict, reason, _ = judge(op, code, out, err)
            tally.add(op, verdict, reason)
        if time.perf_counter() - start >= seconds:
            return tally


def end_to_end(tally, setup_s):
    deciles = statistics.quantiles(tally.latencies, n=10)
    return {
        "goodput_ops_s": tally.goodput,
        "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
        "latency_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, ops_traced):
    self_s = tracer.self_times()
    calls = tracer.calls
    out = {}
    for name in PER_LAYER:
        layer, quantity = name.rsplit(".", 1)
        if quantity == "self_ms_per_op":
            v = 1e3 * self_s.get(layer, 0.0) / ops_traced
        elif quantity == "calls_per_op":
            v = calls[layer] / ops_traced
        elif quantity == "raised_per_run":
            v = sum(c for (where, _), c in tracer.raised.items() if where == layer)
        elif quantity == "calls_per_profile":
            profiles = calls["spectra.entry_product_profile"]
            v = calls[layer] / profiles if profiles else 0.0
        elif quantity == "attempts_per_call":
            n = calls[layer]
            v = tracer.children_of(layer, "symmetrize.find_symmetrizer") / n if n else 0.0
        elif quantity == "gflop_per_op":
            v = tracer.work[layer] / 1e9 / ops_traced
        elif quantity == "gflop_s":
            busy = self_s.get(layer, 0.0)
            v = tracer.work[layer] / 1e9 / busy if busy else 0.0
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
        out[name] = v
    return out


def run_workload(args) -> int:
    cli = _import_program()
    import numpy as np

    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = os.path.join(OUT, "inputs", tag)
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, inputs)
        problems = []
        setup_s, bad = measure_setup(ops)
        problems += bad

        # warm-up round: discarded from the figures, used for the self-check
        warm = Tally()
        checked = 0
        for op in ops:
            code, out, err, _ = _call(cli, op.argv)
            verdict, reason, rep = judge(op, code, out, err)
            warm.add(op, verdict, reason)
            if verdict == "ok":
                problems += self_check(op, code, rep, err)
                checked += 1
        problems += [f"warm-up: {w}" for w in warm.wrong]

        rng = np.random.default_rng([args.seed, 99])
        tracer = None
        if args.trace:
            untraced = play(cli, ops, args.seconds / 2, rng)
            problems += untraced.wrong
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tally = play(cli, ops, args.seconds / 2, rng, tracer=tracer)
            finally:
                tracer.uninstall()
            roots = tracer.roots()
            if len(roots) != tally.attempted or any(r[0] != "cli.main" for r in roots):
                problems.append(
                    f"trace holds {len(roots)} root spans for {tally.attempted} operations"
                )
        else:
            tally = play(cli, ops, args.seconds, rng)
        problems += tally.wrong
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    classes = Counter(op.size_class for op in ops)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"BLAS threads {BLAS_THREADS} ({', '.join(BLAS_VARS)})",
        "round: " + ", ".join(f"{c} x{k}" for c, k in classes.items()),
        f"rounds {len(tally.round_seconds)} (+1 warm-up)  attempted {tally.attempted}  "
        f"accepted {tally.accepted}  failed {tally.failed}",
        f"self-check: {2 * checked} altered reports and exit codes, "
        f"{sum(1 for p in problems if 'altered' in p)} accepted",
    ]
    for fault, n in tally.faults.items():
        lines.append(f"known fault, failed {n} of {n + tally.fault_fixed[fault]}: {fault}")
    for fault, n in tally.fault_fixed.items():
        if fault not in tally.faults:
            lines.append(f"known fault no longer shows ({n} passed): {fault}")
    lines += [f"PROBLEM {p}" for p in problems[:20]]

    if args.trace:
        metrics = per_layer(tracer, tally.attempted)
        units = PER_LAYER
        lines.append(
            f"tracing overhead: goodput {tally.goodput:.4g} ops/s traced vs "
            f"{untraced.goodput:.4g} ops/s untraced ({100 * (untraced.goodput / tally.goodput - 1):+.1f} %)"
        )
        self_s = tracer.self_times()
        lines.append(f"self time per operation ({len(tracer.spans)} spans, {tally.attempted} ops):")
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])[:15]:
            lines.append(f"  {name:48s} {1e3 * s / tally.attempted:9.4f} ms  {tracer.calls[name]} calls")
        for (where, exc), n in sorted(tracer.raised.items()):
            lines.append(f"  raised {exc} in {where}: {n}")
        tracer.write(os.path.join(OUT, "results", f"{tag}.spans.jsonl.gz"))
    else:
        metrics = end_to_end(tally, setup_s)
        units = END_TO_END
    for name, v in metrics.items():
        lines.append(f"{name} {v:.6g} {units[name]}")

    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"lines": lines, **result}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined summary."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main():
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
