#!/usr/bin/env python3
"""End-to-end benchmark of the tanglekit command line.

    python3 benchmark/run.py --workload graph-k2 --seed 1 --seconds 48 --trace 0

Run from the root of a checkout.  Load model: a closed loop with one client;
each op is a fresh ``python -m tanglekit.cli`` process, timed from spawn to
exit, so interpreter start and import count, as they do for a user.  A pass
runs every op of the workload once; pass p uses relabelling variant
p % VARIANTS of the seed.  A run measures the whole number of passes that
took about ``--seconds`` when the benchmark was recorded, so every run of a
workload measures the same ops.

Every op's exit code, relabel-invariant summary and self-check fields are
compared with ``expected.json``; at the default seed the sha256 of every
artifact is compared too, and at any seed an op's artifacts must be
byte-identical across the passes of a run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run through ``traced_entry.py`` and prints the
per-layer metrics, per traced pass.  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
VARIANTS = 4
OP_TIMEOUT_S = 60
STARTUP_PROBES = 7

import tracer
import workloads


# One CLI invocation: its id, its argv, and its entry in expected.json.
Op = namedtuple("Op", "id argv expected")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outcome(code, stdout, stderr, outdir):
    """Relabel-invariant result of one op, and the sha256 of its artifacts."""
    lines = (stdout if code == 0 else stderr).strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    summary = report.get("summary", {}) if code == 0 else {"kind": report.get("kind")}
    checks = {}
    hashes = {}
    for path in sorted(outdir.iterdir()):
        hashes[path.name] = sha256(path)
        if path.suffix != ".json":
            continue
        obj = json.loads(path.read_text())
        for key in ("valid", "verified"):
            if key in obj:
                checks[f"{path.stem}.{key}"] = obj[key]
        if "lattice" in obj:
            checks[f"{path.stem}.lattice.ok"] = obj["lattice"]["ok"]
        if "order" in obj:
            checks[f"{path.stem}.order.submodular"] = obj["order"]["submodular"]
    return {"exit": code, "summary": summary, "checks": checks}, hashes


def all_true(value):
    if isinstance(value, dict):
        return all(all_true(v) for v in value.values())
    return value is True


class Runner:
    """Writes a workload's inputs, spawns its ops one at a time, checks each."""

    def __init__(self, workload, work, seed):
        self.workload = workload
        self.work = work
        self.seed = seed
        self.env = {k: v for k, v in os.environ.items() if k != "TANGLEKIT_OUT"}
        self.env["PYTHONPATH"] = str(SRC)
        self.seen_hashes = {}
        self.failures = Counter()
        self.setups = []  # seconds of each set-up

    def set_up(self, variant):
        """Write the inputs of one relabelling variant, timing it."""
        start = time.perf_counter()
        workloads.write_inputs(self.workload, self.seed, variant, self.work / f"in{variant}")
        self.setups.append(time.perf_counter() - start)

    def run(self, op, variant, traced=False):
        """Run and check one op; return (wall seconds, ok, spans or None)."""
        wall, got, hashes, spans = self.spawn(op.id, op.argv, variant, traced)
        if got is None:
            self.failures["timeout"] += 1
            print(f"FAIL {op.id} variant {variant}: timeout", file=sys.stderr)
            return wall, False, None
        return wall, self.check(op, variant, got, hashes), spans

    def spawn(self, op_id, argv, variant, traced=False):
        """Run one op; return (wall seconds, outcome, artifact hashes, spans).

        The outcome is None when the op exceeds the time limit.
        """
        indir = self.work / f"in{variant}"
        outdir = self.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_entry.py"), str(spans_path),
                   op_id, "--"]
        else:
            cmd = [sys.executable, "-m", "tanglekit.cli"]
        cmd += argv + ["--out", str(outdir)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=indir, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - start, None, None, None
        wall = time.perf_counter() - start
        got, hashes = outcome(proc.returncode, stdout, stderr, outdir)
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
        return wall, got, hashes, spans

    def check(self, op, variant, got, hashes):
        want = op.expected
        reason = None
        if got["exit"] != want["exit"]:
            reason = "exit code"
        elif got["summary"] != want["summary"]:
            reason = "summary"
        elif got["checks"] != want["checks"] or not all_true(got["checks"]):
            reason = "self-check"
        elif self.seed == workloads.DEFAULT_SEED and hashes != want["sha256"][variant]:
            reason = "artifact bytes"
        elif self.seen_hashes.setdefault((op.id, variant), hashes) != hashes:
            reason = "rerun bytes"
        if reason:
            self.failures[reason] += 1
            print(f"FAIL {op.id} variant {variant}: {reason}", file=sys.stderr)
        return reason is None


def tail(samples):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct * n / 100)
    return ordered[max(rank, 1) - 1], pct


class Pass:
    """One pass over every op: wall times by op id, correct ops, durations."""

    def __init__(self):
        self.times = {}
        self.ok = 0
        self.wall = 0.0
        self.traced_wall = 0.0
        self.spans = []


def pass_count(workload, seconds, traced=False):
    """Whole passes that take about ``seconds`` at the recorded pass time, at least one."""
    per_pass = workloads.PASS_SECONDS[workload] * (2 if traced else 1)
    return max(1, round(seconds / per_pass))


def run_passes(runner, ops, count, traced_too=False):
    """``count`` passes over ``ops``; each traced pass follows its untraced twin.

    Each pass first sets its variant's inputs up again, so that set-up time
    is sampled across the run as op times are.
    """
    passes = []
    for _ in range(count):
        p = Pass()
        variant = len(passes) % VARIANTS
        runner.set_up(variant)
        pass_start = time.perf_counter()
        for op in ops:
            p.times[op.id], good, _ = runner.run(op, variant)
            p.ok += good
        p.wall = time.perf_counter() - pass_start
        if traced_too:
            pass_start = time.perf_counter()
            for op in ops:
                _, good, op_spans = runner.run(op, variant, traced=True)
                p.ok += good
                if op_spans is not None:
                    p.spans.append(op_spans)
            p.traced_wall = time.perf_counter() - pass_start
        passes.append(p)
    return passes


def end_to_end(runner, ops, count):
    """Throughput and latency with tracing off.

    Other tenants of a shared machine can only add time, so an op's own cost
    is best estimated by its fastest pass.  latency_p50_ms is the median over
    ops of that best-of-run time; ops_per_s is the rate at which one client
    completes correct ops when each op takes its best-of-run time; setup_s is
    the fastest of the run's set-ups.  latency_tail_ms keeps every sample.
    """
    passes = run_passes(runner, ops, count)
    samples = [t for p in passes for t in p.times.values()]
    best = [min(p.times[op.id] for p in passes) for op in ops]
    value, pct = tail(samples)
    attempted = len(samples)
    ok = sum(p.ok for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"passes {len(passes)}, ops {attempted}, "
          f"wall {sum(p.wall for p in passes):.2f} s")
    print(f"latency_tail_ms is p{pct} of {attempted} samples")
    print(f"fail_share {(attempted - ok) / attempted:.4f}"
          + (f" ({dict(runner.failures)})" if runner.failures else ""))
    metrics = {
        "ops_per_s": (ok / attempted * len(best) / sum(best), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(best), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_share": (ok / attempted, "share"),
        "setup_s": (min(runner.setups), "s"),
    }
    return attempted, ok, metrics


def startup_ms(runner):
    """Median spawn time of ``import tanglekit.cli`` minus that of ``pass``."""
    samples = {"pass": [], "import tanglekit.cli": []}
    for _ in range(STARTUP_PROBES):
        for code, out in samples.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=runner.env, check=True)
            out.append(time.perf_counter() - start)
    return 1000 * (statistics.median(samples["import tanglekit.cli"])
                   - statistics.median(samples["pass"]))


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - child[i]) / 1e9 for i, (_, start, end, _, _) in enumerate(spans)]


def per_layer(runner, ops, count):
    probe = startup_ms(runner)
    passes = run_passes(runner, ops, count, traced_too=True)
    n = len(passes)
    layer = defaultdict(float)
    raised = Counter()
    total = defaultdict(float)  # span name -> seconds, child spans included
    own_by_name = defaultdict(float)  # span name -> self seconds
    calls = Counter()
    counts = Counter()
    tried = accepted = 0
    for rec in (rec for p in passes for rec in p.spans):
        spans = rec["spans"]
        counts.update(rec["counts"])
        own = self_times(spans)
        in_reduce = [False] * len(spans)
        for i, (name, start, end, parent, exc) in enumerate(spans):
            lay = tracer.layer_of(name)
            layer[lay] += own[i]
            calls[lay] += 1
            calls[name] += 1
            total[name] += (end - start) / 1e9
            own_by_name[name] += own[i]
            if exc:
                raised[lay] += 1
                raised[f"{lay}.{exc}"] += 1
            in_reduce[i] = name == "tst.reduce_irreducible" or (
                parent >= 0 and in_reduce[parent])
            if parent >= 0 and in_reduce[parent]:
                tried += name == "tst.validate_tst"
                accepted += name == "tst.necessity"
        reduces = sum(1 for s in spans if s[0] == "tst.reduce_irreducible")
        accepted -= reduces  # one necessity call per reduction finds nothing left
    plain = sum(p.wall for p in passes)
    traced = sum(p.traced_wall for p in passes)
    print(f"traced passes {n}; raised by type: "
          + json.dumps({k: v for k, v in sorted(raised.items()) if "." in k}))
    sub_calls = calls["universe.is_submodular"]
    metrics = {}
    for lay in tracer.LAYERS:
        metrics[f"{lay}.self_s"] = (layer[lay] / n, "s")
        metrics[f"{lay}.calls"] = (calls[lay] / n, "count")
        metrics[f"{lay}.raised"] = (raised[lay] / n, "count")
    metrics.update({
        "cli.startup_ms": (probe, "ms"),
        "cli.io_s": (sum(own_by_name[f"cli.{f}"] for f in (
            "load_inputs", "load_family", "write_artifact", "write_dot")) / n, "s"),
        "universe.validate_lattice_s": (total["universe.validate_lattice"] / n, "s"),
        "universe.validate_lattice_calls": (calls["universe.validate_lattice"] / n, "count"),
        "universe.submodularity_s": (total["universe.is_submodular"] / n, "s"),
        "universe.submodularity_calls": (sub_calls / n, "count"),
        "universe.submodularity_repeat_share": (
            counts["submodularity_repeats"] / sub_calls if sub_calls else 0.0, "share"),
        "universe.build_s": ((total["universe.graph_universe"]
                              + total["universe.bipartition_universe"]) / n, "s"),
        "universe.oriented_built": (counts["oriented_built"] / n, "count"),
        "orderfn.refine_s": (total["orderfn.refine_injective"] / n, "s"),
        "orderfn.refine_calls": (calls["orderfn.refine_injective"] / n, "count"),
        "forbidden.is_rich_s": (total["forbidden.is_rich"] / n, "s"),
        "forbidden.is_rich_calls": (calls["forbidden.is_rich"] / n, "count"),
        "core.orientations_enumerated": (counts["orientations_enumerated"] / n, "count"),
        "duality.shifting_s": (total["duality.closed_under_shifting"] / n, "s"),
        "tst.reduce_s": (total["tst.reduce_irreducible"] / n, "s"),
        "tst.reduce_moves_tried": (tried / n, "count"),
        "tst.reduce_moves_accepted": (accepted / n, "count"),
        "tst.reduce_accept_share": (accepted / tried if tried else 0.0, "share"),
        "trace.overhead_share": ((traced - plain) / plain, "share"),
    })
    attempted = 2 * n * len(ops)
    return attempted, sum(p.ok for p in passes), metrics


def load_ops(workload):
    record = json.loads((BENCH / "expected.json").read_text())["workloads"][workload]
    return [Op(op_id, argv, record[op_id]) for op_id, argv in workloads.WORKLOADS[workload]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tanglekit" / "cli.py").is_file():
        sys.exit(f"no tanglekit source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tanglekit
    if Path(tanglekit.__file__).resolve().parent != (SRC / "tanglekit").resolve():
        sys.exit(f"imported tanglekit from {tanglekit.__file__}, not from {SRC}")

    ops = load_ops(args.workload)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    try:
        runner = Runner(args.workload, work, args.seed)
        for variant in range(VARIANTS):
            runner.set_up(variant)
        runner.run(ops[0], 0)  # warm the bytecode and file caches; not counted
        runner.failures.clear()
        if args.trace:
            attempted, ok, metrics = per_layer(
                runner, ops, pass_count(args.workload, args.seconds, traced=True))
        else:
            attempted, ok, metrics = end_to_end(
                runner, ops, pass_count(args.workload, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
