"""Self-test of the benchmark: inputs, outcomes, the traced launcher, the output.

    python3 -m pytest benchmark -q

Takes about a minute; it spawns the CLI the same way the benchmark does.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 7
# One op per command, on the smallest inputs, so the test stays short.
CHEAP = {
    "graph-k2": ["tst:P4", "reduce:P4", "duality:C4", "newduality:K4", "tot:P4",
                 "refine-order:P4"],
    "graph-k3": ["totins:P4", "newduality:P5", "reduce:K2,3"],
    "universe-json": ["validate:P4", "validate:B4", "tst:P4"],
}


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def cheap_ops(workload):
    return [op for op in run.load_ops(workload) if op.id in CHEAP[workload]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_inputs(workload, tmp_path):
    for name in ("a", "b"):
        workloads.write_inputs(workload, 5, 1, tmp_path / name)
    workloads.write_inputs(workload, 6, 1, tmp_path / "c")
    assert file_bytes(tmp_path / "a") == file_bytes(tmp_path / "b")
    assert file_bytes(tmp_path / "a") != file_bytes(tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_held_out_seed_gives_recorded_summaries(workload, tmp_path):
    runner = run.Runner(workload, tmp_path, HELD_OUT_SEED)
    for variant in range(run.VARIANTS):
        runner.set_up(variant)
    for op in cheap_ops(workload):
        for variant in range(run.VARIANTS):
            _, ok, _ = runner.run(op, variant)
            assert ok, (op.id, variant, dict(runner.failures))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_keeps_artifacts_and_names_one_layer_per_span(workload, tmp_path):
    runner = run.Runner(workload, tmp_path, workloads.DEFAULT_SEED)
    for variant in range(run.VARIANTS):
        runner.set_up(variant)
    for op in cheap_ops(workload):
        _, plain, plain_hashes, _ = runner.spawn(op.id, op.argv, 0)
        _, traced, traced_hashes, spans = runner.spawn(op.id, op.argv, 0, traced=True)
        assert plain == traced
        assert plain_hashes == traced_hashes == op.expected["sha256"][0]
        names = {span[0] for span in spans["spans"]}
        assert f"cli.cmd_{op.argv[0].replace('-', '_')}" in names
        assert all(tracer.layer_of(name) in tracer.LAYERS for name in names)


def test_every_layer_has_wrapped_entry_points():
    code = ("import json, collections, tracer; "
            "print(json.dumps(tracer.install(tracer.Recorder('x'), collections.Counter())))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}"})
    names = json.loads(out.stdout)
    layers = Counter(tracer.layer_of(name) for name in names)
    assert set(layers) == set(tracer.LAYERS)
    assert not set(names) & tracer.HOT


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 101))
    value, pct = run.tail(samples)
    assert pct == 90 and value == 90
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "universe-json",
         "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec[key]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "graph-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
