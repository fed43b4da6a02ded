"""Fast self-test of the benchmark: output schema, and per-layer self
times that add up to the traced wall time.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from speed import REF_PROBE_MS, SAMPLE_RUNS, WINDOW_NS, Probe  # noqa: E402
from tracer import StepClock, Tracer, per_layer, self_time_sum  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
META_KEYS = {"workload", "seed", "params", "threads", "nproc", "python",
             "numpy", "blas", "commit", "rounds", "measured_s", "tail"}


def _bench(trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", "infer_nyu", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return proc


def _check_result(proc, group):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(result["metrics"]) == set(units)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    assert META_KEYS <= set(info["meta"])
    assert info["meta"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert info["figures"]["failed_op_ratio"] == {"value": 0.0,
                                                  "unit": "ratio"}
    return info, result


def test_untraced_schema():
    _, result = _check_result(_bench(0), "end_to_end")
    for name in ("setup_s", "items_per_s", "op_ms_p50", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


def test_traced_self_times_sum_to_wall():
    _, result = _check_result(_bench(1), "per_layer")
    metrics = result["metrics"]
    assert metrics["autodiff.conv2d.calls"]["value"] == 38.0
    assert metrics["autodiff.backward.nodes"]["value"] == 0.0
    with open(os.path.join(ROOT, ".perfbench", "trace-infer_nyu.json")) as fh:
        doc = json.load(fh)
    wall = doc["traced_wall_ns"]
    assert abs(self_time_sum(doc) - wall) <= 0.01 * wall


def test_traced_training_steps():
    """StepClock and the op wrappers on a tiny training run, in-process."""
    import latentdepth
    from latentdepth import cli, data, network, training  # noqa: F401
    net = network.NetworkConfig(1, base_width=2, bottleneck_blocks=1,
                                input_h=16, input_w=16)
    conf = training.TrainConfig(stage="guided", net=net, steps=2,
                                batch_size=1)
    samples = [data.synth_scene(i, 16, 16, 1) for i in range(2)]
    tracer, clock = Tracer(), StepClock(training, Probe())
    try:
        tracer.install(latentdepth)
        clock.tracer = tracer
        t0 = time.perf_counter_ns()
        root = tracer.begin("bench.round")
        training.train_guided(conf, samples)
        tracer.end(root)
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
        clock.close()
    assert training.SgdOptimizer.step.__name__ == "step"
    assert len(clock.take()) == 2
    doc = json.loads(json.dumps({"spans": tracer.spans}))
    assert abs(self_time_sum(doc) - wall) <= 0.01 * wall
    m = per_layer(tracer, items=2, steps=2, color_samples=0,
                  op_span="training.step")
    assert m["training.step.graph_nodes"] > 0
    # batch 1: one item per step
    assert m["autodiff.backward.nodes"] == m["training.step.graph_nodes"]
    assert 0 < m["autodiff.conv2d.share"] < 1


def test_tail_percentile():
    assert run._tail(list(range(1, 21))) == (10, 50.0)
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_probe_factor():
    """An operation is scaled by the probes within WINDOW_NS of it, or by
    the nearest probe on either side when none is that close."""
    p = Probe()
    s = WINDOW_NS
    p.times, p.ms = [0, s, 2 * s, 5 * s], [1.0, 2.0, 4.0, 8.0]
    assert p.factor(s + s // 5, 2 * s - s // 5) == REF_PROBE_MS / 3.0
    assert p.factor(3 * s + s // 10, 3 * s + s // 2) == REF_PROBE_MS / 6.0
    p.sample()
    assert len(p.ms) == len(p.times) == 4 + SAMPLE_RUNS
    assert min(p.ms[4:]) > 0 and p.times[4:] == sorted(p.times[4:])


def test_fails_without_program():
    """In a directory holding only BENCHMARK.json and perfbench/ the
    benchmark exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench(0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
