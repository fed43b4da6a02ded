"""Benchmark of latentdepth's two-stage training and its CLI inference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in one process with one BLAS thread. The last line of
standard output is the result: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics of BENCHMARK.json with `--trace 0`,
its per-layer metrics with `--trace 1`. End-to-end times are scaled by a
machine-speed probe run between operations (perfbench/speed.py). The
line before the result carries the run metadata, with the unscaled wall
times, and the per-workload figures under their own names.
`--workload all` runs every workload in a child process of its own and
prints them as a table. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
NAMES = ("train_desk", "train_mid", "infer_nyu", "predict_large")
THREAD_VARS = ("LATENT_DEPTH_THREADS", "OPENBLAS_NUM_THREADS",
               "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PREPARE_REPEATS = 3
SETUP_PROBES = 3   # probe runs before and after set-up, to scale setup_s


class BenchError(Exception):
    pass


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def _import_program():
    """Import latentdepth from this checkout's sources, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "latentdepth", "__init__.py")):
        raise BenchError("no latentdepth sources under %s" % SRC)
    for var in THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import latentdepth
    if os.path.dirname(os.path.abspath(latentdepth.__file__)) != \
            os.path.join(SRC, "latentdepth"):
        raise BenchError("latentdepth imported from %s, not from %s"
                         % (latentdepth.__file__, SRC))
    return latentdepth


def _tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 11."""
    s = sorted(values)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _meta(args, work, ld, np):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "params": work.params,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(np), "latentdepth": ld.__version__,
            "commit": _git_commit()}


def _measure(work, seconds, ld, tracer, clock):
    """Closed loop of rounds until the next would end past `seconds`
    (at least two, so that a repeat exists). With a tracer, every other
    round is traced and the rest run the program unwrapped. A round's
    outputs are dropped once checked, so that they do not add to the
    peak RSS of later rounds."""
    from workloads import Round
    rounds = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(rounds) >= 2 and elapsed + statistics.mean(
                r[1] for r in rounds) / 1e9 > seconds:
            break
        rnd = Round()
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install(ld)
            clock.tracer = tracer
            tracer.begin("bench.round")
        t0 = time.perf_counter_ns()
        try:
            work.run_round(rnd)
            ok = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        wall = time.perf_counter_ns() - t0
        if traced:
            tracer.unwind()
            clock.tracer = None
            tracer.uninstall()
        try:
            rnd.failed = work.check(rnd) if ok else rnd.attempted
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rnd.failed = rnd.attempted
        rnd.payload = None
        rounds.append((rnd, wall, traced))
    clock.sample_speed()   # the last operation's probe after it
    return rounds, time.perf_counter() - begin


def _end_to_end(work, rounds, setup_s, probe):
    """End-to-end metrics, plus the figures under their per-workload
    names for the metadata line. Each operation's time is scaled by the
    machine-speed probe around it (perfbench/speed.py). Throughput is
    items per median op time, summed over the kinds of operation."""
    by_kind = {}
    wall = []
    for rnd, _, _ in rounds:
        for kind, start, end, items in rnd.ops:
            ms = (end - start) / 1e6
            by_kind.setdefault(kind, []).append(
                (ms * probe.factor(start, end), items))
            if kind == work.primary:
                wall.append(ms)
    if work.primary not in by_kind:
        raise BenchError("no %s finished" % work.primary)
    busy_s = items = 0
    rate = {}
    for kind, ops in by_kind.items():
        med_s = statistics.median(ms for ms, _ in ops) / 1e3
        n = sum(k for _, k in ops)
        rate[kind] = n / len(ops) / med_s
        busy_s += len(ops) * med_s
        items += n
    primary = [ms for ms, _ in by_kind[work.primary]]
    tail, pct = _tail(primary)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": items / busy_s,
        "op_ms_p50": statistics.median(primary),
        "op_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    attempted = sum(r.attempted for r, _, _ in rounds)
    failed = sum(r.failed for r, _, _ in rounds)

    fig = {"setup_s": (setup_s, "s"),
           "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
           "failed_op_ratio": (failed / attempted, "ratio")}
    if work.primary == "color step":
        if "guided step" in rate:
            fig["guided_samples_per_s"] = (rate["guided step"], "1/s")
        fig.update(color_samples_per_s=(rate["color step"], "1/s"),
                   color_step_ms_p50=(metrics["op_ms_p50"], "ms"),
                   color_step_ms_tail=(tail, "ms"))
        if work.first is not None:
            fig["color_loss_end"] = (work.color_loss_end(), "loss")
    elif work.primary == "eval call":
        fig["eval_images_per_s"] = (rate["eval call"], "1/s")
        if work.first is not None:
            fig["eval_rmse_m"] = (work.rmse(), "m")
    else:
        fig.update(predict_ms_p50=(metrics["op_ms_p50"], "ms"),
                   predict_ms_tail=(tail, "ms"))
        if work.first is not None:
            fig["predict_rmse_m"] = (work.rmse(), "m")
    figures = {k: {"value": v, "unit": u} for k, (v, u) in fig.items()}
    tail_info = {"op": work.primary, "percentile": pct,
                 "samples": len(primary)}
    wall_tail, _ = _tail(wall)
    speed = {"wall_op_ms_p50": statistics.median(wall),
             "wall_op_ms_tail": wall_tail}
    return metrics, attempted, failed, figures, tail_info, speed


def _per_layer(name, rounds, tracer):
    from tracer import per_layer
    traced = [(r, wall) for r, wall, t in rounds if t]
    plain = [wall for _, wall, t in rounds if not t]
    rs = [r for r, _ in traced]
    metrics = per_layer(
        tracer, items=sum(r.items() for r in rs),
        steps=sum(r.count("guided step", "color step") for r in rs),
        color_samples=sum(r.items("color step") for r in rs),
        op_span="training.step" if name.startswith("train") else "cli.main")
    overhead = 0.0
    if traced and plain:
        overhead = 100.0 * (statistics.median(w for _, w in traced) /
                            statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = overhead
    return metrics, sum(w for _, w in traced)


def run_one(args):
    spec = _spec()
    ld = _import_program()
    import numpy as np
    from latentdepth import training
    from speed import REF_PROBE_MS, Probe
    from tracer import StepClock, Tracer
    from workloads import WORKLOADS
    import_s = time.perf_counter() - START

    base = os.path.join(OUT_DIR, "%s-%d" % (args.workload, os.getpid()))
    probe = Probe()
    probe.warm()
    clock = StepClock(training, probe)
    try:
        for _ in range(SETUP_PROBES):
            clock.sample_speed()
        work = WORKLOADS[args.workload](args.seed, clock)
        prep = []
        for i in range(PREPARE_REPEATS):
            d = os.path.join(base, "prep%d" % i)
            os.makedirs(d)
            t0 = time.perf_counter()
            work.prepare(d)
            prep.append(time.perf_counter() - t0)
            clock.sample_speed()
        t0 = time.perf_counter()
        work.warmup()
        wall_setup_s = import_s + statistics.median(prep) + \
            time.perf_counter() - t0
        for _ in range(SETUP_PROBES):
            clock.sample_speed()
        setup_probe_ms = probe.median_ms()
        setup_s = wall_setup_s * REF_PROBE_MS / setup_probe_ms
        first_probe = len(probe.ms)

        tracer = Tracer() if args.trace else None
        rounds, measured_s = _measure(work, args.seconds, ld, tracer, clock)
        e2e, attempted, failed, figures, tail, speed = _end_to_end(
            work, rounds, setup_s, probe)
        speed.update(ref_probe_ms=REF_PROBE_MS, wall_setup_s=wall_setup_s,
                     setup_probe_ms_p50=setup_probe_ms,
                     probe_ms_p50=probe.median_ms(first_probe),
                     probes=len(probe.ms))
        meta = _meta(args, work, ld, np)
        meta.update(rounds=len(rounds), measured_s=measured_s, tail=tail,
                    speed=speed)
        if tracer is None:
            chosen = e2e
            group = "end_to_end"
        else:
            chosen, traced_ns = _per_layer(args.workload, rounds, tracer)
            group = "per_layer"
            tracer.write(os.path.join(OUT_DIR, "trace-%s.json"
                                      % args.workload),
                         {"meta": meta, "traced_wall_ns": traced_ns,
                          "per_layer": chosen})
    finally:
        clock.close()
        shutil.rmtree(base, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[group]}
    missing = set(units) ^ set(chosen)
    if missing:
        raise BenchError("metrics differ from BENCHMARK.json: %s"
                         % sorted(missing))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": chosen[k], "unit": units[k]}
                          for k in units}}
    print(json.dumps({"meta": meta, "figures": figures}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    rows = []
    ok = True
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise BenchError("%s exited %d" % (name, proc.returncode))
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, info, result))
    for name, info, result in rows:
        meta = info["meta"]
        print("== %s (seed %d, %d rounds, %.1f s measured, tail = p%.0f of "
              "%d %ss)" % (name, args.seed, meta["rounds"],
                           meta["measured_s"], meta["tail"]["percentile"],
                           meta["tail"]["samples"], meta["tail"]["op"]))
        for group in (result["metrics"], info["figures"]):
            for key, m in group.items():
                print("  %-38s %14.6g %s" % (key, m["value"], m["unit"]))
            print("  --")
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for _, _, r in rows),
                      "failed": sum(r["failed"] for _, _, r in rows),
                      "workloads": {n: r for n, _, r in rows}}))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) \
            as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
