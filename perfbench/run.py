"""Benchmark for orbitcert: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository.  The inputs are generated here from
--seed (gen.py); set-up is timed over several fresh worker processes; a last
worker runs the workload for --seconds of op time and checks every output.
The named metrics of the workload are printed one per line with their unit,
then one JSON line with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) listed in BENCHMARK.json.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

WORKLOADS = ("decide", "coe-cert", "conj-cert", "selftest")
SETUP_SAMPLES = 7
DEADLINE_S = 170
# percentile reported as the tail, fixed per workload so that runs compare:
# the highest with at least ten samples beyond it at the usual sample count
# (a coe-cert or selftest run has too few ops for any but the maximum)
TAIL = {"decide": 99, "coe-cert": 100, "conj-cert": 90, "selftest": 100}
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


class Worker:
    """One worker process; setup time runs from spawn until it says ready.
    The worker is killed if it is still running at the deadline."""

    def __init__(self, args, workdir: Path, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seconds),
               str(args.trace), str(workdir)]
        if setup_only:
            cmd.append("setup")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     env={**os.environ, **WORKER_ENV})
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"worker did not start: {line.strip()!r}")

    def finish(self) -> dict | None:
        out, _ = self.proc.communicate()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        for line in out.splitlines():
            if line.startswith("result "):
                return json.loads(line[len("result "):])
        return None


def named_metrics(workload: str, res: dict, setup_s: float):
    """(end-to-end metrics for BENCHMARK.json, printed lines with every named metric)."""
    samples = res["samples"]
    times = [s[0] for s in samples]
    n = len(times)
    q = TAIL[workload]
    beyond = int(n * (100 - q) / 100)
    tail_ms = percentile(times, q) * 1000
    p50_ms = statistics.median(times) * 1000
    ops_per_s = n / res["busy_s"]
    tail_note = f"(p{q}, n={n}, {beyond} beyond{'' if beyond >= 10 else '; fewer than 10'})"
    lines = []
    if workload == "decide":
        lines += [("decisions_per_s", ops_per_s, "1/s", ""),
                  ("decide_p50_us", p50_ms * 1000, "us", f"(n={n})"),
                  ("decide_p99_us", tail_ms * 1000, "us", tail_note)]
    elif workload == "selftest":
        lines += [("selftest_s", p50_ms / 1000, "s", f"(median of {n} run_all)")]
        for suite in samples[0][1]:
            lines.append((f"selftest.{suite}", statistics.median(s[1][suite] for s in samples),
                          "s", "(SuiteResult.elapsed)"))
    else:
        lines += [("certs_per_s", ops_per_s, "1/s", ""),
                  ("emit_s", sum(s[1] for s in samples), "s", f"(sum over {n})"),
                  ("verify_s", sum(s[2] for s in samples), "s", f"(sum over {n})"),
                  ("roundtrip_p50_ms", p50_ms, "ms", f"(n={n})"),
                  ("roundtrip_tail_ms", tail_ms, "ms", tail_note),
                  ("cert_mb", sum(s[3] for s in samples) / 1e6, "MB", "(bytes written)")]
    lines += [("setup_s", setup_s, "s", f"(median of {SETUP_SAMPLES} workers)"),
              ("peak_rss_mb", res["peak_rss_mb"], "MB", ""),
              ("failed_share", res["failed"] / res["attempted"], "",
               f"({res['failed']}/{res['attempted']})")]
    e2e = {"ops_per_s": (ops_per_s, "1/s"), "op_p50_ms": (p50_ms, "ms"),
           "peak_rss_mb": (res["peak_rss_mb"], "MB"), "setup_s": (setup_s, "s")}
    return e2e, lines


def per_layer_metrics(res: dict):
    units = {"calls": "count", "comparisons": "count", "bytes": "bytes", "ops": "count"}
    metrics, lines = {}, []
    for name, value in res["per_layer"].items():
        layer, kind = name.rsplit(".", 1)
        metrics[name] = (value, units.get(kind, "s"))
        note = f"(absent: {res['absent'][layer]})" if layer in res["absent"] else ""
        lines.append((name, value, metrics[name][1], note))
    lines.append(("trace.untraced_busy_s", res["untraced_busy_s"], "s", ""))
    lines.append(("trace.traced_busy_s", res["traced_busy_s"], "s", f"({res['spans']} spans)"))
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbitcert" / "__init__.py").is_file():
        print(f"error: no orbitcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "selftest":
            corpus = [["run_all", gen.SELFTEST_SEED, gen.SELFTEST_COUNT]]
        else:
            corpus = gen.CORPORA[args.workload](args.seed)
            (workdir / "corpus.json").write_text(json.dumps(corpus))
        setup_times = []
        for _ in range(SETUP_SAMPLES - 1):
            w = Worker(args, workdir, deadline, True)
            w.finish()
            setup_times.append(w.setup_s)
        main_worker = Worker(args, workdir, deadline, False)
        setup_times.append(main_worker.setup_s)
        res = main_worker.finish()
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None or not res["samples"]:
        print("error: the worker completed no op", file=sys.stderr)
        return 1

    env = res["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} inputs {gen.corpus_hash(corpus)}")
    print(f"env nproc={os.cpu_count()} cpu={cpu_model()!r} python={env['python']} "
          f"numpy={env['numpy']}")
    setup_s = statistics.median(setup_times)
    if args.trace:
        metrics, lines = per_layer_metrics(res)
    else:
        metrics, lines = named_metrics(args.workload, res, setup_s)
    for name, value, unit, note in lines:
        print(f"  {name:<40} {value:>14.6g} {unit:<5} {note}".rstrip())
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
