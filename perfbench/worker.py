"""One benchmark worker: set up, run one workload in a closed loop, report.

Started by run.py as `python3 perfbench/worker.py <workload> <seconds> <trace>
<workdir> [setup]`.  It imports `orbitcert` from the checkout's
`src/`, runs one warm-up op and prints `ready`; with `setup` it stops there.
Otherwise it reads the inputs run.py wrote to <workdir>/corpus.json, runs
ops one after another until `seconds` of op time have passed, checks every
output outside the timed region, and prints one `result <json>` line.  With
trace 1 it then runs the same ops again with spans at the layer boundaries.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import orbitcert  # noqa: E402
import orbitcert.cli  # noqa: E402
import orbitcert.selftest  # noqa: E402
from orbitcert import decide, supernatural  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

# metric -> the public functions it times, named as module.function
LAYERS = {
    "supernatural.parse_sn_list": ("supernatural.parse_sn_list",),
    "decide.coe_decide": ("decide.coe_decide",),
    "decide.conj_decide": ("decide.conj_decide",),
    "intmat.solve_conjugator": ("intmat.solve_conjugator",),
    "decide.k_invariant": ("decide.k_invariant",),
    "witness.build_coe_witness": ("witness.build_coe_witness",),
    "witness.build_conj_witness": ("witness.build_conj_witness",),
    "certificates.witness_block": ("certificates.coe_witness_block",
                                   "certificates.conj_witness_block"),
    "certificates.dumps": ("certificates.dumps",),
    "certificates.loads": ("certificates.loads",),
    "certificates.witness_from_block": ("certificates.coe_witness_from_block",
                                        "certificates.conj_witness_from_block"),
    "certificates.verify_certificate": ("certificates.verify_certificate",),
    "cocycle.verify_coe": ("cocycle.verify_coe",),
    "cocycle.verify_conj": ("cocycle.verify_conj",),
    "cocycle.untwist_to_conjugacy": ("cocycle.untwist_to_conjugacy",),
    "decide.eig_cross_check": ("decide.eig_cross_check",),
    "decide.eig_group_oracle": ("decide.eig_group_oracle",),
    "oracles.conjugacy_bruteforce": ("oracles.conjugacy_bruteforce",),
    "selftest.generate_instances": ("selftest.generate_instances",),
    "cli.main": ("cli.main",),
}
CALL_COUNTS = ("decide.k_invariant", "decide.eig_group_oracle")
SUITES = ("invariant-vs-decision", "coe-witness-soundness", "conj-witness-soundness",
          "smith-normal-form", "conj-vs-bruteforce", "eigenvalue-cross-check",
          "counterexample-family", "cohomology-roundtrip")


def _count_comparisons(counts, report):
    counts["cocycle.comparisons"] += sum(c.checked for c in report.checks)


def _count_bytes(counts, text):
    counts["certificates.bytes"] += len(text.encode("utf-8"))


HOOKS = {
    "cocycle.verify_coe": _count_comparisons,
    "cocycle.verify_conj": _count_comparisons,
    "certificates.dumps": _count_bytes,
}


# ---------------------------------------------------------------------------
# ops: each returns (timings, output); the output is checked afterwards


def decide_op(item):
    ms_text, ns_text = item[0], item[1]
    t0 = time.perf_counter()
    ms = supernatural.parse_sn_list(ms_text)
    ns = supernatural.parse_sn_list(ns_text)
    coe = decide.coe_decide(ms, ns)
    conj = decide.conj_decide(ms, ns)
    kl, kr = decide.k_invariant(ms), decide.k_invariant(ns)
    return [time.perf_counter() - t0], (coe, conj, kl, kr)


def _product_exps(n: int, side: dict) -> dict:
    """Exponents of n * side, with an infinite exponent absorbing."""
    out = dict(side)
    for p, e in gen.factorize(n).items():
        if out.get(p) != gen.INF:
            out[p] = out.get(p, 0) + e
    return out


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _rows(m):
    return [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


def check_decide(item, out) -> list[str]:
    ms_text, ns_text, kind = item[0], item[1], item[2]
    coe, conj, kl, kr = out
    bad = []
    if (kl == kr) != bool(coe):
        bad.append(f"k-invariant equality {kl == kr} but coe {bool(coe)}")
    if conj and not coe:
        bad.append("conjugate but not orbit equivalent")
    if kind in ("coe+", "conj+") and not coe:
        bad.append(f"{kind} pair decided not orbit equivalent")
    if kind == "conj+" and not conj:
        bad.append("conj+ pair decided not conjugate")
    ms, ns = gen.parse_side(ms_text), gen.parse_side(ns_text)
    for pair in coe.pairs or ():
        if _product_exps(pair.m, ms[pair.left_index]) != _product_exps(pair.n, ns[pair.right_index]):
            bad.append(f"m*M != n*N for pair {pair}")
    for blk in conj.blocks or ():
        s, t = blk.conjugator
        lhs = _matmul(_matmul(_rows(s), [[m if i == j else 0 for j in range(len(blk.left_multipliers))]
                                         for i, m in enumerate(blk.left_multipliers)]), _rows(t))
        rhs = [[n if i == j else 0 for j in range(len(blk.right_multipliers))]
               for i, n in enumerate(blk.right_multipliers)]
        if lhs != rhs:
            bad.append(f"S diag(m) T != diag(n) in block {blk.left_indices}")
    return [f"{ms_text} | {ns_text}: {b}" for b in bad]


def cert_op(relation, item, path):
    ms, ns, _kind, level = item
    emitted, verified = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(emitted):
        rc_w = orbitcert.cli.main(["witness", relation, ms, ns, "--level", str(level),
                                   "--out", path])
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(verified):
        rc_v = orbitcert.cli.main(["verify", path])
    t2 = time.perf_counter()
    size = os.path.getsize(path)
    os.remove(path)
    return [t2 - t0, t1 - t0, t2 - t1, size], (rc_w, rc_v, verified.getvalue())


def check_cert(item, out) -> list[str]:
    rc_w, rc_v, text = out
    if rc_w == 0 and rc_v == 0 and "verification passed" in text:
        return []
    return [f"{item[0]} | {item[1]}: witness exit {rc_w}, verify exit {rc_v}"]


def selftest_op(seed):
    t0 = time.perf_counter()
    results = orbitcert.selftest.run_all(seed, gen.SELFTEST_COUNT)
    return [time.perf_counter() - t0, {r.name: r.elapsed for r in results}], results


def check_selftest(_item, results) -> list[str]:
    return [r.summary() for r in results if not r.ok]


def make_workload(name, workdir):
    """(op inputs, or None to read them from the corpus file; op; check;
    warm-up input, or None for a cheap selftest suite)."""
    if name == "decide":
        return None, decide_op, check_decide, (*gen.README_COE, "coe+", 0)
    if name in ("coe-cert", "conj-cert"):
        relation = name.split("-")[0]
        path = str(Path(workdir) / "cert.json")
        return (None, lambda item: cert_op(relation, item, path), check_cert,
                ("2^inf", "2^inf", "setup", 1))
    return [gen.SELFTEST_SEED], selftest_op, check_selftest, None


def run_loop(items, op, check, seconds, count=None):
    """Closed loop over items until `seconds` of op time, or `count` ops."""
    samples, failures = [], []
    busy, i = 0.0, 0
    while (busy < seconds) if count is None else (i < count):
        item = items[i % len(items)]
        i += 1
        t0 = time.perf_counter()
        try:
            timings, out = op(item)
        except Exception as e:  # a crashing op is a failed op; keep measuring
            busy += time.perf_counter() - t0
            failures.append(f"{item!r}: {e!r}")
            continue
        busy += timings[0]
        samples.append(timings)
        try:
            failures.extend(check(item, out))
        except Exception as e:
            failures.append(f"{item!r}: check raised {e!r}")
    return i, busy, samples, failures


def main(argv):
    name, seconds, trace, workdir = argv[:4]
    seconds, trace = float(seconds), int(trace)
    if not Path(orbitcert.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"orbitcert imported from {orbitcert.__file__}, not {ROOT / 'src'}")
    items, op, check, warm = make_workload(name, workdir)
    if warm is None:
        orbitcert.selftest.suite_counterexample()
    else:
        op(warm)
    print("ready", flush=True)
    if argv[4:] == ["setup"]:
        return 0
    if items is None:
        items = json.loads((Path(workdir) / "corpus.json").read_text())
    n, busy, samples, failures = run_loop(items, op, check, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"env": {"python": platform.python_version(), "numpy": numpy.__version__},
              "attempted": n, "busy_s": busy, "samples": samples,
              "failed": len(failures), "failures": failures[:5], "peak_rss_mb": rss_mb}
    if trace:
        tracer = Tracer()
        absent = tracer.install(LAYERS, HOOKS)

        def traced(item):
            tracer.op += 1
            return tracer.call("op", op, item)

        tn, tbusy, tsamples, tfailures = run_loop(items, traced, check, seconds, count=n)
        tracer.uninstall()
        seconds_by_name, calls = tracer.summary()
        layer = {f"{m}.s": seconds_by_name.get(m, 0.0) for m in LAYERS}
        for m in CALL_COUNTS:
            layer[f"{m}.calls"] = calls.get(m, 0)
        layer["cocycle.comparisons"] = tracer.counts["cocycle.comparisons"]
        layer["certificates.bytes"] = tracer.counts["certificates.bytes"]
        for suite in SUITES:
            layer[f"selftest.{suite}.s"] = (
                sum(s[1].get(suite, 0.0) for s in tsamples) if name == "selftest" else 0.0)
        layer["trace.ops"] = tn
        layer["trace.overhead_s"] = tbusy - busy
        result.update(attempted=tn, failed=len(tfailures), failures=tfailures[:5],
                      per_layer=layer, absent=absent, untraced_busy_s=busy,
                      traced_busy_s=tbusy, spans=len(tracer.names))
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
