"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(gen.CORPORA))
def test_generator_is_deterministic_per_seed(workload):
    make = gen.CORPORA[workload]
    assert make(5) == make(5)
    assert gen.corpus_hash(make(5)) == gen.corpus_hash(make(5))
    assert make(5) != make(6)


def test_generated_sides_round_trip_through_the_parser():
    for ms, ns, _kind, _level in gen.decide_corpus(3, 200):
        for text in (ms, ns):
            side = gen.parse_side(text)
            assert gen.side_str(side) == text
            assert all(gen.INF in f.values() for f in side)


def test_decide_mix_is_exact():
    corpus = gen.decide_corpus(9)
    ranks = [len(gen.parse_side(ms)) for ms, *_ in corpus]
    assert sum(r >= 8 for r in ranks) == len(corpus) // 20
    positives = sum(kind in ("coe+", "conj+") for _, _, kind, _ in corpus)
    assert abs(positives - len(corpus) // 2) <= len(corpus) // 100


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert not list(HERE.glob(".work-*"))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = _run("decide", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_self_time_never_exceeds_its_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def mid():
        tracer.call("leaf", leaf)
        time.sleep(0.001)
        tracer.call("leaf", leaf)

    for _ in range(3):
        tracer.op += 1
        tracer.call("op", tracer.call, "mid", mid)
    selfs = tracer.self_times()
    for i, st in enumerate(selfs):
        dur = tracer.ends[i] - tracer.starts[i]
        assert -1e-9 <= st <= dur
    # self times of a tree add up to its root's duration
    for i, name in enumerate(tracer.names):
        if name == "op":
            tree = [j for j in range(len(selfs)) if tracer.ops[j] == tracer.ops[i]]
            assert sum(selfs[j] for j in tree) == pytest.approx(tracer.ends[i] - tracer.starts[i])
    seconds, calls = tracer.summary()
    assert calls == {"op": 3, "mid": 3, "leaf": 6}
    assert seconds["leaf"] >= 6 * 0.002


def test_traced_program_spans(tmp_path):
    import worker

    tracer = Tracer()
    absent = tracer.install({**worker.LAYERS, "nowhere.f": ("nowhere.f",)}, worker.HOOKS)
    try:
        assert set(absent) == {"nowhere.f"}
        for item in gen.decide_corpus(2, 40):
            tracer.op += 1
            tracer.call("op", worker.decide_op, item)
        tracer.op += 1
        timings, out = tracer.call("op", worker.cert_op, "coe",
                                   ("2^inf,3^inf", "3^inf,2^inf", "coe+", 1),
                                   str(tmp_path / "c.json"))
        assert worker.check_cert(None, out) == []
    finally:
        tracer.uninstall()
    import orbitcert.cli
    assert orbitcert.cli.coe_decide.__module__ == "orbitcert.decide"
    assert not hasattr(orbitcert.cli.coe_decide, "__wrapped__")
    for i, st in enumerate(tracer.self_times()):
        assert -1e-9 <= st <= tracer.ends[i] - tracer.starts[i]
    _, calls = tracer.summary()
    assert calls["decide.k_invariant"] == 80
    assert calls["cli.main"] == 2
    assert tracer.counts["certificates.bytes"] == timings[3]
    assert tracer.counts["cocycle.comparisons"] > 0
