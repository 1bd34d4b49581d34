"""Smoke test of the benchmark itself.

    python3 -m pytest -q verdictbench/test_smoke.py

A short run of each workload, every hook target resolving, and tamper
tests: one changed coefficient (or verdict) must make each check fail.
"""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from check import check_records  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import HOOKS, Tracer, resolve  # noqa: E402

SEED = 7


def worker_records(workload, mode="run", seconds=0.5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(SEED),
         str(seconds), mode, repr(time.monotonic())],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return [x["record"] for x in lines[:-1]], lines[-1]["summary"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_by_the_blocks_measured_beside_them():
    ref = calibrate.REF_BLOCK_S
    # groups of at least WINDOW_S: ops 0-1 saw blocks at twice the
    # reference time, op 2 at the reference time
    out = calibrate.normalize([0.2, 0.1, 0.3], [4 * ref, 0, 3 * ref], [2, 0, 3])
    assert out == pytest.approx([0.1, 0.05, 0.3])
    # a short last group without blocks joins the one before
    out = calibrate.normalize([0.3, 0.01], [2 * ref, 0], [1, 0])
    assert out == pytest.approx([0.15, 0.005])


def test_every_hook_target_resolves():
    assert [t for t, _ in HOOKS if resolve(t) is None] == []


def test_hooks_see_from_imports_and_uninstall():
    import gring.ring as ring
    import gring.groebner as groebner

    orig = groebner.buchberger
    kf2 = ring.build_KF(2)
    tracer = Tracer()
    tracer.install()
    try:
        assert ring.buchberger is groebner.buchberger is not orig
        ring.QuotientRing(kf2.vids, [], order=kf2.order)
        assert tracer.calls["groebner.buchberger"] == 1
        assert tracer.calls["ring.QuotientRing.__init__"] == 1
    finally:
        tracer.uninstall()
    assert ring.buchberger is orig is groebner.buchberger


def test_missing_target_is_reported_untraced(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("groebner.no_such_engine", tracing.SPAN),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.untraced == ["groebner.no_such_engine"]
    assert tracer.metrics()["groebner.no_such_engine.calls"] == 0


def test_trace_counts_repeat_exactly():
    runs = [worker_records("module_arith", "trace")[1]["trace"] for _ in range(2)]
    counts = [
        {k: v for k, v in r["metrics"].items() if not k.endswith("_s") and "ratio" not in k}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["kernel.reduce_nd.calls"] > 0
    assert runs[0]["untraced"] == []


def _tamper_first_coefficient(terms):
    mono, coeff = terms[0]
    terms[0] = [mono, str(int(coeff.split("/")[0]) + 1) + coeff[len(coeff.split("/")[0]):]]


def test_tamper_ideal_calculus():
    records, _ = worker_records("ideal_calculus")
    assert check_records("ideal_calculus", records, SEED) == []
    for k in (0, len(records) - 1):
        bad = copy.deepcopy(records)
        bad[k]["got"] = {True: False, "CertifiedNo": "Inconclusive",
                         "Inconclusive": "CertifiedNo"}[bad[k]["got"]]
        assert check_records("ideal_calculus", bad, SEED)


def test_tamper_certify():
    records, _ = worker_records("certify")
    assert check_records("certify", records, SEED) == []
    fields = ("theta_image", "remainder", "leading_coefficient", "unit_certificate")
    for field in fields:
        bad = copy.deepcopy(records[:1])
        cert = bad[0]["certificate"]
        head, sep, tail = cert[field].partition(" ")
        # change the first term's coefficient: "c*..." -> "(c+1)*..."
        body = head.lstrip("-")
        coeff, star, rest = body.partition("*")
        if coeff.isdigit():
            body = f"{int(coeff) + 1}{star}{rest}"
        else:
            body = f"2*{body}"
        cert[field] = ("-" if head.startswith("-") else "") + body + sep + tail
        assert check_records("certify", bad, SEED), field
    bad = copy.deepcopy(records[:1])
    bad[0]["certificate"]["degree"] = bad[0]["r"] - 2
    assert check_records("certify", bad, SEED)


def test_tamper_module_arith():
    records, _ = worker_records("module_arith")
    assert check_records("module_arith", records, SEED) == []
    for kind in ("embed", "product", "dot", "bracket"):
        k = next(i for i, r in enumerate(records) if r["kind"] == kind
                 and (r.get("poly") or any(r.get("elem", {}).get(part) for part in ("vec", "brk"))))
        bad = copy.deepcopy(records)
        rec = bad[k]
        if kind == "dot":
            _tamper_first_coefficient(rec["poly"])
        else:
            part = rec["elem"]["brk"] or rec["elem"]["vec"]
            _tamper_first_coefficient(next(iter(part.values())))
        assert check_records("module_arith", bad, SEED), kind
    bad = copy.deepcopy(records)
    battery = next(r for r in bad if r["kind"] == "battery")
    battery["identities"][0]["ok"] = False
    assert check_records("module_arith", bad, SEED)


def test_tamper_properness():
    records, _ = worker_records("properness")
    with_basis = [r for r in records if "basis" in r]
    assert with_basis and check_records("properness", records, SEED) == []
    rec = with_basis[0]
    for where in ("basis", "generators"):
        bad = copy.deepcopy(rec)
        polys = bad[where]
        k = next(i for i, p in enumerate(polys) if len(p) > 1)
        _tamper_first_coefficient(polys[k])
        assert check_records("properness", [bad], SEED), where
    bad = copy.deepcopy(rec)
    bad["properness"] = "whole-ring"
    assert check_records("properness", [bad], SEED)
