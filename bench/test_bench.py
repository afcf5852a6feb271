"""Tests of the benchmark itself (not of the package):

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

from ellipsum.qseries import GuardError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_share_the_composition(workload):
    def families(seed):
        return Counter(op["family"] for op in generate(workload, seed))

    assert families(1) == families(2) == families(3)


def test_every_metric_is_declared_with_its_unit():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    named = (
        [f"layer.{m}.{s}" for m in tracer.MODULES for s in ("self_s", "errors")]
        + ["cli.import_s", "cli.import_scipy_s", "cli.overhead_ms",
           "numkernel.mzv.calls", "numkernel.mzv.self_s", "numkernel.mzv.unique_ratio",
           "mgf.S_zagier.calls", "mgf.S_zagier.self_s", "mgf.S_zagier.unique_ratio",
           "mgf.d2pt.self_s", "mgf.d3pt.self_s", "mgf.R_structured.calls",
           "mgf.R_structured.self_s", "mgf.fftconvolve.calls", "mgf.fftconvolve.self_s",
           "mgf.D_lattice.self_s", "mgf.S_direct.self_s", "conical.zeta_A.calls",
           "conical.zeta_A.self_s", "conical.zeta_A_integral.self_s",
           "qseries.QTauSeries.mul.calls", "qseries.QTauSeries.mul.self_s",
           "qseries.reg_primitive.self_s", "qseries.eval_with_bound.self_s",
           "qseries.auto_q_order.mean", "qseries.guard_trips", "eisint.gamma.calls",
           "eisint.gamma.self_s", "eisint.gamma.unique_ratio", "eisenstein.eis_Gbb.self_s",
           "eisenstein.kronecker_F.self_s", "eisenstein.f_n.self_s", "fail_ratio",
           "trace.overhead_s"])
    assert set(named) <= set(declared_layer)
    assert {"wall_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"} == set(declared_e2e)


def _s_sum_ops():
    return [{"id": i, "family": "S_zagier", "m": 2, "n": n, "digits": 40}
            for i, n in enumerate((0, 1, 2))]


def test_guard_trip_and_wrong_result_are_counted_as_failures():
    op_list = _s_sum_ops()

    def run_op(op):
        if op["id"] == 0:
            raise GuardError("forced guard trip")
        value = ops.run(op)
        return value * (1 + mp.mpf("1e-10")) if op["id"] == 1 else value

    results, values = worker.run_ops(op_list, run_op, ops.digest)
    worker.check_ops(op_list, results, values, ops.check, ops.GROSS)
    assert [r["status"] for r in results] == ["refused", "wrong", "ok"]
    attempted, failed, correct = run.tally(results)
    assert (attempted, failed, correct) == (3, 2, False)


def test_result_just_outside_tolerance_fails_but_stays_correct():
    op_list = _s_sum_ops()[:1]

    def run_op(op):
        with mp.workdps(60):
            return ops.run(op) + mp.mpf("1e-38")

    results, values = worker.run_ops(op_list, run_op, ops.digest)
    worker.check_ops(op_list, results, values, ops.check, ops.GROSS)
    assert results[0]["status"] == "inexact"
    assert run.tally(results) == (1, 1, True)


def test_cli_status_classifies_exit_codes():
    refused = json.dumps({"error": {"type": "GuardError", "message": "q_order"}})
    assert run._cli_status(3, refused)[0] == "refused"
    assert run._cli_status(0, json.dumps({"value": "1", "elapsed_ms": 1.0}))[0] == "ok"
    assert run._cli_status(0, "Traceback ...")[0] == "wrong"
    assert run._cli_status(2, "")[0] == "wrong"


def test_later_pass_that_differs_is_wrong():
    first = {"ops": [{"id": 0, "status": "ok", "error": None, "digest": "1"}]}
    later = {"ops": [{"id": 0, "status": "ok", "error": None, "digest": "2"}]}
    run.reconcile([first, later])
    assert later["ops"][0]["status"] == "wrong"


def test_tail_percentile_keeps_ten_values_beyond_it():
    values = [float(i) for i in range(100)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail(values[:30]) == (29.0, 100.0)


def test_tracer_self_time_and_innermost_errors(tmp_path):
    rec = tracer.install()
    from ellipsum import mgf, numkernel
    from ellipsum.numkernel import PrecisionCtx

    rec.on = True
    try:
        mgf.S_zagier(3, 1, PrecisionCtx(20))
        with pytest.raises(ValueError):
            numkernel.mzv((2, 1), PrecisionCtx(20))
    finally:
        rec.on = False  # the wrappers stay installed but pass calls straight through
    path = tmp_path / "spans.json"
    rec.dump(str(path))
    stats = tracer.aggregate([json.loads(path.read_text())])
    assert stats["mgf.S_zagier"]["calls"] == 1
    assert stats["numkernel.mzv"]["calls"] == 2
    assert stats["numkernel.mzv"]["errors"] == 1
    assert stats["numkernel.mzv"]["distinct"] == 2
    total = sum(s["self_s"] for s in stats.values())
    assert 0 < stats["mgf.S_zagier"]["self_s"] <= total


def test_calibration_leaves_out_its_own_time_and_preemptions():
    def busy(op):
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.1:
            pass
        return mp.mpf(op["id"])

    sampler = calib.Sampler().start()
    try:
        results, _ = worker.run_ops(_s_sum_ops(), busy, ops.digest, sampler=sampler)
    finally:
        sampler.stop()
    assert sampler.samples and sampler.stolen > 0
    span = 1000.0 * (results[-1]["end"] - results[0]["start"])
    assert sum(r["ms"] for r in results) <= span - 1000.0 * sampler.stolen + 1.0
    # one preempted sample among steady ones does not move the factor
    samples = [(0.01 * i, 0.001) for i in range(20)] + [(0.1, 0.05)]
    assert calib.scale(samples, 0.05, 0.15) == pytest.approx(calib.REF_S / 0.001)
    with pytest.raises(ValueError):
        calib.scale(samples, 5.0, 6.0)
