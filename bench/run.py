"""ellipsum benchmark: four seeded workloads, timed end to end, traced per
module from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/ellipsum``; the package
need not be installed (children get ``PYTHONPATH=src``).  Workloads (see
``workloads.py`` for the inputs and why each was chosen):

  cli_cold       README subcommands, each a fresh ``python -m ellipsum.cli``
                 (run through ``cli_timed.py`` when untraced)
  laurent_exact  d2pt, S_zagier, mzv, sv_mzv, genus-0 exponents at 30-100 digits
  lattice_float  d3pt, R_structured, D_lattice, S_direct, zeta_A(_integral)
  emzv_series    EMZVs, modular vectors, iterated Eisenstein integrals,
                 Eisenstein/Kronecker/Green values

Every workload is a closed loop with one client and one operation at a time,
pinned to ``ELLIPSUM_THREADS=1``.  A pass runs the whole operation sequence in
a fresh interpreter (fresh CLI processes for ``cli_cold``), so caches start
cold as in a user's script; passes repeat until ``--seconds`` is used up.
The first pass checks every result against an independent reference; later
passes must reproduce its results bit for bit.

``--trace 0`` reports the end-to-end metrics in reference seconds: each
timed interval of an untraced pass is rescaled by calibration samples taken
inside the timed process during it, to the speed of a machine on which the
sample kernel takes ``calib.REF_S`` (see ``calib.py``; the shared host's
speed drifts by 20-30 % between runs).  The raw figures are printed after
them as a comment and kept in ``.bench_out/``.
  wall_s       median wall time of one pass (set-up excluded)
  op_p50_ms    median operation latency (each operation's median over passes)
  op_tail_ms   highest percentile of those with >= 10 operations beyond it
               (the maximum when a pass has fewer than 40 operations)
  setup_s      process start to ready (imports + input generation); for
               cli_cold a cold ``import ellipsum.cli``; median over the passes
               plus extra set-ups, at least three
  peak_rss_mb  peak resident memory of the workload process (largest CLI
               child for cli_cold), median over passes
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (``PER_LAYER``), including the tracing overhead.

Failures (a guard refusal, an exception, exit code 3, or a result outside
its tolerance) are counted in ``failed`` and ``fail_ratio``; ``correct`` is
false only when a result is wrong by more than ``ops.GROSS`` times its
tolerance, differs between passes, or a CLI call's output is malformed.
Time waited does not apply: nothing is queued.  Details of every run go to
``.bench_out/``; the last line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

import calib  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 3  # least number of set-ups per run, for the setup_s median

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}

# span name -> the statistics reported for it
FUNCTIONS = {
    "numkernel.mzv": ("calls", "self_s", "unique_ratio"),
    "mgf.S_zagier": ("calls", "self_s", "unique_ratio"),
    "mgf.d2pt": ("self_s",),
    "mgf.d3pt": ("self_s",),
    "mgf.R_structured": ("calls", "self_s"),
    "mgf.fftconvolve": ("calls", "self_s"),
    "mgf.D_lattice": ("self_s",),
    "mgf.S_direct": ("self_s",),
    "conical.zeta_A": ("calls", "self_s"),
    "conical.zeta_A_integral": ("self_s",),
    "qseries.QTauSeries.mul": ("calls", "self_s"),
    "qseries.reg_primitive": ("self_s",),
    "qseries.eval_with_bound": ("self_s",),
    "eisint.gamma": ("calls", "self_s", "unique_ratio"),
    "eisenstein.eis_Gbb": ("self_s",),
    "eisenstein.kronecker_F": ("self_s",),
    "eisenstein.f_n": ("self_s",),
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "unique_ratio": "ratio"}

PER_LAYER = {
    **{f"layer.{m}.self_s": "s" for m in tracer.MODULES},
    **{f"layer.{m}.errors": "count" for m in tracer.MODULES},
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.overhead_ms": "ms",
    **{f"{fn}.{stat}": _STAT_UNITS[stat] for fn, stats in FUNCTIONS.items() for stat in stats},
    "qseries.auto_q_order.mean": "count",
    "qseries.guard_trips": "count",
    "fail_ratio": "ratio",
    "trace.overhead_s": "s",
}

# the CLI call used to measure start-up overhead on the in-process workloads
_PROBE_ARGV = ["emzv", "binf", "--n", "9", "--zeros", "5"]


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    # the package is not installed: import it from the checkout
    env["PYTHONPATH"] = str(ROOT / "src")
    env["ELLIPSUM_THREADS"] = "1"
    # let the interpreter keep compiled bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, env, capture="stdout"):
    """Run one child to completion.  Returns (captured text, exit code, peak
    RSS in MB, spawn time, end time) on the monotonic clock."""
    spawn = time.monotonic()
    with open(OUT / "stderr.log", "a", encoding="utf-8") as errlog, subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture == "stdout" else subprocess.DEVNULL,
            stderr=subprocess.PIPE if capture == "stderr" else errlog,
            text=True) as proc:
        text = (proc.stdout if capture == "stdout" else proc.stderr).read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return text, proc.returncode, usage.ru_maxrss / 1024.0, spawn, end


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def environment(env) -> dict:
    """Stamp: versions, backend, pinned settings.  Also warms the bytecode
    cache untimed, as an installed package has it warm."""
    pycache = ROOT / "src" / "ellipsum" / "__pycache__"
    cache_before = pycache.is_dir() and any(pycache.glob("cli.*.pyc"))
    _, rc, *_ = run_child([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], env)
    if rc != 0:
        raise BenchError(f"cannot compile the package under {ROOT / 'src'}")
    probe = ("import json, sys, mpmath; from importlib.metadata import version; "
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': version('numpy'), "
             "'scipy': version('scipy'), 'mpmath': mpmath.__version__, "
             "'mpmath_backend': mpmath.libmp.BACKEND}))")
    text, rc, *_ = run_child([sys.executable, "-c", probe], env)
    if rc != 0:
        raise BenchError("cannot import mpmath")
    stamp = _last_json(text)
    try:
        commit, grc, *_ = run_child(["git", "rev-parse", "HEAD"], env)
        commit = commit.strip() if grc == 0 else "unavailable (not a git checkout)"
    except OSError:
        commit = "unavailable (git not found)"
    stamp.update({
        "commit": commit,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "ELLIPSUM_THREADS": env["ELLIPSUM_THREADS"],
        "PYTHONPATH": "src",
        "bytecode_cache_before": cache_before,
        "bytecode_cache_warm": pycache.is_dir() and any(pycache.glob("cli.*.pyc")),
    })
    return stamp


# ---------------------------------------------------------------------------
# passes


def _rescale(results, samples) -> None:
    """Give each operation result its ``ref_ms``: ``ms`` in reference
    seconds (see ``calib.py``)."""
    for r in results:
        r["ref_ms"] = r["ms"] * calib.scale(samples, r["start"], r["end"])


def _wall(results, key="ref_ms") -> float:
    """Seconds of a pass: the sum of its operations' (reference or raw)."""
    return sum(r[key] for r in results) / 1000.0


def _worker(workload, seed, env, flags) -> tuple[dict, float, float, float]:
    """Run one worker; returns (its JSON line, spawn, end, set-up seconds
    without calibration)."""
    text, rc, _, spawn, end = run_child(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), *flags], env)
    if rc != 0:
        raise BenchError(f"{workload} worker exited {rc}; see {OUT / 'stderr.log'}")
    doc = _last_json(text)
    return doc, spawn, end, doc["ready"] - spawn - doc["setup_stolen"]


def worker_pass(workload, seed, env, check, trace_path):
    flags = (["--check"] if check else []) + (["--trace-out", str(trace_path)] if trace_path else [])
    doc, spawn, end, setup = _worker(workload, seed, env, flags)
    p = {"setup_s": None, "raw_setup_s": setup, "rss_mb": doc["maxrss_kb"] / 1024.0,
         "ops": doc["ops"], "duration_s": end - spawn - doc["check_s"],
         "traces": [trace_path] if trace_path else []}
    p["raw_wall_s"] = _wall(doc["ops"], "ms")
    if not trace_path:  # a traced pass has no calibration samples
        _rescale(doc["ops"], doc["samples"])
        p["wall_s"] = _wall(doc["ops"])
        p["setup_s"] = setup * calib.scale(doc["samples"], spawn, doc["ready"])
    return p


def worker_setup(workload, seed, env) -> tuple[float, float]:
    """(reference, raw) spawn-to-ready time of one worker that stops once
    ready."""
    doc, spawn, _, setup = _worker(workload, seed, env, ["--setup-only"])
    return setup * calib.scale(doc["samples"], spawn, doc["ready"]), setup


def _cli_status(rc: int, text: str) -> tuple[str, str | None, float | None]:
    """(status, error, elapsed_ms) of one CLI call: exit 0 with a JSON
    result, exit 3 with a JSON error object (a guard refusal), exit 1 from
    ``verify`` with a failed check; anything else is malformed."""
    try:
        doc = json.loads(text)
    except ValueError:
        return "wrong", f"exit {rc}, output is not JSON", None
    if not isinstance(doc, dict):
        return "wrong", f"exit {rc}, output is not a JSON object", None
    if rc == 0 and "elapsed_ms" in doc:
        return "ok", None, doc["elapsed_ms"]
    if rc == 3 and "error" in doc:
        return "refused", f"{doc['error']['type']}: {doc['error']['message']}", None
    if rc == 1 and "checks" in doc:
        failed = [c["name"] for c in doc["checks"] if not c["pass"]]
        return "inexact", f"verify failed: {failed}", doc["elapsed_ms"]
    return "wrong", f"exit {rc} with unexpected output", None


def cli_timed(argv, env):
    """One CLI process under ``cli_timed.py``; returns (stdout, exit code,
    peak RSS, raw seconds, reference seconds)."""
    samples_path = OUT / "cli-samples.json"
    samples_path.unlink(missing_ok=True)
    text, rc, rss, spawn, end = run_child(
        [sys.executable, str(HERE / "cli_timed.py"), str(samples_path), *argv], env)
    if not samples_path.is_file():
        raise BenchError(f"CLI call {argv} exited {rc} without calibration samples")
    doc = json.loads(samples_path.read_text())
    seconds = end - spawn - doc["stolen"]
    return text, rc, rss, seconds, seconds * calib.scale(doc["samples"], spawn, end)


def cli_pass(ops, env, trace_dir):
    results, traces, rss = [], [], 0.0
    t0 = time.monotonic()
    for op in ops:
        if trace_dir is not None:
            path = trace_dir / f"cli-{op['id']}.json"
            traces.append(path)
            text, rc, child_rss, spawn, end = run_child(
                [sys.executable, str(HERE / "cli_trace.py"), str(path), *op["argv"]], env)
            seconds, ref = end - spawn, None
        else:
            text, rc, child_rss, seconds, ref = cli_timed(op["argv"], env)
        status, error, elapsed_ms = _cli_status(rc, text)
        rss = max(rss, child_rss)
        r = {"id": op["id"], "family": op["family"], "ms": 1000.0 * seconds, "status": status,
             "error": error, "elapsed_ms": elapsed_ms, "exit": rc}
        if ref is not None:
            r["ref_ms"] = 1000.0 * ref
        results.append(r)
    p = {"setup_s": None, "rss_mb": rss, "ops": results, "duration_s": time.monotonic() - t0,
         "traces": traces, "raw_wall_s": _wall(results, "ms")}
    if trace_dir is None:
        p["wall_s"] = _wall(results)
    return p


def cli_setup(env) -> list[tuple[float, float]]:
    """(reference, raw) times of cold ``import ellipsum.cli`` processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        _, rc, _, seconds, ref = cli_timed(["--import-only"], env)
        if rc != 0:
            raise BenchError("import ellipsum.cli failed")
        times.append((ref, seconds))
    return times


def run_passes(one_pass, seconds: float, trace: bool) -> list[dict]:
    """Repeat passes while the next one is expected to end within
    ``seconds`` of measuring (time spent checking results does not count).
    A traced run alternates untraced and traced passes and has at least one
    of each."""
    passes: list[dict] = []
    while True:
        i = len(passes)
        p = one_pass(check=(i == 0), traced=trace and i % 2 == 1, index=i)
        p["traced"] = trace and i % 2 == 1
        passes.append(p)
        spent = sum(q["duration_s"] for q in passes)
        typical = statistics.median(q["duration_s"] for q in passes)
        if len(passes) >= (2 if trace else 1) and spent + typical > seconds:
            return passes


def reconcile(passes: list[dict]) -> None:
    """Give the later passes of an in-process workload the statuses of the
    checked first pass, or mark a result that differs from it as wrong."""
    first = {r["id"]: r for r in passes[0]["ops"]}
    for p in passes[1:]:
        for r in p["ops"]:
            ref = first[r["id"]]
            if r["digest"] != ref["digest"]:
                r["status"], r["error"] = "wrong", "result differs from the first pass"
            else:
                r.update({k: ref[k] for k in ("status", "error", "err", "tol") if k in ref})


FAILED = ("refused", "inexact", "wrong")


def tally(results: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over operation results.  Refusals and
    results outside their tolerance fail; only a wrong result (or malformed
    CLI output) makes the run incorrect."""
    failed = sum(r["status"] in FAILED for r in results)
    return len(results), failed, not any(r["status"] == "wrong" for r in results)


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten of the
    values beyond it.  Below forty values that percentile would sit at or
    near the median, so the maximum is reported instead."""
    s = sorted(values)
    n = len(s)
    if n < 40:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setup_times, key="ref_ms"):
    """The end-to-end metrics in reference seconds (``key="ms"``: raw)."""
    raw = key == "ms"
    untraced = [p for p in passes if not p["traced"]]
    per_op: dict[int, list[float]] = {}
    for p in untraced:
        for r in p["ops"]:
            per_op.setdefault(r["id"], []).append(r[key])
    latencies = [statistics.median(v) for v in per_op.values()]
    tail_ms, pct = tail(latencies)
    metrics = {
        "wall_s": statistics.median(p["raw_wall_s" if raw else "wall_s"] for p in untraced),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(t[1 if raw else 0] for t in setup_times),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }
    notes = {
        "wall_s": f"median of {len(untraced)} passes",
        "op_p50_ms": f"{len(latencies)} operations x {len(untraced)} passes",
        "op_tail_ms": f"p{pct:.1f} of {len(latencies)} per-operation medians, "
                      f"{len(untraced) * len(latencies)} samples",
        "setup_s": f"median of {len(setup_times)}",
        "peak_rss_mb": f"median of {len(untraced)} passes",
    }
    return metrics, notes


def importtime(env) -> tuple[float, float]:
    """(import ellipsum.cli, all scipy modules) in seconds, from
    ``python -X importtime``."""
    text, rc, *_ = run_child([sys.executable, "-X", "importtime", "-c", "import ellipsum.cli"],
                             env, capture="stderr")
    if rc != 0:
        raise BenchError("python -X importtime failed")
    total = scipy = 0.0
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "ellipsum.cli":
            total = cum_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return total, scipy


def per_layer(passes, env, workload, fail_ratio):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        stats = tracer.aggregate([json.loads(Path(t).read_text()) for t in p["traces"]])
        row = {}
        for m in tracer.MODULES:
            names = [n for n in stats if n.split(".")[0] == m]
            row[f"layer.{m}.self_s"] = sum(stats[n]["self_s"] for n in names)
            row[f"layer.{m}.errors"] = sum(stats[n]["errors"] for n in names)
        for fn, wanted in FUNCTIONS.items():
            st = stats.get(fn, {"calls": 0, "self_s": 0.0, "distinct": 0})
            for stat in wanted:
                if stat == "unique_ratio":
                    row[f"{fn}.{stat}"] = st["distinct"] / st["calls"] if st["calls"] else 0.0
                else:
                    row[f"{fn}.{stat}"] = st[stat]
        q = stats.get("qseries.auto_q_order", {}).get("values", [])
        row["qseries.auto_q_order.mean"] = sum(q) / len(q) if q else 0.0
        ewb = stats.get("qseries.eval_with_bound", {"error_types": {}})
        row["qseries.guard_trips"] = ewb["error_types"].get("GuardError", 0)
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = importtime(env)
    if workload == "cli_cold":
        overheads = [r["ms"] - r["elapsed_ms"] for p in untraced for r in p["ops"]
                     if r.get("elapsed_ms") is not None]
    else:
        text, rc, _, spawn, end = run_child([sys.executable, "-m", "ellipsum.cli", *_PROBE_ARGV],
                                            env)
        overheads = [1000.0 * (end - spawn) - json.loads(text)["elapsed_ms"]]
    metrics["cli.overhead_ms"] = statistics.median(overheads)
    metrics["fail_ratio"] = fail_ratio
    metrics["trace.overhead_s"] = (statistics.median(p["raw_wall_s"] for p in traced)
                                   - statistics.median(p["raw_wall_s"] for p in untraced))
    return metrics


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ellipsum" / "__init__.py").is_file():
        print(f"error: no ellipsum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    stamp = environment(env)
    stamp["seed"] = args.seed
    ops = generate(args.workload, args.seed)
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def trace_dir(index):
        d = OUT / f"spans-{tag}-pass{index}"
        d.mkdir(exist_ok=True)
        return d

    if args.workload == "cli_cold":
        setup_times = cli_setup(env)

        def one_pass(check, traced, index):
            return cli_pass(ops, env, trace_dir(index) if traced else None)
    else:
        setup_times = None

        def one_pass(check, traced, index):
            path = trace_dir(index) / "worker.json" if traced else None
            return worker_pass(args.workload, args.seed, env, check, path)

    passes = run_passes(one_pass, args.seconds, trace)
    if setup_times is None:
        reconcile(passes)
        setup_times = [(p["setup_s"], p["raw_setup_s"]) for p in passes if not p["traced"]]
        while not trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(worker_setup(args.workload, args.seed, env))

    results = [r for p in passes for r in p["ops"]]
    attempted, failed, correct = tally(results)

    if trace:
        metrics = per_layer(passes, env, args.workload, failed / attempted)
        units = PER_LAYER
        notes, raw_metrics = {}, {}
    else:
        metrics, notes = end_to_end(passes, setup_times)
        units = END_TO_END
        raw_metrics = end_to_end(passes, setup_times, key="ms")[0]

    lines = [
        f"# ellipsum benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}",
        "# " + json.dumps(stamp, sort_keys=True),
        "# closed loop, 1 client, 1 operation at a time; time waited: not applicable "
        "(single-threaded, nothing is queued)",
    ]
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:34s} {value:14.6f} {units[name]}{note}")
    if raw_metrics:
        lines.append("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw_metrics.items()))
    lines.append(f"# failed {failed} of {attempted} operations")
    for family in sorted({r["family"] for r in results}):
        bad = [r for r in results if r["family"] == family and r["status"] in FAILED]
        if bad:
            first = bad[0]
            why = first["error"] or f"error {first['err']:.3g} > tolerance {first['tol']:.3g}"
            lines.append(f"#   {family}: {len(bad)} x {first['status']}: {why}")
    print("\n".join(lines))

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": stamp, "metrics": metrics,
              "unscaled_metrics": raw_metrics,
              "attempted": attempted, "failed": failed, "correct": correct,
              "setup_times": setup_times,
              "passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
