"""One pass of an in-process workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED [--check] [--trace-out PATH] [--setup-only]

Imports the modules a user script for this workload would import, generates
the operations from the seed, then runs them one at a time.  ``--check``
compares every result with its reference after the last operation;
``--trace-out`` wraps the library's public functions and writes the spans
there.  Prints one JSON line: the moment the pass was ready (on the
system-wide monotonic clock, so the parent can measure set-up from spawn),
per-operation start and end times, latencies and statuses, the calibration
samples of an untraced pass (``calib.py``) and the time they took during
set-up, peak RSS and the time the checks took.
``--setup-only`` stops once the pass is ready, for extra set-up samples.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time

import calib

# what a user script for each workload imports
_MODULES = {
    "laurent_exact": ("numkernel", "mgf", "genus0"),
    "lattice_float": ("mgf", "conical"),
    "emzv_series": ("qseries", "eisenstein", "emzv"),
}


def run_ops(op_list, run, digest, rec=None, sampler=None):
    """Time each operation; an exception is recorded as a refusal.  Time
    the ``sampler`` (``calib.Sampler``) spends calibrating is left out.
    Returns (results, values by operation id)."""
    results, values = [], {}
    for op in op_list:
        stolen = sampler.stolen if sampler else 0.0
        start = time.monotonic()
        t0 = time.perf_counter()
        error = None
        try:
            if rec is not None:
                with rec.span("op." + op["family"]):
                    value = run(op)
            else:
                value = run(op)
        except Exception as exc:  # a refused or crashed operation is a counted failure
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - ((sampler.stolen - stolen) if sampler else 0.0)
        values[op["id"]] = value
        results.append({"id": op["id"], "family": op["family"], "start": start,
                        "end": time.monotonic(), "ms": 1000.0 * seconds,
                        "status": "refused" if error else "ok", "error": error,
                        "digest": None if error else digest(value)})
    return results, values


def check_ops(op_list, results, values, check, gross):
    """Set each successful result's status to ok, inexact (outside its
    tolerance), wrong (outside ``gross`` times it) or unchecked (a partner
    operation was refused)."""
    by_group: dict[str, list] = {}
    for op in op_list:
        if "group" in op:
            by_group.setdefault(op["group"], []).append(op)
    for op, res in zip(op_list, results):
        if res["status"] != "ok":
            continue
        err, tol = check(op, values[op["id"]], values, by_group)
        if err is None:
            res["status"] = "unchecked"
            continue
        res["err"], res["tol"] = float(err), float(tol)
        if err > gross * tol:
            res["status"] = "wrong"
        elif err > tol:
            res["status"] = "inexact"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(_MODULES))
    parser.add_argument("seed", type=int)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # untraced passes are calibrated from their start (see calib.py)
    sampler = None if args.trace_out else calib.Sampler().start()
    for name in _MODULES[args.workload]:
        importlib.import_module(f"ellipsum.{name}")
    import ops
    from workloads import generate

    op_list = generate(args.workload, args.seed)
    ready = time.monotonic()
    setup_stolen = sampler.stolen if sampler else 0.0
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"ready": ready, "setup_stolen": setup_stolen,
                          "samples": sampler.samples}))
        return

    rec = None
    if args.trace_out:
        import tracer

        rec = tracer.install()
        rec.on = True
    results, values = run_ops(op_list, ops.run, ops.digest, rec, sampler)
    if sampler:
        sampler.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rec is not None:
        rec.on = False
        rec.dump(args.trace_out)

    t_check = time.perf_counter()
    if args.check:
        check_ops(op_list, results, values, ops.check, ops.GROSS)
    print(json.dumps({"ready": ready, "setup_stolen": setup_stolen,
                      "samples": sampler.samples if sampler else [], "maxrss_kb": maxrss_kb,
                      "check_s": time.perf_counter() - t_check, "ops": results}))


if __name__ == "__main__":
    main()
