"""Spans around the public functions of the ellipsum modules, recorded from
outside the package.

``install()`` wraps every function named in a module's ``__all__``, the
public methods of the classes named there (``PrecisionCtx`` excepted) and the
extra kernels in ``_EXTRA``, and rebinds each wrapper in every ellipsum
module that holds the original (``numkernel.mzv`` and ``mgf.mzv`` alike).
Spans (name, start, end, parent, error) are kept in memory and written out
by ``dump()``; ``aggregate()`` turns them into per-function self times
and counts.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter

import mpmath as mp

MODULES = ("cli", "numkernel", "qseries", "laurent", "eisenstein", "eisint",
           "emzv", "mgf", "conical", "genus0")

# module -> names that are not in __all__ but are layer boundaries of interest
_EXTRA = {"mgf": ("fftconvolve",)}

_SKIP_CLASSES = {"PrecisionCtx"}


def _mzv_key(args, kwargs):
    return (tuple(args[0]), args[1].dps)


def _s_zagier_key(args, kwargs):
    ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
    return (args[0], args[1], ctx.dps if ctx is not None else None)


def _gamma_key(args, kwargs):
    # eisint.gamma caches on the ambient mpmath precision
    return (tuple(args[0]), args[1], mp.mp.dps)


# functions whose argument keys are recorded, for the unique-call ratio
_KEYS = {
    "numkernel.mzv": _mzv_key,
    "mgf.S_zagier": _s_zagier_key,
    "eisint.gamma": _gamma_key,
}
# functions whose return value is recorded
_VALUES = {"qseries.auto_q_order"}


class Recorder:
    """In-memory span store shared by all wrappers of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name_id, start, end, parent, error_type]
        self.keys: dict[str, list] = {}
        self.values: dict[str, list] = {}
        self.stack: list[int] = [-1]
        self.on = False

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def call(self, fid: int, fn, args, kwargs):
        span = [fid, 0.0, 0.0, self.stack[-1], None]
        idx = len(self.spans)
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            # attribute an error to the innermost wrapped call it left
            if not getattr(exc, "_bench_span_seen", False):
                exc._bench_span_seen = True
                span[4] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def span(self, name: str):
        """Context manager for a span that is not a library call (one
        benchmark operation)."""
        return _Span(self, self.name_id(name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "keys": {k: [repr(x) for x in v] for k, v in self.keys.items()},
                       "values": self.values}, fh)


class _Span:
    def __init__(self, rec: Recorder, fid: int):
        self.rec, self.fid = rec, fid

    def __enter__(self):
        rec = self.rec
        self.span = [self.fid, 0.0, 0.0, rec.stack[-1], None]
        rec.stack.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[2] = time.perf_counter()
        self.rec.stack.pop()
        return False


def _wrap(rec: Recorder, name: str, fn):
    fid = rec.name_id(name)
    key_fn = _KEYS.get(name)
    record_value = name in _VALUES

    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        if key_fn is not None:
            rec.keys.setdefault(name, []).append(key_fn(args, kwargs))
        result = rec.call(fid, fn, args, kwargs)
        if record_value:
            rec.values.setdefault(name, []).append(result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def install() -> Recorder:
    """Wrap the public functions of every ellipsum module; returns the
    recorder (off until ``rec.on = True``)."""
    rec = Recorder()
    mods = {m: importlib.import_module(f"ellipsum.{m}") for m in MODULES}
    wrappers: dict[int, object] = {}
    for mname, mod in mods.items():
        names = [*getattr(mod, "__all__", ()), *_EXTRA.get(mname, ())]
        for attr in names:
            obj = getattr(mod, attr, None)
            if isinstance(obj, type):
                if attr in _SKIP_CLASSES or obj.__module__ != mod.__name__:
                    continue
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") or not isinstance(fn, types.FunctionType):
                        continue
                    setattr(obj, meth, _wrap(rec, f"{mname}.{attr}.{meth}", fn))
            elif callable(obj) and id(obj) not in wrappers:
                if getattr(obj, "__module__", "").startswith("ellipsum.") and \
                        obj.__module__ != mod.__name__:
                    continue  # re-exported; wrapped under its home module
                wrappers[id(obj)] = (obj, _wrap(rec, f"{mname}.{attr}", obj))
    # rebind every module-level reference to a wrapped function
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return rec


# ---------------------------------------------------------------------------
# aggregation


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "errors": 0, "error_types": Counter(),
            "distinct": 0, "values": []}


def aggregate(docs: list[dict]) -> dict:
    """Per-function stats summed over the span documents of one pass (one
    process, or one per CLI call): calls, self time, errors (counted at the
    innermost wrapped call only) by type, distinct argument keys (counted per
    process, where the caches live) and recorded return values."""
    out: dict[str, dict] = {}
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, start, end, _, err) in enumerate(spans):
            st = out.setdefault(names[fid], _empty())
            st["calls"] += 1
            st["self_s"] += (end - start) - child[i]
            if err is not None:
                st["errors"] += 1
                st["error_types"][err] += 1
        for name, keys in doc["keys"].items():
            out.setdefault(name, _empty())["distinct"] += len(set(keys))
        for name, vals in doc["values"].items():
            out.setdefault(name, _empty())["values"].extend(vals)
    return out
