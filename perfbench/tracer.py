"""Spans around lgm's public functions, recorded from the benchmark's side.

``install`` wraps every public function defined in each lgm module, plus
``Loop.evaluate_batch``, and rebinds every module attribute that referred to
the original, so calls that one lgm module makes into another (through names
it imported) are timed too.  Nothing in lgm changes on disk.

Spans nest: a span's self time is its duration less the durations of the
spans it encloses.  Spans are recorded only while ``active`` is set, which
the worker does for the duration of each op, so reference computations are
never counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("catalog", "tensor", "loops", "moments", "sampling", "cli")


class Recorder:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []          # [name, start, child_s, child_names, self_s]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.top_s = 0.0                     # summed durations of top-level spans

    def push(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, set(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list, extra) -> None:
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        name = frame[0]
        st = self.stats[name]
        frame[4] = duration - frame[2]
        st["calls"] += 1
        st["self_s"] += frame[4]
        st["total_s"] += duration
        for key, value in extra(frame).items():
            if key.endswith("_max"):
                st[key] = max(st[key], value)
            else:
                st[key] += value
        if self.stack:
            self.stack[-1][2] += duration
            self.stack[-1][3].add(name)
        else:
            self.top_s += duration


def _no_extra(args, kwargs, result, frame):
    return {}


def _tensor_dim(args, kwargs, result, frame):
    rep, n, nprime = args[:3]
    return {"dim_max": float(rep.dim ** (n + nprime))}


def _haar_dim(args, kwargs, result, frame):
    # per-D self time and calls, to set against the eigh floor at that D
    rep, n, nprime = args[:3]
    dim = rep.dim ** (n + nprime)
    return {f"self_s_at_{dim}": frame[4], f"calls_at_{dim}": 1.0}


def _terms(args, kwargs, result, frame):
    return {"terms": float(len(result.terms))}


def _rows(args, kwargs, result, frame):
    return {"rows": float(len(args[1]))}


def _matrices(args, kwargs, result, frame):
    shape = args[0].shape
    return {"matrices": float(functools.reduce(lambda a, b: a * b, shape[:-2], 1))}


def _moment_hit(args, kwargs, result, frame):
    missed = frame[3] & {"moments.haar_moment", "moments.brownian_moment"}
    return {"hits": 0.0 if missed else 1.0}


def _path_steps(args, kwargs, result, frame):
    # brownian_path_batch(rep, t, steps, rng, count)
    steps = kwargs.get("steps", args[2] if len(args) > 2 else None)
    count = kwargs.get("count", args[4] if len(args) > 4 else None)
    return {"steps": float(steps * count)}


EXTRAS = {
    "moments.tensor_casimir": _tensor_dim,
    "moments.haar_moment": _haar_dim,
    "moments.moment_operator": _moment_hit,
    "loops.total_merge": _terms,
    "loops.total_twist": _terms,
    "loops.Loop.evaluate_batch": _rows,
    "tensor.expm_skew_batch": _matrices,
    "sampling.brownian_path_batch": _path_steps,
}


def _wrap(rec: Recorder, name: str, fn):
    extra_fn = EXTRAS.get(name, _no_extra)
    if name == "sampling.haar_sample_batch":
        @functools.wraps(fn)
        def sampler(rep, rng, count):
            # one span per family, so draws/s is per sampler
            if not rec.active:
                return fn(rep, rng, count)
            frame = rec.push(f"{name}.{rep.spec.family}")
            try:
                return fn(rep, rng, count)
            finally:
                rec.pop(frame, lambda fr: {"draws": float(count)})
        return sampler

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.push(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.pop(frame, lambda fr: extra_fn(args, kwargs, result, fr) if result is not None else {})
    return wrapper


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or inspect.isclass(obj):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def install(rec: Recorder) -> int:
    """Wrap lgm's public functions; returns the number wrapped."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lgm.{layer}")
        for attr, obj in _public_functions(mod):
            replaced[id(obj)] = (obj, _wrap(rec, f"{layer}.{attr}", obj))
    loops = importlib.import_module("lgm.loops")
    loops.Loop.evaluate_batch = _wrap(rec, "loops.Loop.evaluate_batch", loops.Loop.evaluate_batch)
    # rebind every alias: lgm's own cross-module imports, the package
    # namespace, and the benchmark's modules
    for mod in list(sys.modules.values()):
        modname = getattr(mod, "__name__", None) or ""
        names = getattr(mod, "__dict__", None)
        if not names or not (modname.startswith("lgm") or modname in ("workloads", "oracle")):
            continue
        for attr, obj in list(names.items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(replaced) + 1
