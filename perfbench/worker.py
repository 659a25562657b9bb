"""One fresh Python process of the benchmark: set-up probe, op session or floors.

``run.py`` starts this script and reads the JSON object it prints as its last
line.  Only the standard library is imported at module level, so the set-up
probe times ``import lgm`` from a clean interpreter.

    worker.py setup   --workload W
    worker.py session --workload W --seed S --seconds X --trace 0|1 [--rounds K] [--tiny]
                      [--wrong-reference] [--tmp DIR]
    worker.py floors  --dims 27,81,...
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import time


def _setup(args) -> dict:
    t0 = time.perf_counter()
    import lgm
    t1 = time.perf_counter()
    import workloads
    t2 = time.perf_counter()
    for family, n in workloads.SETUP_GROUPS[args.workload]:
        lgm.build_representation(lgm.GroupSpec(family, n))
    t3 = time.perf_counter()
    return {"setup_s": (t1 - t0) + (t3 - t2)}


def _run_op(op, key: int, rec) -> dict:
    """Time one op (closed loop: nothing else runs meanwhile), then check it."""
    status, detail, result = "ok", None, None
    if rec is not None:
        rec.active = True
    start = time.perf_counter()
    try:
        result = op.fn()
    except Exception as exc:  # a refusal or crash is a failed op, not a benchmark error
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rec is not None:
        rec.active = False
    stderr = None
    if status == "ok":
        try:
            detail = op.check(result)
        except Exception as exc:
            detail = f"check raised {type(exc).__name__}: {exc}"
        if detail is not None:
            # non-finite output and statistical misses count as failed ops;
            # only a finite result that misses its reference is a wrong answer
            status = "error" if detail.startswith(("non-finite", "statistical")) else "wrong"
        if op.stderr_of is not None:
            stderr = op.stderr_of(result)
    return {"kind": op.kind, "key": key, "s": elapsed, "status": status, "detail": detail,
            "samples": op.samples, "stderr": stderr if stderr is None or math.isfinite(stderr) else None}


def _session(args) -> dict:
    import workloads

    tmpdir = tempfile.mkdtemp(prefix="session_", dir=args.tmp)
    try:
        w = workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny, tmpdir=tmpdir)
        if args.wrong_reference:
            _break_first_reference(w)
        rec = None
        if args.trace:
            import tracer
            rec = tracer.Recorder()
            tracer.install(rec)
        if w.warmup:
            for op in w.rounds(-1):
                try:
                    op.fn()
                except Exception:  # failures are counted in the timed rounds
                    pass
        records, round_s = [], []
        start = time.perf_counter()
        r = 0
        while True:
            t0 = time.perf_counter()
            ops = w.rounds(r)
            # an op's key is its place in the round; an op repeated within a
            # round keeps the key of its first place
            first: dict = {}
            records.extend(_run_op(op, first.setdefault(id(op), i), rec) for i, op in enumerate(ops))
            round_s.append(time.perf_counter() - t0)
            r += 1
            # whole rounds only, so every run has the same op mix
            if r >= args.rounds or time.perf_counter() - start + round_s[-1] > args.seconds:
                break
        out = {"ops": records, "round_s": round_s, "tail_pct": w.tail_pct,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if rec is not None:
            out["trace"] = {"stats": {k: dict(v) for k, v in rec.stats.items()}, "top_s": rec.top_s}
        return out
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _break_first_reference(w) -> None:
    """Smoke-test hook: make the first op's check demand a different answer."""
    rounds = w.rounds

    def broken(r):
        ops = rounds(r)
        good = ops[0].check
        ops[0].check = lambda result: good(result) or "deliberately wrong reference"
        return ops

    w.rounds = broken


def _floors(args) -> dict:
    import numpy as np

    gen = np.random.default_rng(0)
    out = {}
    for dim in (int(x) for x in args.dims.split(",")):
        a = gen.standard_normal((dim, dim))
        sym = a + a.T
        reps = 1 if dim > 1500 else 5
        eigh, matmul = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            np.linalg.eigh(sym)
            t1 = time.perf_counter()
            a @ sym
            t2 = time.perf_counter()
            eigh.append(t1 - t0)
            matmul.append(t2 - t1)
        out[str(dim)] = {"eigh_s": sorted(eigh)[reps // 2], "matmul_s": sorted(matmul)[reps // 2]}
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        pass
    return {"floors": out, "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_config": str(blas.get("openblas configuration", "")).split()[:4]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("command", choices=("setup", "session", "floors"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--rounds", type=int, default=10**9)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--wrong-reference", action="store_true")
    p.add_argument("--tmp", default=".")
    p.add_argument("--dims", default="")
    args = p.parse_args(argv)
    result = {"setup": _setup, "session": _session, "floors": _floors}[args.command](args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
