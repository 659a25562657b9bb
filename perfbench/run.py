"""Benchmark of lgm: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload haar_cold --seed 1 --seconds 25 --trace 0

Each op runs in a fresh single-threaded Python process started by this
script (``worker.py``), one op at a time, in a closed loop; BLAS may use up
to ``nproc`` threads.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same ops once untraced and once with every public
lgm function wrapped (``tracer.py``) and reports the per-layer metrics, the
LAPACK/BLAS floors and the tracing overhead.  Every op's result is checked
against an independent reference (``oracle.py``).  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("haar_cold", "loop_calculus", "wilson_mc", "brownian_mc")
SETUP_PROBES = 7
FLOOR_DIMS = (27, 81, 256, 343, 625, 729, 2401, 4096)   # the D of every haar_cold shape
SAMPLER_FAMILIES = ("u", "su", "so", "sp", "g2")
CHILD_TIMEOUT_S = 170
FRESH_PROCESS_PER_ROUND = ("haar_cold",)  # each round must find lgm's caches empty

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _per_layer_names() -> list[tuple[str, str]]:
    names = [
        ("catalog.build_representation.calls", "count"),
        ("catalog.build_representation.self_share", "ratio"),
        ("catalog.split_casimir.calls", "count"),
        ("catalog.split_casimir.self_share", "ratio"),
        ("moments.tensor_casimir.calls", "count"),
        ("moments.tensor_casimir.self_share", "ratio"),
        ("moments.tensor_casimir.dim_max", "count"),
        ("moments.haar_moment.calls", "count"),
        ("moments.haar_moment.self_share", "ratio"),
        ("moments.haar_moment.floor_ratio", "ratio"),
        ("moments.moment_operator.calls", "count"),
        ("moments.moment_operator.hit_ratio", "ratio"),
        ("moments.brownian_moment.calls", "count"),
        ("moments.brownian_moment.self_share", "ratio"),
        ("moments.expect_product.calls", "count"),
        ("moments.expect_product.self_share", "ratio"),
        ("moments.spanning_set.self_share", "ratio"),
        ("moments.weingarten.self_share", "ratio"),
        ("loops.total_merge.calls", "count"),
        ("loops.total_merge.terms", "count"),
        ("loops.total_merge.self_share", "ratio"),
        ("loops.total_twist.calls", "count"),
        ("loops.total_twist.terms", "count"),
        ("loops.total_twist.self_share", "ratio"),
        ("loops.loops_to_tensor.calls", "count"),
        ("loops.loops_to_tensor.self_share", "ratio"),
        ("loops.Loop.evaluate_batch.calls", "count"),
        ("loops.Loop.evaluate_batch.rows", "count"),
        ("loops.Loop.evaluate_batch.self_share", "ratio"),
    ]
    for fam in SAMPLER_FAMILIES:
        names += [(f"sampling.haar_sample_batch.{fam}.draws_per_s", "1/s"),
                  (f"sampling.haar_sample_batch.{fam}.self_share", "ratio")]
    names += [
        ("sampling.brownian_path_batch.steps_per_s", "1/s"),
        ("sampling.brownian_path_batch.self_share", "ratio"),
        ("sampling.mc_expect.self_share", "ratio"),
        ("sampling.verify_theorem_a.self_share", "ratio"),
        ("tensor.expm_skew_batch.calls", "count"),
        ("tensor.expm_skew_batch.matrices", "count"),
        ("tensor.expm_skew_batch.self_share", "ratio"),
        ("tensor.pseudoinverse.self_share", "ratio"),
        ("cli.main.calls", "count"),
        ("cli.main.self_share", "ratio"),
        ("mc.samples_per_s", "1/s"),
    ]
    for dim in FLOOR_DIMS:
        names += [(f"floor.eigh_{dim}_s", "s"), (f"floor.matmul_{dim}_s", "s")]
    names += [("trace.overhead_ratio", "ratio"), ("trace.coverage_ratio", "ratio"), ("trace.wall_s", "s")]
    return names


PER_LAYER = _per_layer_names()


class ChildError(RuntimeError):
    pass


def _child(root: str, args: list[str], env: dict) -> dict:
    """Run worker.py to completion and return the JSON object it prints last."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"worker {' '.join(args[:3])} ran over {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker {' '.join(args[:3])} exited {proc.returncode}")
    return json.loads(lines[-1])


def _percentile(sorted_x: list[float], pct: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics.

    Ops come in a few dozen kinds with distinct costs, so a single order
    statistic jumps between kinds from run to run; the weighted mean moves
    smoothly.  Weights are Beta(p(n+1), (1-p)(n+1)) masses of [(i-1)/n, i/n].
    """
    n = len(sorted_x)
    a, b = pct / 100.0 * (n + 1), (1.0 - pct / 100.0) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64 * n
    mass = [0.0] * n
    for k in range(steps):  # midpoint rule on the Beta density
        x = (k + 0.5) / steps
        mass[k * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm) / steps
    total = sum(mass)
    return sum(m * v for m, v in zip(mass, sorted_x)) / total


def _tail_pct(n: int, wanted: int) -> int:
    """The workload's tail percentile, lowered if fewer than 10 ops lie beyond it
    (but not below the median, for runs too short to have such a percentile)."""
    if n * (1.0 - wanted / 100.0) >= 10:
        return wanted
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def _sessions(root, env, a, tmp: str, trace: bool, seconds: float) -> list[dict]:
    """Op sessions; haar_cold starts one process per round so each finds the caches empty."""
    base = ["session", "--workload", a.workload, "--seed", str(a.seed), "--tmp", tmp]
    if a.tiny:
        base.append("--tiny")
    if a.wrong_reference:
        base.append("--wrong-reference")
    out = []
    if a.workload in FRESH_PROCESS_PER_ROUND:
        start, last = time.perf_counter(), 0.0
        while not out or (not trace and time.perf_counter() - start + last <= seconds):
            t0 = time.perf_counter()
            out.append(_child(root, base + ["--rounds", "1", "--trace", str(int(trace))], env))
            last = time.perf_counter() - t0
        return out
    return [_child(root, base + ["--seconds", str(seconds), "--trace", str(int(trace))], env)]


def _end_to_end(sessions: list[dict], setup: list[float]) -> tuple[dict, dict]:
    # The shared host has slow spells, seconds to a minute long, that can
    # cover most of a run, so a median over the run's rounds moves with the
    # share of slow time.  As timeit does, an op's time is the best of its
    # repetitions in the run: its cost while the host is not contended.  The
    # rate and the percentiles are then taken over the distinct ops of a round.
    ops = [o for s in sessions for o in s["ops"]]
    best: dict = {}
    for o in ops:
        best[o["key"]] = min(best.get(o["key"], math.inf), o["s"])
    times = sorted(best.values())
    rounds = sum(len(s["round_s"]) for s in sessions)
    pct = _tail_pct(len(ops), sessions[0]["tail_pct"])
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * _percentile(times, 50),
        "op_tail_ms": 1e3 * _percentile(times, pct),
        "peak_rss_mb": max(s["rss_mb"] for s in sessions),
    }
    mc = [o for o in ops if o["samples"]]
    info = {"tail_pct": pct, "ops": len(ops), "distinct_ops": len(times), "rounds": rounds}
    if mc:
        info["mc_samples_per_s"] = sum(o["samples"] for o in mc) / sum(o["s"] for o in mc)
        # time to a standard error of 0.01, per round, over passing ops with a stderr
        info["mc_cost_s"] = sum(o["s"] * (o["stderr"] / 0.01) ** 2 for o in mc
                                if o["status"] == "ok" and o["stderr"] is not None) / rounds
    return metrics, info


def _merge_stats(sessions: list[dict]) -> dict:
    merged: dict = {}
    for s in sessions:
        for name, st in s["trace"]["stats"].items():
            m = merged.setdefault(name, {})
            for key, value in st.items():
                m[key] = max(m.get(key, 0.0), value) if key.endswith("_max") else m.get(key, 0.0) + value
    return merged


def _per_layer(untraced: list[dict], traced: list[dict], floors: dict) -> tuple[dict, dict]:
    stats = _merge_stats(traced)
    wall = sum(o["s"] for s in traced for o in s["ops"])
    top = sum(s["trace"]["top_s"] for s in traced)

    def get(name, key):
        return stats.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    out = {}
    for name, _ in PER_LAYER:
        head, _, key = name.rpartition(".")
        if key == "calls" or key in ("terms", "rows", "matrices", "dim_max"):
            out[name] = get(head, key)
        elif key == "self_share":
            out[name] = ratio(get(head, "self_s"), wall)
        elif key == "draws_per_s":
            out[name] = ratio(get(head, "draws"), get(head, "total_s"))
        elif key == "steps_per_s":
            out[name] = ratio(get(head, "steps"), get(head, "self_s"))
    hm = stats.get("moments.haar_moment", {})
    floor_s = sum(v * floors["floors"][k[len("calls_at_"):]]["eigh_s"] for k, v in hm.items()
                  if k.startswith("calls_at_") and k[len("calls_at_"):] in floors["floors"])
    out["moments.haar_moment.floor_ratio"] = ratio(
        sum(v for k, v in hm.items() if k.startswith("self_s_at_")), floor_s)
    out["moments.moment_operator.hit_ratio"] = ratio(get("moments.moment_operator", "hits"),
                                                     get("moments.moment_operator", "calls"))
    mc = [o for s in untraced for o in s["ops"] if o["samples"]]
    out["mc.samples_per_s"] = ratio(sum(o["samples"] for o in mc), sum(o["s"] for o in mc))
    for dim in FLOOR_DIMS:
        out[f"floor.eigh_{dim}_s"] = floors["floors"][str(dim)]["eigh_s"]
        out[f"floor.matmul_{dim}_s"] = floors["floors"][str(dim)]["matmul_s"]
    per_round = [sum(o["s"] for o in s["ops"]) / len(s["round_s"]) for s in untraced]
    per_round_traced = [sum(o["s"] for o in s["ops"]) / len(s["round_s"]) for s in traced]
    out["trace.overhead_ratio"] = ratio(statistics.mean(per_round_traced), statistics.mean(per_round))
    out["trace.coverage_ratio"] = ratio(top, wall)
    out["trace.wall_s"] = wall
    return out, stats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lgm benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    p.add_argument("--wrong-reference", action="store_true",
                   help="make one reference deliberately wrong, for the smoke test")
    a = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lgm", "__init__.py")):
        print("run from the root of an lgm checkout: src/lgm not found", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + HERE
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    tmp = os.path.join(root, ".perfbench_tmp")  # loop files for the CLI ops
    os.makedirs(tmp, exist_ok=True)
    try:
        probes = 2 if a.tiny else SETUP_PROBES
        setup = [_child(root, ["setup", "--workload", a.workload], env)["setup_s"] for _ in range(probes)]
        if a.trace:
            floors = _child(root, ["floors", "--dims", ",".join(map(str, FLOOR_DIMS))], env)
            half = a.seconds / 2.0
            untraced = _sessions(root, env, a, tmp, False, half)
            traced = _sessions(root, env, a, tmp, True, half)
            sessions = untraced + traced
        else:
            sessions = _sessions(root, env, a, tmp, False, a.seconds)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [o for s in sessions for o in s["ops"]]
    failed = [o for o in ops if o["status"] != "ok"]
    wrong = [o for o in failed if o["status"] == "wrong"]
    for o in sorted({(o["kind"], o["status"], o["detail"]) for o in failed}):
        print(f"failed op {o[0]} [{o[1]}]: {o[2]}")
    print(f"workload {a.workload} seed {a.seed} trace {a.trace}: nproc {nproc}, "
          f"BLAS threads {nproc}, python {sys.version.split()[0]}")
    print(f"failed_ratio {len(failed) / len(ops)!r} ({len(failed)} of {len(ops)} ops)")
    e2e, info = _end_to_end(sessions if not a.trace else untraced, setup)
    if a.trace:
        metrics, stats = _per_layer(untraced, traced, floors)
        print(f"numpy {floors['numpy']}, BLAS {floors['blas']} {' '.join(floors['blas_config'])}")
        for name in sorted(stats):
            st = stats[name]
            extra = " ".join(f"{k} {v:.6g}" for k, v in sorted(st.items())
                             if k not in ("calls", "self_s", "total_s") and not k.startswith(("self_s_at", "calls_at")))
            print(f"span {name}: calls {st['calls']:.0f} self_s {st['self_s']:.6f} total_s {st['total_s']:.6f} {extra}")
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = dict(END_TO_END)
    for key, value in info.items():
        print(f"{key} {value!r}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
