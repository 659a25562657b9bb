"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

For every workload, at the tiny size, it checks that

* ``--trace 0`` prints every end-to-end metric of BENCHMARK.json with its
  unit, and ``--trace 1`` every per-layer metric;
* a deliberately wrong reference (``--wrong-reference``) is counted as a
  failed op, i.e. it raises ``failed_ratio`` and clears ``correct``;

and that the benchmark refuses, with a non-zero exit and no result line, to
run in a directory that holds no lgm sources.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        base = ["--workload", wl, "--seed", "7", "--seconds", "2", "--tiny"]
        results = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = _run(base + ["--trace", str(trace)])
            if code != 0 or not lines:
                problems.append(f"{wl} trace {trace}: exit {code}")
                continue
            doc = json.loads(lines[-1])
            results[trace] = doc
            for m in spec[key]:
                got = doc["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{wl} trace {trace}: metric {m['name']} missing or without unit {m['unit']}")
            extra = set(doc["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{wl} trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
        code, lines = _run(base + ["--trace", "0", "--wrong-reference"])
        if code != 0 or not lines or 0 not in results:
            problems.append(f"{wl} wrong reference: exit {code}")
            continue
        broken, good = json.loads(lines[-1]), results[0]
        if broken["correct"] or broken["failed"] / broken["attempted"] <= good["failed"] / good["attempted"]:
            problems.append(f"{wl}: a wrong reference was not counted in failed_ratio")
        print(f"{wl}: ok" if not [p for p in problems if p.startswith(wl)] else f"{wl}: FAILED")

    bare = os.path.join(ROOT, ".perfbench_smoke")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = _run(["--workload", "haar_cold", "--seed", "1", "--seconds", "1"], cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("without lgm sources the benchmark did not refuse")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
