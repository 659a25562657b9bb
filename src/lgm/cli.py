"""Command-line entry point.

Subcommands: ``group info``, ``moment``, ``weingarten``, ``expect``,
``sample``, ``brownian-path``, ``verify theorem-a``.  All documents are
emitted with full double precision (floats serialize via their shortest
exact round-trip form), and a run is a pure function of its arguments,
input files and seed.

Exit codes: 0 on success, 2 on usage errors (bad flags, unreadable input
files), 1 on numerical guards (tensor budget, spectral-gap refusal).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .catalog import (GroupSpec, algebra_dimension, build_representation,
                      closed_form_completeness, split_casimir)
from .loops import Loop, _matrix_to_json, loop_from_json
from .moments import (BudgetError, DEFAULT_BUDGET, MeasureSpec, SpectralGapError,
                      _product_route, expect_product, moment_operator, spanning_set,
                      weingarten)
from .sampling import (MCEstimate, RngSpec, brownian_path_batch, haar_sample_batch,
                       verify_theorem_a)
from .tensor import tensor_to_json

__all__ = ["main"]


class UsageError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_loops(path: str) -> list[Loop]:
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise UsageError(f"{path}: expected a JSON array of loop records")
    try:
        return [loop_from_json(rec) for rec in doc]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: bad loop record: {exc}") from exc


def _group_spec(args) -> GroupSpec:
    try:
        return GroupSpec(args.family, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _measure(args) -> MeasureSpec:
    plaquettes = _load_loops(args.plaquettes) if getattr(args, "plaquettes", None) else ()
    try:
        return MeasureSpec.parse(args.measure, plaquettes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.out == "json":
        print(json.dumps({"config": _config(args), **payload}))
    else:
        if not args.quiet:
            for line in text_lines:
                print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_group_info(args) -> int:
    spec = _group_spec(args)
    rep = build_representation(spec)
    residual = float(np.max(np.abs(split_casimir(rep).k - closed_form_completeness(spec).k)))
    payload = {
        "family": spec.family,
        "n": spec.n,
        "dim": rep.dim,
        "generators": rep.algebra_dim,
        "lambda": rep.lam,
        "completeness_residual": residual,
    }
    lines = [
        f"{spec.label()}: representation dimension {rep.dim}",
        f"generators: {rep.algebra_dim} (algebra dimension {algebra_dimension(spec)})",
        f"lambda: {rep.lam!r}",
        f"completeness residual: {residual:.3e}",
    ]
    if args.json:
        args.out = "json"
    _emit(args, payload, lines)
    return 0


def _parse_tensor_flag(text: str) -> tuple[int, int]:
    try:
        n, nprime = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError("--tensor expects 'n,nprime', e.g. 2,0") from exc
    if n < 0 or nprime < 0:
        raise UsageError("--tensor powers must be nonnegative")
    return n, nprime


def _cmd_moment(args) -> int:
    spec = _group_spec(args)
    rep = build_representation(spec)
    n, nprime = _parse_tensor_flag(args.tensor)
    measure = _measure(args)
    if measure.kind == "wilson":
        raise UsageError("no exact moment operator for the Wilson action; use 'lgm expect'")
    op = moment_operator(rep, n, nprime, measure, args.budget)
    tensor = tensor_to_json(op.matrix)
    payload = {
        "tensor": tensor,
        "rank": op.rank,
        "spectrum": [float(x) for x in op.spectrum],
    }
    lines = [
        f"{spec.label()} moment on tensor power ({n},{nprime}), measure {measure.kind}",
        f"rank: {op.rank}",
        f"spectrum: {[float(x) for x in op.spectrum]}",
        json.dumps(tensor),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_weingarten(args) -> int:
    spec = _group_spec(args)
    rep = build_representation(spec)
    ss = spanning_set(rep, args.order, args.order if args.dual_order is None else args.dual_order,
                      args.source, args.budget)
    wm = weingarten(ss, rel_cutoff=args.tol)
    labels = [str(l) for l in ss.labels]
    payload = {
        "labels": labels,
        "gram": _matrix_to_json(wm.gram),
        "wg": _matrix_to_json(wm.wg),
    }
    lines = [f"{spec.label()} Weingarten, source {ss.source}, labels ({len(labels)}):"]
    lines += [f"  [{k}] {lab}" for k, lab in enumerate(labels)]
    lines += ["gram:", repr(wm.gram), "wg:", repr(wm.wg)]
    _emit(args, payload, lines)
    return 0


def _cmd_expect(args) -> int:
    loops = _load_loops(args.loops)
    measure = _measure(args)
    if measure.kind == "wilson":
        result = expect_product(loops, measure, args.budget, samples=args.samples,
                                rng=RngSpec(args.seed))
    else:
        result = expect_product(loops, measure, args.budget)
    if isinstance(result, MCEstimate):
        payload = {
            "value": [result.value.real, result.value.imag],
            "stderr": result.stderr,
            "samples": result.samples,
            "seed": args.seed,
        }
        lines = [f"value: {result.value!r} +- {result.stderr!r} ({result.samples} samples)"]
    else:
        route = _product_route(loops, measure, args.budget)[0]
        payload = {"value": [result.real, result.imag], "route": route}
        lines = [f"value: {result!r}", f"route: {route}"]
    _emit(args, payload, lines)
    return 0


def _cmd_sample(args) -> int:
    spec = _group_spec(args)
    rep = build_representation(spec)
    gs = haar_sample_batch(rep, RngSpec(args.seed, args.stream), args.count)
    return _emit_matrices(args, gs)


def _cmd_brownian_path(args) -> int:
    spec = _group_spec(args)
    rep = build_representation(spec)
    gs = brownian_path_batch(rep, args.t, args.steps, RngSpec(args.seed, args.stream), args.count)
    return _emit_matrices(args, gs)


def _emit_matrices(args, gs: np.ndarray) -> int:
    if args.out == "jsonl":
        for g in gs:
            print(json.dumps(_matrix_to_json(g)))
    elif args.out == "json":
        print(json.dumps({"config": _config(args), "matrices": [_matrix_to_json(g) for g in gs]}))
    else:
        if not args.quiet:
            for g in gs:
                print(json.dumps(_matrix_to_json(g)))
    return 0


def _cmd_verify_theorem_a(args) -> int:
    loops = _load_loops(args.loops)
    measure = _measure(args)
    report = verify_theorem_a(loops, measure, samples=args.samples,
                              rng=RngSpec(args.seed), budget=args.budget)
    payload = {
        "kind": report.kind,
        "lhs": [complex(report.lhs).real, complex(report.lhs).imag],
        "rhs": [complex(report.rhs).real, complex(report.rhs).imag],
        "residual": report.residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }
    if report.z_score is not None:
        payload.update({"z": report.z_score, "stderr": report.stderr,
                        "samples": report.samples})
    lines = [f"theorem-a [{report.kind}]: residual {report.residual!r} "
             f"(tolerance {report.tolerance!r}) -> {'PASS' if report.passed else 'FAIL'}"]
    if report.z_score is not None:
        lines.append(f"z-score: {report.z_score!r} from {report.samples} samples")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("json", "jsonl", "text"), default="text")
    common.add_argument("--quiet", action="store_true")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="rng seed")
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--stream", type=int, default=0, help="rng substream")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max tensor-power dimension (Casimir route) or squared "
                             "label count (Weingarten routes)")

    parser = argparse.ArgumentParser(prog="lgm",
                                     description="moments and Wilson-loop calculus on compact Lie groups")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="group catalog queries")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    info = group_sub.add_parser("info", parents=[common], help="dimensions, lambda, completeness residual")
    info.add_argument("--family", required=True)
    info.add_argument("--n", type=int, default=0)
    info.add_argument("--json", action="store_true", help="shorthand for --out json")
    info.set_defaults(func=_cmd_group_info)

    moment = sub.add_parser("moment", parents=[common, budget], help="exact moment operator")
    moment.add_argument("--family", required=True)
    moment.add_argument("--n", type=int, default=0)
    moment.add_argument("--tensor", required=True, help="tensor powers 'n,nprime'")
    moment.add_argument("--measure", default="haar")
    moment.set_defaults(func=_cmd_moment)

    wg = sub.add_parser("weingarten", parents=[common, budget], help="Gram matrix and Weingarten map")
    wg.add_argument("--family", required=True)
    wg.add_argument("--n", type=int, default=0)
    wg.add_argument("--order", type=int, required=True, help="tensor power n")
    wg.add_argument("--dual-order", type=int, default=None,
                    help="dual power n' (defaults to --order)")
    wg.add_argument("--source", default="nullspace",
                    choices=("permutations", "pairings", "g2u", "nullspace"))
    wg.add_argument("--tol", type=float, default=1e-8, help="relative pseudoinverse cutoff")
    wg.set_defaults(func=_cmd_weingarten)

    expect = sub.add_parser("expect", parents=[common, seed, budget], help="expectation of a loop product")
    expect.add_argument("--loops", required=True, help="JSON file with a list of loop records")
    expect.add_argument("--measure", default="haar")
    expect.add_argument("--plaquettes", default=None, help="JSON loop list for the Wilson action")
    expect.add_argument("--samples", type=int, default=None)
    expect.set_defaults(func=_cmd_expect)

    sample = sub.add_parser("sample", parents=[common, seed, stream], help="Haar samples")
    sample.add_argument("--family", required=True)
    sample.add_argument("--n", type=int, default=0)
    sample.add_argument("--count", type=int, default=1)
    sample.set_defaults(func=_cmd_sample)

    path = sub.add_parser("brownian-path", parents=[common, seed, stream], help="Brownian path endpoints")
    path.add_argument("--family", required=True)
    path.add_argument("--n", type=int, default=0)
    path.add_argument("--t", type=float, required=True)
    path.add_argument("--steps", type=int, default=200)
    path.add_argument("--count", type=int, default=1)
    path.set_defaults(func=_cmd_brownian_path)

    verify = sub.add_parser("verify", help="identity checks")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    thma = verify_sub.add_parser("theorem-a", parents=[common, seed, budget],
                                 help="integration-by-parts identity for a loop family")
    thma.add_argument("--loops", required=True)
    thma.add_argument("--measure", default="haar")
    thma.add_argument("--plaquettes", default=None)
    thma.add_argument("--samples", type=int, default=None)
    thma.set_defaults(func=_cmd_verify_theorem_a)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _error(args, "usage", str(exc))
        return 2
    except (BudgetError, SpectralGapError) as exc:
        _error(args, type(exc).__name__, str(exc))
        return 1
    except ValueError as exc:
        _error(args, "usage", str(exc))
        return 2


def _error(args, kind: str, detail: str) -> None:
    if getattr(args, "out", "text") == "json":
        print(json.dumps({"error": {"kind": kind, "detail": detail}}))
    else:
        print(f"error [{kind}]: {detail}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
