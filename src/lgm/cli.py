"""Command-line entry point.

Subcommands: ``group info``, ``moment``, ``weingarten``, ``expect``,
``sample``, ``brownian-path``, ``verify theorem-a``.  All documents are
emitted with full double precision (floats serialize via their shortest
exact round-trip form), and a run is a pure function of its arguments,
input files and seed.

Exit codes: 0 on success, 2 on usage errors (bad flags, unreadable input
files), 1 on numerical guards (tensor budget, spectral-gap refusal,
effective-sample-size refusal of a Wilson estimate).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Iterable

import numpy as np

from .catalog import (GroupSpec, algebra_dimension, build_representation,
                      closed_form_completeness, split_casimir)
from .loops import Loop, _matrix_to_json, loop_from_json
from .moments import (BudgetError, DEFAULT_BUDGET, MeasureSpec, SpectralGapError,
                      _product_route, expect_product, moment_operator, spanning_set,
                      weingarten)
from .sampling import (EffectiveSampleError, RngSpec, brownian_path_batch,
                       haar_sample_batch, mc_expect, verify_theorem_a)
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
    plaquettes = _load_loops(args.plaquettes) if getattr(args, "plaquettes", None) else None
    try:
        return MeasureSpec.parse(args.measure, plaquettes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _config(args) -> dict:
    skip = {"func", "quiet"}  # --quiet shapes no document
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _emit(args, payload: dict, text_lines: Iterable[str], records: list | None = None) -> None:
    """``json`` prints the document on one line; ``jsonl`` prints one line
    per record (the matrices of ``sample`` and ``brownian-path``), or the
    document where a subcommand has no records; ``text`` prints the lines
    unless ``--quiet``."""
    if args.out == "jsonl" and records is not None:
        text_lines = map(json.dumps, records)
    elif args.out != "text":
        text_lines = [json.dumps({"config": _config(args), **payload})]
    elif args.quiet:
        return
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
    if args.measure.partition(":")[0].strip().lower() == "wilson":  # no plaquette list would help
        raise UsageError("no exact moment operator for the Wilson action")
    measure = _measure(args)
    op = moment_operator(rep, n, nprime, measure, args.budget)
    spectrum = [float(x) for x in op.spectrum]  # before T: its eigh temporaries are freed first
    tensor = tensor_to_json(op.matrix)
    payload = {"tensor": tensor, "rank": op.rank, "spectrum": spectrum}
    lines = [
        f"{spec.label()} moment on tensor power ({n},{nprime}), measure {measure.kind}",
        f"rank: {op.rank}",
        f"spectrum: {spectrum}",
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
        result = mc_expect(loops, measure, args.samples, RngSpec(args.seed))
        payload = {
            "value": [result.value.real, result.value.imag],
            "stderr": result.stderr,
            "samples": result.samples,
            "seed": args.seed,
        }
        lines = [f"value: {result.value!r} +- {result.stderr!r} ({result.samples} samples)"]
    else:
        result = expect_product(loops, measure, args.budget)
        route = _product_route(loops, measure, args.budget)[0]
        payload = {"value": [result.real, result.imag], "route": route}
        lines = [f"value: {result!r}", f"route: {route}"]
    _emit(args, payload, lines)
    return 0


def _cmd_sample(args) -> int:
    rep = build_representation(_group_spec(args))
    return _emit_matrices(args, haar_sample_batch(rep, RngSpec(args.seed, args.stream), args.count))


def _cmd_brownian_path(args) -> int:
    rep = build_representation(_group_spec(args))
    rng = RngSpec(args.seed, args.stream)
    return _emit_matrices(args, brownian_path_batch(rep, args.t, args.steps, rng, args.count))


def _emit_matrices(args, gs: np.ndarray) -> int:
    mats = [_matrix_to_json(g) for g in gs]
    _emit(args, {"matrices": mats}, map(json.dumps, mats), mats)  # one matrix per line
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


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged.
    Each option is declared once, in a parent parser its subcommands share."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("json", "jsonl", "text"), default="text")
    common.add_argument("--quiet", action="store_true", help="no text lines (jsonl ignores it)")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True)
    family.add_argument("--n", type=int, default=0)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="rng seed")
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--stream", type=int, default=0, help="rng substream")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max tensor-power dimension D and kernel side d**2 (Casimir "
                             "route), or squared label count L**2 (Weingarten routes)")
    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--measure", default="haar")
    loops = argparse.ArgumentParser(add_help=False)
    loops.add_argument("--loops", required=True, help="JSON file with a list of loop records")
    loops.add_argument("--plaquettes", default=None, help="JSON loop list for the Wilson action")
    loops.add_argument("--samples", type=int, default=None)

    parser = argparse.ArgumentParser(prog="lgm",
                                     description="moments and Wilson-loop calculus on compact Lie groups")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="group catalog queries")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    info = group_sub.add_parser("info", parents=[common, family],
                                help="dimensions, lambda, completeness residual")
    info.add_argument("--json", action="store_true", help="shorthand for --out json")
    info.set_defaults(func=_cmd_group_info)

    moment = sub.add_parser("moment", parents=[common, family, budget, measure], help="exact moment operator")
    moment.add_argument("--tensor", required=True, help="tensor powers 'n,nprime'")
    moment.set_defaults(func=_cmd_moment)

    wg = sub.add_parser("weingarten", parents=[common, family, budget], help="Gram matrix and Weingarten map")
    wg.add_argument("--order", type=int, required=True, help="tensor power n")
    wg.add_argument("--dual-order", type=int, default=None,
                    help="dual power n' (defaults to --order)")
    wg.add_argument("--source", default="nullspace",
                    choices=("permutations", "pairings", "g2u", "nullspace"))
    wg.add_argument("--tol", type=float, default=1e-8, help="relative pseudoinverse cutoff")
    wg.set_defaults(func=_cmd_weingarten)

    expect = sub.add_parser("expect", parents=[common, seed, budget, loops, measure],
                            help="expectation of a loop product")
    expect.set_defaults(func=_cmd_expect)

    sample = sub.add_parser("sample", parents=[common, family, seed, stream], help="Haar samples")
    sample.add_argument("--count", type=int, default=1)
    sample.set_defaults(func=_cmd_sample)

    path = sub.add_parser("brownian-path", parents=[common, family, seed, stream],
                          help="Brownian path endpoints")
    path.add_argument("--t", type=float, required=True)
    path.add_argument("--steps", type=int, default=200)
    path.add_argument("--count", type=int, default=1)
    path.set_defaults(func=_cmd_brownian_path)

    verify = sub.add_parser("verify", help="identity checks")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    thma = verify_sub.add_parser("theorem-a", parents=[common, seed, budget, loops, measure],
                                 help="integration-by-parts identity for a loop family")
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
    except (BudgetError, SpectralGapError, EffectiveSampleError) as exc:
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
