"""The four workloads: seeded inputs, the ops that drive lgm, and their checks.

An op is one call into lgm whose result is checked against a reference from
``oracle`` (or a closed form).  Op callables look lgm names up on the module
at call time, so the tracer's wrappers see them.  References are computed in
``check``, after the op's clock has stopped, and memoized per op key.

A workload is run in rounds; every round holds the same ops, so rates and
percentiles do not depend on how many rounds fit in a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import lgm
import lgm.cli
import lgm.loops
import oracle

Z_MAX = 4.0           # MC-vs-exact agreement bound, in standard errors
Z_GROSS = 8.0         # beyond this a miss is a wrong answer, not a statistical fluke
EXACT_RTOL = 1e-8     # exact results against the oracle, relative to the coefficient scale
MC_SAMPLES = {"thm_a": 1000, "wilson": 4000, "haar": 4000, "strong": 5000, "brownian": 100, "g2_draws": 2}


@dataclass
class Op:
    """One checked call.  ``check(result)`` returns None when it passes."""

    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any], str | None]
    samples: int = 0                     # group draws consumed (MC ops)
    stderr_of: Callable[[Any], float] | None = None


@dataclass
class Workload:
    name: str
    rounds: Callable[[int], list]        # round index -> list of Op
    tail_pct: int                        # percentile reported as op_tail_ms
    warmup: bool = False                 # run one unrecorded round first, to fill caches
    memo: dict = field(default_factory=dict)


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _gauss(gen: np.random.Generator, d: int) -> np.ndarray:
    return (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / math.sqrt(2.0)


def _cscalar(gen: np.random.Generator) -> complex:
    return complex(gen.standard_normal(), gen.standard_normal()) / math.sqrt(2.0)


def _rep(family: str, n: int = 0):
    return lgm.build_representation(lgm.GroupSpec(family, n))


def _word(rep, gen, signs) -> "lgm.Loop":
    return lgm.loop(rep, [_gauss(gen, rep.dim) for _ in signs], list(signs), _cscalar(gen))


def _grouped_words(rep, gen, signs, sizes) -> list:
    """Random loop words carrying the given slot signs, cut into loops of the given sizes.

    The grouping is fixed per query, so an op's cost does not depend on the seed.
    """
    out, at = [], 0
    for k in sizes:
        out.append(_word(rep, gen, signs[at:at + k]))
        at += k
    return out


def _interleave(signs: list[int]) -> list[int]:
    plus, minus = [s for s in signs if s == 1], [s for s in signs if s == -1]
    out = []
    for k in range(max(len(plus), len(minus))):
        out.extend(plus[k:k + 1] + minus[k:k + 1])
    return out


def _invariant_fn(rep):
    psi = lgm.catalog.octonion_psi()
    return lambda signs: oracle.invariants(rep.spec.family, rep.spec.n, rep.dim, signs, psi)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x))))


def _memo(w: Workload, key, make):
    if key not in w.memo:
        w.memo[key] = make()
    return w.memo[key]


def _exact_check(w: Workload, key, items_fn, inv_fn):
    """Check an exact expectation against the Haar oracle."""

    def check(value) -> str | None:
        if not _finite(value):
            return f"non-finite: value {value!r}"
        ref, scale = _memo(w, key, lambda: oracle.haar_exact(items_fn(), inv_fn))
        if abs(complex(value) - ref) > EXACT_RTOL * max(1.0, scale):
            return f"value {complex(value)!r} misses the oracle {ref!r}"
        return None

    return check


def _close_check(ref: complex, scale: float = 1.0):
    def check(value) -> str | None:
        if not _finite(value):
            return f"non-finite: value {value!r}"
        if abs(complex(value) - ref) > EXACT_RTOL * max(1.0, scale):
            return f"value {complex(value)!r} misses the closed form {ref!r}"
        return None

    return check


def _z_check(ref_fn: Callable[[], complex], allowance: float = 0.0):
    """MC estimate within Z_MAX standard errors (plus an allowance) of a reference."""

    def check(est) -> str | None:
        if not (_finite(est.value) and math.isfinite(est.stderr)) or est.stderr <= 0.0:
            return f"non-finite: estimate {est.value!r} +- {est.stderr!r}"
        ref = ref_fn()
        miss = abs(est.value - ref)
        if miss > Z_MAX * est.stderr + allowance:
            z = (miss - allowance) / est.stderr
            return (f"{'statistical: ' if z <= Z_GROSS else ''}estimate {est.value!r} +- {est.stderr:.3g} "
                    f"misses {ref!r} (|z| = {miss / est.stderr:.2f})")
        return None

    return check


def _theorem_a_check(report) -> str | None:
    if not (_finite(report.lhs) and _finite(report.rhs) and math.isfinite(report.residual)):
        return "non-finite: Theorem-A report"
    if report.stderr is not None and not math.isfinite(report.stderr):
        return "non-finite: Theorem-A stderr"
    if not report.passed:
        fluke = report.z_score is not None and report.z_score <= Z_GROSS
        return (f"{'statistical: ' if fluke else ''}Theorem A not passed: residual {report.residual:.3g} "
                f"over tolerance {report.tolerance:.3g}")
    return None


# ---------------------------------------------------------------------------
# haar_cold
# ---------------------------------------------------------------------------

# (family, n, n_plus, n_minus, Weingarten source or None), the shapes up to
# D = 729 first
HAAR_SHAPES = [
    ("su", 3, 3, 0, "nullspace"),
    ("u", 3, 2, 2, "permutations"),
    ("sp", 2, 2, 2, "pairings"),
    ("so", 4, 2, 2, "pairings"),     # epsilon-type invariant: the pairings miss one
    ("so", 5, 4, 0, "pairings"),
    ("g2", 0, 2, 0, "g2u"),          # second moment dd/7
    ("g2", 0, 3, 0, "nullspace"),
    ("u", 3, 3, 3, "permutations"),
    ("u1power", 0, 0, 0, None),      # U(1) characters: character algebra
    ("g2", 0, 4, 0, "nullspace"),
    ("u", 4, 3, 3, "permutations"),  # D = 4096, the default budget
]
TINY_HAAR = {("su", 3), ("u", 3), ("sp", 2), ("so", 4), ("u1power", 0)}
REPEAT_MAX_DIM = 729  # the warm queries of shapes up to this D recur through the round


def haar_cold(seed: int, tiny: bool = False, tmpdir: str = ".") -> Workload:
    """One round per process: per shape a cold query, then warm ones.

    The warm queries of the small shapes recur after the small shapes and
    after every query of a large shape, so each is timed at several points
    of the round.
    """
    shapes = [s for s in HAAR_SHAPES if not tiny or (s[0], s[1]) in TINY_HAAR
              and s[2] + s[3] <= 4]
    w = Workload("haar_cold", lambda r: ops, tail_pct=75)
    small: list[Op] = []
    warm: list[Op] = []
    large: list[list[Op]] = []
    for idx, (fam, n, npl, nmi, source) in enumerate(shapes):
        gen = _rng(seed, 1, idx)
        if fam == "u1power":
            block = _u1_ops(gen)
            small.extend(block)
            warm.extend(block)
            continue
        rep = _rep(fam, n)
        inv = _invariant_fn(rep)
        signs = [1] * npl + [-1] * nmi
        # cold query: loops of two slots, alternating signs where there are both;
        # warm query: one loop over all slots
        cold = _grouped_words(rep, gen, _interleave(signs), [2] * (len(signs) // 2) + [1] * (len(signs) % 2))
        warm_words = _grouped_words(rep, gen, signs, [len(signs)])
        label = f"{fam}{n}_{npl}{nmi}"
        block = [Op(f"haar.expect.cold.{label}", lambda cold=cold: lgm.expect_product(cold, lgm.MeasureSpec.haar()),
                    _exact_check(w, ("cold", idx), lambda cold=cold: cold, inv))]
        zs = [_cscalar(gen) for _ in signs]
        chars = [lgm.linear_loop(rep, np.eye(rep.dim), s, z) for s, z in zip(signs, zs)]
        ref = math.prod(zs) * oracle.INVARIANT_DIMS[(fam, n, npl, nmi)]
        block.append(Op(f"haar.character.{label}",
                        lambda chars=chars: lgm.expect_product(chars, lgm.MeasureSpec.haar()),
                        _close_check(ref, abs(ref))))
        block.append(Op(f"haar.weingarten.{label}",
                        lambda rep=rep, a=npl, b=nmi, s=source:
                        lgm.weingarten(lgm.spanning_set(rep, a, b, s)).moment_matrix(),
                        _weingarten_check(rep, npl, nmi, fam == "so" and npl + nmi == n,
                                          G2_SECOND_MOMENT if (fam, npl, nmi) == ("g2", 2, 0) else None)))
        block.append(Op(f"haar.expect.warm.{label}",
                        lambda warm_words=warm_words: lgm.expect_product(warm_words, lgm.MeasureSpec.haar()),
                        _exact_check(w, ("warm", idx), lambda warm_words=warm_words: warm_words, inv)))
        if rep.dim ** (npl + nmi) <= REPEAT_MAX_DIM:
            small.extend(block)
            warm.extend(block[1:])
        else:
            large.append(block)
    ops: list[Op] = small + warm
    for op in (op for block in large for op in block):
        ops.extend([op] + warm)
    return w


# E[g_ij g_kl] = delta_ik delta_jl / 7 on G2, as a matrix over (i,k) x (j,l)
G2_SECOND_MOMENT = np.outer(np.eye(7).reshape(-1), np.eye(7).reshape(-1)) / 7.0


def _weingarten_check(rep, n: int, nprime: int, epsilon_missing: bool, closed_form=None):
    """tau o Wg o tau* against the Haar projector (a sub-projector when the set
    misses invariants), and the projector against a closed form where one is given."""

    def check(matrix) -> str | None:
        if not _finite(matrix):
            return "non-finite: Weingarten moment matrix"
        haar = lgm.moments.moment_operator(rep, n, nprime, lgm.MeasureSpec.haar()).matrix
        if closed_form is not None and np.max(np.abs(haar - closed_form)) > 1e-9:
            return "Haar moment misses its closed form"
        if epsilon_missing:
            defect = np.max(np.abs(haar @ matrix - matrix))
            missing = np.real(np.trace(haar) - np.trace(matrix))
            if defect > 1e-9 or abs(missing - 1.0) > 1e-8:
                return f"pairing projector is not the Haar projector less one epsilon invariant ({missing:.3g})"
            return None
        err = float(np.max(np.abs(haar - matrix)))
        return None if err <= 1e-9 else f"Weingarten moment matrix misses the Haar projector by {err:.3g}"

    return check


def _u1_ops(gen) -> list[Op]:
    """Products of U(1) characters z^k in mixed powers, against the character algebra."""
    ops = []
    for q in range(4):
        # (power, slot signs) per loop; total charge 0 on even q, 3 on odd q
        spec = [(1, (1, 1)), (2, (-1,)), (-1, (1, -1))] if q % 2 == 0 else [(2, (1,)), (1, (1, -1, 1))]
        loops = [lgm.loop(_rep("u1power", k), [np.array([[_cscalar(gen)]]) for _ in signs], list(signs),
                          _cscalar(gen)) for k, signs in spec]
        charge = sum(k * sum(signs) for k, signs in spec)
        coeff = math.prod(w.scale * math.prod(complex(c[0, 0]) for c, _ in w.factors) for w in loops)
        ref = coeff if charge == 0 else 0.0j
        ops.append(Op("haar.character.u1", lambda loops=loops: lgm.expect_product(loops, lgm.MeasureSpec.haar()),
                      _close_check(ref, abs(coeff))))
    return ops


# ---------------------------------------------------------------------------
# loop_calculus
# ---------------------------------------------------------------------------

# (family, n, sign patterns of the two loops, Brownian ops?)  D <= 729 throughout.
# Brownian ops, at a new t every round, only where D <= 27: lgm keeps every
# moment operator it forms, and a run's memory must not grow with its speed.
CALCULUS_SHAPES = [
    ("u", 3, ((1, -1), (1, -1)), False),
    ("su", 3, ((1, 1), (1,)), True),
    ("su", 2, ((1, -1, 1), (-1,)), True),
    ("so", 3, ((1, -1), (1, 1)), False),
    ("so", 4, ((1, 1), (1, -1)), False),
    ("sp", 2, ((1, -1), (1, 1)), False),
    ("g2", 0, ((1, 1), (1,)), False),
    ("u1power", 0, ((1, -1, 1), (-1,)), True),
]


def loop_calculus(seed: int, tiny: bool = False, tmpdir: str = ".") -> Workload:
    shapes = CALCULUS_SHAPES[:3] + CALCULUS_SHAPES[-1:] if tiny else CALCULUS_SHAPES
    fixed = []
    for idx, (fam, n, pats, brownian) in enumerate(shapes):
        gen = _rng(seed, 2, idx)
        if fam == "u1power":
            loops = [lgm.loop(_rep("u1power", k), [np.array([[_cscalar(gen)]]) for _ in p], list(p), _cscalar(gen))
                     for k, p in zip((2, 1), pats)]
            inv = None
        else:
            rep = _rep(fam, n)
            loops = [_word(rep, gen, p) for p in pats]
            inv = _invariant_fn(rep)
        path = os.path.join(tmpdir, f"loops_{idx}.json")
        with open(path, "w") as fh:
            json.dump([lgm.loops.loop_to_json(x) for x in loops], fh)
        fixed.append((idx, f"{fam}{n}", loops, inv, brownian, path, float(0.4 + 0.8 * gen.random())))

    w = Workload("loop_calculus", None, tail_pct=95, warmup=True)

    def rounds(r: int) -> list[Op]:
        ops = []
        for idx, label, (w1, w2), inv, brownian, path, t0 in fixed:
            haar = lgm.MeasureSpec.haar()
            t = round(t0 + 0.001 * r, 6)  # a new t every round: Brownian cache writes
            ops.append(Op(f"calc.theorem_a.haar.{label}",
                          lambda a=w1, b=w2: lgm.verify_theorem_a([a, b], lgm.MeasureSpec.haar()),
                          _theorem_a_check))
            ops.append(Op(f"calc.laplacian.{label}",
                          lambda a=w1, b=w2: lgm.expect_product([lgm.laplacian(a), b], lgm.MeasureSpec.haar()),
                          _exact_check(w, ("lap", idx), lambda a=w1, b=w2: [lgm.laplacian(a), b], inv)))
            ops.append(Op(f"calc.merge.{label}",
                          lambda a=w1, b=w2: lgm.expect_product([lgm.total_merge(a, b)], lgm.MeasureSpec.haar()),
                          _exact_check(w, ("merge", idx), lambda a=w1, b=w2: [lgm.total_merge(a, b)], inv)))
            ops.append(Op(f"calc.cli.expect.{label}",
                          lambda p=path: _cli(["expect", "--loops", p, "--measure", "haar", "--out", "json"]),
                          _cli_value_check(_exact_check(w, ("pair", idx), lambda a=w1, b=w2: [a, b], inv))))
            measure = f"brownian:t={t!r}" if brownian else "haar"
            ops.append(Op(f"calc.cli.theorem_a.{label}",
                          lambda p=path, m=measure: _cli(["verify", "theorem-a", "--loops", p, "--measure", m,
                                                         "--out", "json"]),
                          _cli_theorem_a_check))
            if brownian:
                ops.append(Op(f"calc.theorem_a.brownian.{label}",
                              lambda a=w1, b=w2, t=t: lgm.verify_theorem_a([a, b], lgm.MeasureSpec.brownian(t)),
                              _theorem_a_check))
        return ops

    w.rounds = rounds
    return w


def _cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lgm.cli.main(argv)
    return code, buf.getvalue()


def _cli_document(result):
    code, text = result
    try:
        return code, json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return code, None


def _cli_value_check(inner):
    def check(result) -> str | None:
        code, doc = _cli_document(result)
        if code != 0 or doc is None or "value" not in doc:
            return f"lgm expect exited {code} with {result[1][:200]!r}"
        return inner(complex(*doc["value"]))

    return check


def _cli_theorem_a_check(result) -> str | None:
    code, doc = _cli_document(result)
    if doc is None or "passed" not in doc:
        return f"lgm verify exited {code} with {result[1][:200]!r}"
    if code != 0 or not doc["passed"]:
        return f"lgm verify theorem-a did not pass: {doc}"
    return None


# ---------------------------------------------------------------------------
# wilson_mc
# ---------------------------------------------------------------------------

WILSON_GROUPS = [("u", 2), ("su", 3), ("so", 3), ("sp", 1)]
WILSON_BETA = 0.5
STRONG_BETA, STRONG_PLAQUETTES = 6.0, 40


def wilson_mc(seed: int, tiny: bool = False, tmpdir: str = ".") -> Workload:
    scale = 0.1 if tiny else 1.0
    ops: list[Op] = []
    for idx, (fam, n) in enumerate(WILSON_GROUPS):
        gen = _rng(seed, 3, idx)
        rep = _rep(fam, n)
        d = rep.dim
        inv = _invariant_fn(rep)
        # the action is a class function, so E[g^k] commutes with the group and
        # is a multiple of the identity: the Wilson mean of tr(c g^k) is
        # tr(c)/d E[tr g^k], with E[tr g^k] from the eigenvalue integral
        wilson = lgm.MeasureSpec.wilson(WILSON_BETA, [lgm.linear_loop(rep, np.eye(d))])
        w1, w2 = _word(rep, gen, (1, -1)), _word(rep, gen, (1,))
        thm_seed, lin_seed, sq_seed, haar_seed, char_seed = (int(x) for x in gen.integers(0, 2**31, 5))
        ns = {k: max(100, int(v * scale)) for k, v in MC_SAMPLES.items()}
        ops.append(Op(f"wilson.theorem_a.{fam}{n}",
                      lambda a=w1, b=w2, m=wilson, s=thm_seed, k=ns["thm_a"]:
                      lgm.verify_theorem_a([a, b], m, samples=k, rng=lgm.RngSpec(s)),
                      _theorem_a_check, samples=ns["thm_a"], stderr_of=lambda rep_: rep_.stderr))
        for power, seed_k in ((1, lin_seed), (2, sq_seed)):
            c = _gauss(gen, d)
            word = lgm.loop(rep, [c] + [np.eye(d)] * (power - 1), [1] * power)
            mean = oracle.wilson_trace_mean(fam, n, WILSON_BETA, 1, power)
            ops.append(_mc_op(f"wilson.mc.power{power}.{fam}{n}", [word], wilson, ns["wilson"], seed_k,
                              _z_check(lambda c=c, d=d, m=mean: np.trace(c) / d * m)))
        haar_items = [w1, lgm.conjugate_loop(w1)]
        ops.append(_mc_op(f"wilson.mc.haar.{fam}{n}", haar_items, lgm.MeasureSpec.haar(), ns["haar"], haar_seed,
                          _z_check(lambda items=haar_items, inv=inv: oracle.haar_exact(items, inv)[0])))
        chars = [lgm.linear_loop(rep, np.eye(d)), lgm.linear_loop(rep, np.eye(d), -1)]
        ops.append(_mc_op(f"wilson.mc.character.{fam}{n}", chars, lgm.MeasureSpec.haar(), ns["haar"], char_seed,
                          _z_check(lambda: 1.0)))
    # 40 SU(3) plaquettes at beta = 6: the weights overflow when squared
    gen = _rng(seed, 3, 99)
    rep = _rep("su", 3)
    plaq = [lgm.linear_loop(rep, np.eye(3))] * STRONG_PLAQUETTES
    strong = lgm.MeasureSpec.wilson(STRONG_BETA, plaq)
    c = _gauss(gen, 3)
    mean_tr = oracle.wilson_trace_mean("su", 3, STRONG_BETA, STRONG_PLAQUETTES)
    ops.append(_mc_op("wilson.mc.strong.su3", [lgm.linear_loop(rep, c)], strong,
                      max(100, int(MC_SAMPLES["strong"] * scale)), int(gen.integers(0, 2**31)),
                      _z_check(lambda c=c, m=mean_tr: np.trace(c) / 3 * m)))
    return Workload("wilson_mc", lambda r: ops, tail_pct=88)


def _mc_op(kind, items, measure, samples, seed, check) -> Op:
    return Op(kind, lambda: lgm.mc_expect(items, measure, samples, lgm.RngSpec(seed)), check,
              samples=samples, stderr_of=lambda est: est.stderr)


# ---------------------------------------------------------------------------
# brownian_mc
# ---------------------------------------------------------------------------

BROWNIAN_GROUPS = [("su", 2), ("so", 3), ("u", 3)]
BROWNIAN_STEPS = 200  # mc_expect's default; the O(h) allowance uses it


def brownian_mc(seed: int, tiny: bool = False, tmpdir: str = ".") -> Workload:
    scale = 0.4 if tiny else 1.0
    ops: list[Op] = []
    for idx, (fam, n) in enumerate(BROWNIAN_GROUPS):
        gen = _rng(seed, 4, idx)
        rep = _rep(fam, n)
        # one word per group keeps the round short, so each op recurs often
        word = _word(rep, gen, (1, -1, 1))
        t = float(0.5 + gen.random())
        measure = lgm.MeasureSpec.brownian(t)
        bound = abs(word.scale) * math.prod(float(np.linalg.norm(c)) for c, _ in word.factors)
        # Euler-geodesic weak error is O(h), h = t / steps
        allowance = 2.0 * t / BROWNIAN_STEPS * bound
        ops.append(_mc_op(f"brownian.mc.{fam}{n}", [word], measure,
                          max(100, int(MC_SAMPLES["brownian"] * scale)), int(gen.integers(0, 2**31)),
                          _z_check(lambda word=word, m=measure: lgm.expect_product([word], m), allowance)))
    gen = _rng(seed, 4, 99)
    g2 = _rep("g2")
    draws = max(2, int(MC_SAMPLES["g2_draws"] * scale))
    s = int(gen.integers(0, 2**31))
    ops.append(Op("brownian.g2_draws", lambda s=s, k=draws: lgm.haar_sample_batch(g2, lgm.RngSpec(s), k),
                  _g2_check(g2), samples=draws))
    return Workload("brownian_mc", lambda r: ops, tail_pct=75)


def _g2_check(rep):
    """G2 draws are checked exactly: each must lie on the group.  A few draws
    cannot test the law; the G2 second moment is checked in haar_cold."""

    def check(gs) -> str | None:
        if not _finite(gs):
            return "non-finite: G2 draw"
        worst = max(lgm.group_residual(rep, g) for g in gs)
        return None if worst <= 1e-5 else f"G2 draw off the group by {worst:.3g}"

    return check


# the groups each workload builds during set-up, (family, n)
SETUP_GROUPS = {
    "haar_cold": [(f, n) for f, n, *_ in HAAR_SHAPES if f != "u1power"] + [("u1power", k) for k in (1, 2, -1)],
    "loop_calculus": [(f, n) for f, n, *_ in CALCULUS_SHAPES if f != "u1power"] + [("u1power", k) for k in (2, 1)],
    "wilson_mc": list(WILSON_GROUPS),
    "brownian_mc": list(BROWNIAN_GROUPS) + [("g2", 0)],
}

BUILDERS = {
    "haar_cold": haar_cold,
    "loop_calculus": loop_calculus,
    "wilson_mc": wilson_mc,
    "brownian_mc": brownian_mc,
}
