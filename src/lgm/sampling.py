"""Monte-Carlo oracle: Haar samplers, Brownian paths, and identity checks.

Haar sampling:

* U(N): the Q factor of a complex Ginibre matrix with positive R diagonal,
  which makes the decomposition unique and the law exactly Haar (Mezzadri,
  Notices AMS 54, 2007).  It is computed for the whole batch at once by
  column Gram-Schmidt, re-orthogonalized once, which builds exactly that Q.
* SU(N): a U(N) draw deflated by ``det^{1/N}``.
* SO(N): the same Q factor of a real Ginibre, then draws landing in the
  wrong component are right-translated into SO(N) by negating the last
  column (right translation by a fixed reflection preserves Haar).
* Sp(N): quaternionic Gram-Schmidt in the complex 2N x 2N model.  Columns
  are built in pairs (q_k, -J conj(q_k)); the whole procedure commutes with
  left multiplication by symplectic-unitary matrices, so the output law is
  left-invariant and therefore exactly Haar on Sp(N).
* G2 has no direct sampler; approximate Haar by running the Brownian motion
  to large time (the heat semigroup converges to the Haar projector).
* U(1) characters: a uniform phase.

The Brownian motion ``dg = xi^a(g) o dW^a`` is integrated by the geodesic
Euler scheme ``g <- g expm(sqrt(h) z_a xi^a)``, which stays on the group to
roundoff; its weak error in moments is O(h).

Estimators are deterministic functions of an RngSpec.  The Wilson action is
handled by self-normalized importance sampling over Haar draws, refused when
the weights leave fewer than ``WILSON_MIN_ESS`` effective draws.  Plaquettes
are linear loops, so the action is summed into one coefficient per (rep,
slot sign) and costs one trace per draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import RepData, check_one_group
from .loops import Loop, LoopSum, conjugate_loop, linear_loop, total_merge, total_twist
from .moments import DEFAULT_BUDGET, MeasureSpec, expect_product

__all__ = [
    "RngSpec",
    "MCEstimate",
    "BrownianPathSpec",
    "TheoremAReport",
    "haar_sample",
    "haar_sample_batch",
    "brownian_path",
    "brownian_path_batch",
    "mc_expect",
    "verify_theorem_a",
]

#: defaults for the approximate G2 Haar sampler (long-time Brownian mixing)
G2_HAAR_TIME = 50.0
G2_HAAR_STEPS = 5000

#: smallest Kish effective sample size a Wilson estimate is returned from; the
#: standard error is a normal approximation, which needs tens of effective draws
WILSON_MIN_ESS = 30.0


@dataclass(frozen=True)
class RngSpec:
    """Seed plus substream index; fixes every draw bit-exactly."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng((int(self.seed), int(self.stream)))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo value with its standard error.

    ``imag_discarded`` reports the largest imaginary magnitude dropped from
    the Wilson action exponent (zero for other measures).
    """

    value: complex
    stderr: float
    samples: int
    imag_discarded: float = 0.0


@dataclass(frozen=True)
class BrownianPathSpec:
    t: float
    steps: int
    rng: RngSpec

    def __post_init__(self):
        _check_path(self.t, self.steps)


def _check_path(t: float, steps: int) -> None:
    """The finiteness rule of ``MeasureSpec``, plus a positive time and step count."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"path time must be finite and positive, got t={t}")
    if steps < 1:
        raise ValueError("need at least one step")


def _complex_ginibre(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    z = gen.standard_normal((count, n, n)) + 1j * gen.standard_normal((count, n, n))
    return z / np.sqrt(2.0)


def haar_sample_batch(rep: RepData, rng: RngSpec, count: int) -> np.ndarray:
    """A stack of ``count`` Haar draws in the group's matrix realization."""
    gen = rng.generator()
    fam = rep.spec.family
    n = rep.spec.n
    if fam == "u" or fam == "su":
        q = _gram_schmidt(_complex_ginibre(gen, count, n))
        if fam == "su":
            det = np.linalg.det(q)
            q = q * np.exp(-np.log(det) / n)[..., None, None]
        return q
    if fam == "so":
        q = _gram_schmidt(gen.standard_normal((count, n, n)))
        flip = np.linalg.det(q) < 0
        q[flip, :, -1] *= -1.0
        return q.astype(np.complex128)
    if fam == "sp":
        return _haar_sp(gen, count, n, rep.constants["J"])
    if fam == "u1power":
        z = np.exp(2j * np.pi * gen.random(count))
        return z[:, None, None]
    if fam == "g2":
        return brownian_path_batch(rep, G2_HAAR_TIME, G2_HAAR_STEPS, rng, count)
    raise ValueError(fam)  # pragma: no cover


def _orthonormal_column(v: np.ndarray, cols: list) -> np.ndarray:
    """Column ``v`` (one per draw, shape ``(d, B)``) made orthogonal to the
    orthonormal columns ``cols`` by modified Gram-Schmidt, re-orthogonalized
    once for roundoff, and normalized."""
    for _ in range(2):
        for c in cols:
            v = v - np.sum(np.conj(c) * v, axis=0) * c
    return v / np.sqrt(np.sum((np.conj(v) * v).real, axis=0))


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """The Q factor of each ``z = QR`` in a stack ``(B, n, n)``, with R's
    diagonal positive: the unique QR factor that makes Ginibre draws Haar."""
    cols: list = []
    for v in np.ascontiguousarray(z.transpose(2, 1, 0)):  # column k of every draw, as (n, B)
        cols.append(_orthonormal_column(v, cols))
    return np.ascontiguousarray(np.stack(cols).transpose(2, 1, 0))


def _haar_sp(gen: np.random.Generator, count: int, n: int, j: np.ndarray) -> np.ndarray:
    d = 2 * n
    firsts: list = []
    seconds: list = []
    for _ in range(n):
        v = (gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))) / np.sqrt(2.0)
        v = _orthonormal_column(v.T, firsts + seconds)
        firsts.append(v)
        seconds.append(-(j @ np.conj(v)))
    return np.ascontiguousarray(np.stack(firsts + seconds).transpose(2, 1, 0))


def haar_sample(rep: RepData, rng: RngSpec) -> np.ndarray:
    return haar_sample_batch(rep, rng, 1)[0]


def brownian_path_batch(rep: RepData, t: float, steps: int, rng: RngSpec,
                        count: int) -> np.ndarray:
    """Endpoints of ``count`` independent Brownian paths started at identity."""
    from .tensor import expm_skew_batch

    _check_path(t, steps)
    gen = rng.generator()
    xis = rep.sampling_generators
    h = t / steps
    g = np.broadcast_to(rep.identity(), (count,) + rep.identity().shape).copy()
    sqrt_h = np.sqrt(h)
    for _ in range(steps):
        z = gen.standard_normal((count, xis.shape[0]))
        x = sqrt_h * np.einsum("ba,aij->bij", z, xis)
        g = g @ expm_skew_batch(x)
    return g


def brownian_path(rep: RepData, spec: BrownianPathSpec) -> np.ndarray:
    return brownian_path_batch(rep, spec.t, spec.steps, spec.rng, 1)[0]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _product_values(items: Sequence, gs: np.ndarray) -> np.ndarray:
    vals = np.ones(gs.shape[0], dtype=np.complex128)
    for item in items:
        vals = vals * item.evaluate_batch(gs)
    return vals


def _common_rep(items: Sequence) -> RepData:
    reps = []
    for item in items:
        if isinstance(item, Loop):
            reps.append(item.rep)
        elif isinstance(item, LoopSum):
            for term in item.terms:
                reps.extend([term.left.rep, term.right.rep] if hasattr(term, "left") else [term.rep])
        else:
            raise TypeError(f"expected Loop or LoopSum, got {type(item).__name__}")
    if not reps:
        raise ValueError("need at least one loop")
    check_one_group(rep.spec for rep in reps)
    return reps[0]


def _mean_and_stderr(vals: np.ndarray) -> tuple[complex, float]:
    mean = np.mean(vals)
    if vals.size < 2:
        return complex(mean), float("inf")
    var = np.sum(np.abs(vals - mean) ** 2) / (vals.size - 1)
    return complex(mean), float(np.sqrt(var / vals.size))


def _action_loops(plaquettes: Sequence[Loop]) -> list[Loop]:
    """The Wilson action ``sum_p W_p`` as one linear loop per (rep, slot sign).

    Plaquettes are linear loops ``scale * tr(c rho(g^s))``, so their sum is
    the loop with the summed coefficient ``sum scale * c`` for each key.
    """
    summed: dict = {}
    for p in plaquettes:
        (coeff, sign), = p.factors
        summed[p.rep, sign] = summed.get((p.rep, sign), 0.0) + p.scale * coeff
    return [linear_loop(rep, coeff, sign) for (rep, sign), coeff in summed.items()]


def _wilson_estimate(log_w: np.ndarray, vals: np.ndarray) -> tuple[complex, float]:
    """Self-normalized importance-sampling mean of ``vals`` over Haar draws.

    The weights ``exp(log_w)``, ``log_w = beta * Re sum_p W_p``, are shifted
    by their maximum before ``exp``; the estimate is refused when their Kish
    effective sample size ``(sum w)^2 / sum w^2`` falls below
    ``WILSON_MIN_ESS``.  Returns the value and its standard error.
    """
    weights = np.exp(log_w - np.max(log_w))
    wsum = np.sum(weights)
    ess = float(wsum ** 2 / np.sum(weights ** 2))
    if not ess >= WILSON_MIN_ESS:
        raise RuntimeError(
            f"effective sample size {ess:.3g} of {log_w.size} draws is below {WILSON_MIN_ESS:g}: "
            "the Wilson weights collapsed onto a few draws"
        )
    value = complex(np.sum(weights * vals) / wsum)
    stderr = float(np.sqrt(np.sum(weights ** 2 * np.abs(vals - value) ** 2)) / wsum)
    return value, stderr


def mc_expect(items: Sequence, measure: MeasureSpec, samples: int, rng: RngSpec,
              steps: int = 200) -> MCEstimate:
    """Monte-Carlo expectation of a product of loops under a measure.

    Haar and Brownian draw directly from the measure; the Wilson action is
    estimated by self-normalized importance sampling over Haar draws with
    weights ``exp(beta * Re sum_p W_p)``.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rep = _common_rep(list(items) + list(measure.plaquettes))
    if measure.kind == "haar":
        gs = haar_sample_batch(rep, rng, samples)
        value, stderr = _mean_and_stderr(_product_values(items, gs))
        return MCEstimate(value, stderr, samples)
    if measure.kind == "brownian":
        gs = brownian_path_batch(rep, measure.t, steps, rng, samples)
        value, stderr = _mean_and_stderr(_product_values(items, gs))
        return MCEstimate(value, stderr, samples)
    # Wilson action
    if not measure.plaquettes:
        raise ValueError("the Wilson measure needs an explicit plaquette list")
    gs = haar_sample_batch(rep, rng, samples)
    action = sum(w.evaluate_batch(gs) for w in _action_loops(measure.plaquettes))
    value, stderr = _wilson_estimate(measure.beta * action.real, _product_values(items, gs))
    imag_discarded = float(np.max(np.abs(measure.beta * action.imag)))
    return MCEstimate(value, stderr, samples, imag_discarded)


# ---------------------------------------------------------------------------
# Theorem-A style identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremAReport:
    """Both sides of the integration-by-parts identity and their residual."""

    kind: str
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    passed: bool
    z_score: float | None = None
    stderr: float | None = None
    samples: int | None = None


def _merge_pieces(loops: Sequence[Loop]):
    """The merge terms (r < s pairs) and twist terms (per loop), each with the
    positions of its spectator loops."""
    slots = range(len(loops))
    merges = [(total_merge(loops[r], loops[s]), [k for k in slots if k not in (r, s)])
              for r, s in itertools.combinations(slots, 2)]
    twists = [(total_twist(w), [k for k in slots if k != r])
              for r, w in enumerate(loops) if w.n_slots >= 2]
    return merges, twists


def _lhs_weight(loops: Sequence[Loop]) -> float:
    return float(sum(w.rep.lam * w.n_slots for w in loops))


def _exact_haar_residual(loops: Sequence[Loop], budget: int):
    haar = MeasureSpec.haar()
    merges, twists = _merge_pieces(loops)
    lhs = _lhs_weight(loops) * expect_product(list(loops), haar, budget)
    rhs = 0.0 + 0.0j
    for ms, rest in merges:
        rhs -= 2.0 * expect_product([ms] + [loops[k] for k in rest], haar, budget)
    for ts, rest in twists:
        rhs -= expect_product([ts] + [loops[k] for k in rest], haar, budget)
    return lhs, rhs


def _exact_report(kind: str, lhs: complex, rhs: complex, tol: float) -> TheoremAReport:
    lhs, rhs, tol = complex(lhs), complex(rhs), float(tol)
    residual = abs(lhs - rhs)
    return TheoremAReport(kind, lhs, rhs, residual, tol, residual <= tol)


def verify_theorem_a(loops: Sequence[Loop], measure: MeasureSpec,
                     samples: int | None = None, rng: RngSpec | None = None,
                     budget: int = DEFAULT_BUDGET) -> TheoremAReport:
    """Check the integration-by-parts identity for a family of loops.

    Haar: both sides evaluated exactly; residual must be tiny.
    Brownian: the identity becomes an ODE in t; the exact expectation is
    differentiated by central differences, step ``min(1e-4, t/2)``, and
    compared with the merging/twisting right-hand side.
    Wilson: both sides estimated on one common Haar sample stream
    (self-normalized importance sampling); reports a z-score.  At beta = 0
    the measure is Haar and the residual is computed exactly instead.
    """
    loops = list(loops)
    if measure.kind == "haar":
        lhs, rhs = _exact_haar_residual(loops, budget)
        return _exact_report("haar", lhs, rhs, 1e-9 * (1.0 + abs(lhs)))

    if measure.kind == "brownian":
        t = measure.t
        fd_step = min(1e-4, t / 2)  # keeps t - fd_step > 0
        merges, twists = _merge_pieces(loops)

        def f(time: float) -> complex:
            return expect_product(list(loops), MeasureSpec.brownian(time), budget)

        deriv2 = (f(t + fd_step) - f(t - fd_step)) / fd_step  # 2 f'(t)
        at_t = MeasureSpec.brownian(t)
        rhs = _lhs_weight(loops) * f(t)
        for ms, rest in merges:
            rhs += 2.0 * expect_product([ms] + [loops[k] for k in rest], at_t, budget)
        for ts, rest in twists:
            rhs += expect_product([ts] + [loops[k] for k in rest], at_t, budget)
        return _exact_report("brownian", deriv2, rhs, 1e-6 * (1.0 + abs(rhs)))

    # Wilson action
    if measure.beta == 0.0:
        lhs, rhs = _exact_haar_residual(loops, budget)
        return _exact_report("wilson", lhs, rhs, 1e-9 * (1.0 + abs(lhs)))
    if samples is None:
        raise ValueError("the Wilson check needs an explicit sample count")
    if rng is None:
        rng = RngSpec(0)
    rep = _common_rep(list(loops) + list(measure.plaquettes))
    gs = haar_sample_batch(rep, rng, samples)

    vals = [w.evaluate_batch(gs) for w in loops]

    def product(positions) -> np.ndarray:
        out = np.ones(samples, dtype=np.complex128)
        for k in positions:
            out = out * vals[k]
        return out

    merges, twists = _merge_pieces(loops)
    prod = product(range(len(loops)))
    y = _lhs_weight(loops) * prod
    for ms, rest in merges:
        y = y + 2.0 * ms.evaluate_batch(gs) * product(rest)
    for ts, rest in twists:
        y = y + ts.evaluate_batch(gs) * product(rest)
    beta = measure.beta
    # The sampler weights by exp(beta * Re(sum_p W_p)), i.e. the Hermitized
    # action; the beta and beta^2 terms must use the same effective
    # plaquette set (1/2)(W_p + conj(W_p)).  Summed per rep, with A and B the
    # summed coefficients of the + and - slots, that set is the loop
    # e = tr((A + B^dagger)/2 rho(g)) and its conjugate, and e + conj(e) = 2 Re e.
    halves: dict = {}
    for w in _action_loops(measure.plaquettes):
        (coeff, sign), = w.factors
        halves[w.rep] = halves.get(w.rep, 0.0) + 0.5 * (coeff if sign == 1 else coeff.conj().T)
    log_w = np.zeros(samples)
    effective = []
    for p_rep, half in halves.items():
        e = linear_loop(p_rep, half)
        e_re = e.evaluate_batch(gs).real
        log_w = log_w + 2.0 * beta * e_re
        y = y - 2.0 * beta * p_rep.lam * e_re * prod
        effective.extend([e, conjugate_loop(e)])
    for p, p2 in itertools.product(effective, repeat=2):
        y = y - beta ** 2 * total_merge(p, p2).evaluate_batch(gs) * prod

    value, stderr = _wilson_estimate(log_w, y)
    z = abs(value) / stderr if stderr > 0 else float("inf")
    return TheoremAReport("wilson", value, 0.0, abs(value), 3.0 * stderr,
                          z <= 3.0, z_score=z, stderr=stderr, samples=samples)
