"""Monte-Carlo oracle: Haar samplers, Brownian paths, and identity checks.

Haar sampling:

* U(N): QR of a complex Ginibre matrix with the R-diagonal phases pushed
  into Q, which makes the decomposition unique and the law exactly Haar.
* SU(N): a U(N) draw deflated by ``det^{1/N}``.
* SO(N): QR of a real Ginibre with positive R-diagonal signs, then draws
  landing in the wrong component are right-translated into SO(N) by negating
  the last column (right translation by a fixed reflection preserves Haar).
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
the weights leave fewer than ``WILSON_MIN_ESS`` effective draws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import RepData
from .loops import Loop, LoopSum, conjugate_loop, total_merge, total_twist
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
        if not self.t > 0:
            raise ValueError("path time must be positive")
        if self.steps < 1:
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
        q, r = np.linalg.qr(_complex_ginibre(gen, count, n))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[..., None, :]
        if fam == "su":
            det = np.linalg.det(q)
            q = q * np.exp(-np.log(det) / n)[..., None, None]
        return q
    if fam == "so":
        q, r = np.linalg.qr(gen.standard_normal((count, n, n)))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * np.sign(d)[..., None, :]
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


def _haar_sp(gen: np.random.Generator, count: int, n: int, j: np.ndarray) -> np.ndarray:
    d = 2 * n
    q = np.zeros((count, d, d), dtype=np.complex128)
    for k in range(n):
        v = (gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))) / np.sqrt(2.0)
        for _ in range(2):  # re-orthogonalize once for roundoff
            for c in itertools.chain(range(k), range(n, n + k)):
                overlap = np.sum(np.conj(q[:, :, c]) * v, axis=1)
                v = v - overlap[:, None] * q[:, :, c]
        v = v / np.linalg.norm(v, axis=1)[:, None]
        q[:, :, k] = v
        q[:, :, n + k] = -np.einsum("ij,bj->bi", j, np.conj(v))
    return q


def haar_sample(rep: RepData, rng: RngSpec) -> np.ndarray:
    return haar_sample_batch(rep, rng, 1)[0]


def brownian_path_batch(rep: RepData, t: float, steps: int, rng: RngSpec,
                        count: int) -> np.ndarray:
    """Endpoints of ``count`` independent Brownian paths started at identity."""
    from .tensor import expm_skew_batch

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
    first = reps[0]
    for rep in reps[1:]:
        same_group = rep.spec == first.spec or (
            rep.spec.family == "u1power" and first.spec.family == "u1power"
        )
        if not same_group:
            raise ValueError("loops must live on one group for sampling")
    return first


def _mean_and_stderr(vals: np.ndarray) -> tuple[complex, float]:
    mean = np.mean(vals)
    if vals.size < 2:
        return complex(mean), float("inf")
    var = np.sum(np.abs(vals - mean) ** 2) / (vals.size - 1)
    return complex(mean), float(np.sqrt(var / vals.size))


def _wilson_estimate(measure: MeasureSpec, gs: np.ndarray,
                     vals: np.ndarray) -> tuple[complex, float, np.ndarray]:
    """Self-normalized importance-sampling mean of ``vals`` over Haar draws ``gs``.

    The weights ``exp(beta * Re sum_p W_p)`` are shifted by their maximum
    before ``exp``; the estimate is refused when their Kish effective sample
    size ``(sum w)^2 / sum w^2`` falls below ``WILSON_MIN_ESS``.  Returns the
    value, its standard error and the action at each draw.
    """
    action = np.zeros(gs.shape[0], dtype=np.complex128)
    for p in measure.plaquettes:
        action = action + p.evaluate_batch(gs)
    log_w = measure.beta * action.real
    weights = np.exp(log_w - np.max(log_w))
    wsum = np.sum(weights)
    ess = float(wsum ** 2 / np.sum(weights ** 2))
    if not ess >= WILSON_MIN_ESS:
        raise RuntimeError(
            f"effective sample size {ess:.3g} of {gs.shape[0]} draws is below {WILSON_MIN_ESS:g}: "
            "the Wilson weights collapsed onto a few draws"
        )
    value = complex(np.sum(weights * vals) / wsum)
    stderr = float(np.sqrt(np.sum(weights ** 2 * np.abs(vals - value) ** 2)) / wsum)
    return value, stderr, action


def mc_expect(items: Sequence, measure: MeasureSpec, samples: int, rng: RngSpec,
              steps: int = 200) -> MCEstimate:
    """Monte-Carlo expectation of a product of loops under a measure.

    Haar and Brownian draw directly from the measure; the Wilson action is
    estimated by self-normalized importance sampling over Haar draws with
    weights ``exp(beta * Re sum_p W_p)``.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rep = _common_rep(items)
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
    value, stderr, action = _wilson_estimate(measure, gs, _product_values(items, gs))
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
    """The merge terms (r < s pairs) and twist terms (per loop) with their spectators."""
    merges = []
    for r, s in itertools.combinations(range(len(loops)), 2):
        rest = [loops[k] for k in range(len(loops)) if k not in (r, s)]
        merges.append((total_merge(loops[r], loops[s]), rest))
    twists = []
    for r, w in enumerate(loops):
        if w.n_slots >= 2:
            rest = [loops[k] for k in range(len(loops)) if k != r]
            twists.append((total_twist(w), rest))
    return merges, twists


def _lhs_weight(loops: Sequence[Loop]) -> float:
    return float(sum(w.rep.lam * w.n_slots for w in loops))


def _exact_haar_residual(loops: Sequence[Loop], budget: int):
    haar = MeasureSpec.haar()
    merges, twists = _merge_pieces(loops)
    lhs = _lhs_weight(loops) * expect_product(list(loops), haar, budget)
    rhs = 0.0 + 0.0j
    for ms, rest in merges:
        rhs -= 2.0 * expect_product([ms] + rest, haar, budget)
    for ts, rest in twists:
        rhs -= expect_product([ts] + rest, haar, budget)
    return lhs, rhs


def _exact_report(kind: str, lhs: complex, rhs: complex, tol: float) -> TheoremAReport:
    lhs, rhs, tol = complex(lhs), complex(rhs), float(tol)
    residual = abs(lhs - rhs)
    return TheoremAReport(kind, lhs, rhs, residual, tol, residual <= tol)


def verify_theorem_a(loops: Sequence[Loop], measure: MeasureSpec,
                     samples: int | None = None, rng: RngSpec | None = None,
                     budget: int = DEFAULT_BUDGET, fd_step: float = 1e-4) -> TheoremAReport:
    """Check the integration-by-parts identity for a family of loops.

    Haar: both sides evaluated exactly; residual must be tiny.
    Brownian: the identity becomes an ODE in t; the exact expectation is
    differentiated by central differences and compared with the
    merging/twisting right-hand side.
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
        merges, twists = _merge_pieces(loops)

        def f(time: float) -> complex:
            return expect_product(list(loops), MeasureSpec.brownian(time), budget)

        deriv2 = (f(t + fd_step) - f(t - fd_step)) / fd_step  # 2 f'(t)
        at_t = MeasureSpec.brownian(t)
        rhs = _lhs_weight(loops) * f(t)
        for ms, rest in merges:
            rhs += 2.0 * expect_product([ms] + rest, at_t, budget)
        for ts, rest in twists:
            rhs += expect_product([ts] + rest, at_t, budget)
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

    merges, twists = _merge_pieces(loops)
    prod = _product_values(loops, gs)
    y = _lhs_weight(loops) * prod
    for ms, rest in merges:
        y = y + 2.0 * ms.evaluate_batch(gs) * _product_values(rest, gs)
    for ts, rest in twists:
        y = y + ts.evaluate_batch(gs) * _product_values(rest, gs)
    beta = measure.beta
    # The sampler weights by exp(beta * Re(sum_p W_p)), i.e. the Hermitized
    # action; the beta and beta^2 terms must use the same effective
    # plaquette set (1/2)(W_p + conj(W_p)).  When the caller's action is
    # already real this changes nothing.
    effective = []
    for p in measure.plaquettes:
        effective.extend([p.scaled(0.5), conjugate_loop(p).scaled(0.5)])
    for p in effective:
        y = y - beta * p.rep.lam * p.evaluate_batch(gs) * prod
    for p, p2 in itertools.product(effective, repeat=2):
        y = y - beta ** 2 * total_merge(p, p2).evaluate_batch(gs) * prod

    value, stderr, _ = _wilson_estimate(measure, gs, y)
    z = abs(value) / stderr if stderr > 0 else float("inf")
    return TheoremAReport("wilson", value, 0.0, abs(value), 3.0 * stderr,
                          z <= 3.0, z_score=z, stderr=stderr, samples=samples)
