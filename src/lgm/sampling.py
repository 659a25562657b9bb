"""Monte-Carlo oracle: Haar samplers, Brownian paths, and identity checks.

Haar sampling:

* U(N): the Q factor of a complex Ginibre matrix with positive R diagonal,
  which makes the decomposition unique and the law exactly Haar (Mezzadri,
  Notices AMS 54, 2007).  It is computed for the whole batch at once by
  column Gram-Schmidt, re-orthogonalized once, which builds exactly that Q.
* SU(N): the first N - 1 columns of that Q, from the same Ginibre matrix,
  and a last column that makes the determinant one.  For N = 2 it is
  ``conj(-q1[1], q1[0])``, for N = 3 ``conj(q1 x q2)``, with no
  determinant formed.  For N >= 4 it is Q's N-th column times
  ``conj(det Q)``.
* SO(N): the same for a real Ginibre matrix: ``(-q1[1], q1[0])`` for
  N = 2, ``q1 x q2`` for N = 3, and for N >= 4 Q's N-th column, negated
  where ``det Q = -1``.
  These draws are Haar.  For N <= 3 the first N - 1 columns are a
  Haar-random orthonormal frame, the completion maps frames one-to-one onto
  the group, and it commutes with left multiplication by the group, because
  ``(V a) x (V b) = det(V) conj(V) (a x b)`` for unitary V.  For N >= 4
  the whole map from Ginibre matrix to draw commutes with it, because
  ``det(V Q) = det Q``.  So the law of the draw is left-invariant, which
  makes it Haar.
* Sp(N): quaternionic Gram-Schmidt in the complex 2N x 2N model.  Columns
  are built in pairs (q_k, -J conj(q_k)); the whole procedure commutes with
  left multiplication by symplectic-unitary matrices, so the output law is
  left-invariant and therefore exactly Haar on Sp(N).
* G2: an octonion frame.  G2 acts simply transitively on basic triples
  ``(u1, u2, u4)`` of unit imaginary octonions, ``u4`` orthogonal to ``u1``,
  ``u2`` and ``u1 x u2`` (Harvey-Lawson, Acta Math. 148 (1982); Bryant,
  Ann. Math. 126 (1987)), so a triple fixes the element whose columns are
  the triple and its cross products.  The triple is Gram-Schmidt of three
  Gaussian vectors; their law is O(7)-invariant, Gram-Schmidt commutes with
  O(7) and the cross product with G2, so the law of the frame is
  left-invariant and therefore exactly Haar on G2.
* U(1) characters: a uniform phase.

The Brownian motion ``dg = xi^a(g) o dW^a`` is integrated by the geodesic
Euler scheme ``g <- g expm(sqrt(h) z_a xi^a)``, which stays on the group to
roundoff; its weak error in moments is O(h).  Steps run in blocks: one
normal draw of shape ``(k, count, dim_g)`` per block, which is the stream
``k`` per-step draws would read, so a seed fixes the same path at any block
size.  On a rank-one algebra (U(1), SU(2), SO(3), Sp(1)), where every
increment has ``X^3 = -theta^2 X``, the block's exponentials are the
closed form ``I + sinc(theta) X + sinc(theta/2)^2 X^2 / 2``, exact at any
step size and formed by one GEMM against the products of the generators;
the algebra is recognized from its generators, not its family name.  On the
others one GEMM forms the block's increments and one call of the real
Taylor kernel ``expm_skew_batch`` exponentiates them.  Every walk runs in
real arithmetic: complex generators, a U(1) character's ``i`` included,
are taken in the interleaved real ``2d x 2d`` form ``S(x)`` of ``tensor``,
the walk multiplies its steps in it, and reads the endpoints back as complex
once at the end; SO and G2 draws come out exactly real.

Estimators are deterministic functions of an RngSpec, and one pipeline,
`_mc_estimate`, makes every one: it takes a loop polynomial ``sum coef *
prod items``, draws once (Brownian path endpoints, Haar for the rest),
prepares the draws once for all its loops (`loops._Draws`), evaluates each
distinct item once, and gives every draw the log-weight
``beta * Re sum_p W_p``, zero for Haar and Brownian, which have no
plaquettes.  One self-normalized estimator reads it and refuses when fewer
than ``WILSON_MIN_ESS`` effective draws remain, which only Wilson weights
can cause: equal weights keep all of at least ``MIN_SAMPLES``, the floor
`_check_samples` puts on every estimate.  Plaquettes are linear loops, so
the action is summed into one coefficient per (rep, slot sign) and costs one
trace per draw.  `mc_expect` is the polynomial of one product; the Wilson
Theorem-A check is ``Delta(W_1...W_n)`` plus the action's terms.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import tensor
from .catalog import RepData, check_one_group, octonion_psi
from .loops import Loop, _atoms, _Draws, _Letters, _Scale, conjugate_loop, linear_loop, total_merge, total_twist
from .moments import DEFAULT_BUDGET, MeasureSpec, _contract_group, _expand_items, _item_terms, _word_products

__all__ = [
    "RngSpec",
    "MCEstimate",
    "EffectiveSampleError",
    "BrownianPathSpec",
    "TheoremAReport",
    "haar_sample",
    "haar_sample_batch",
    "brownian_path",
    "brownian_path_batch",
    "mc_expect",
    "verify_theorem_a",
]

#: smallest Kish effective sample size a Wilson estimate is returned from; the
#: standard error is a normal approximation, which needs tens of effective draws
WILSON_MIN_ESS = 30.0

#: fewest draws any Monte-Carlo estimate is formed from
MIN_SAMPLES = 100

#: entries in one block of Brownian increments (64 KB of float64): larger
#: blocks save little time and cost resident memory
_PATH_BLOCK_ENTRIES = 2 ** 13


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


def _check_integer(name: str, value) -> None:
    """Refuse a float or bool count by name; Python and numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")


def _check_path(t: float, steps: int) -> None:
    """The time rule of ``MeasureSpec.brownian``, plus a positive integer step count."""
    MeasureSpec.brownian(t)
    _check_integer("steps", steps)
    if steps < 1:
        raise ValueError("need at least one step")


class EffectiveSampleError(RuntimeError):
    """The Wilson weights collapsed: fewer than ``WILSON_MIN_ESS`` effective draws remain."""


def _check_samples(samples: int | None) -> None:
    if samples is not None:
        _check_integer("samples", samples)
    if samples is None or samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")


def _check_count(count: int) -> None:
    _check_integer("count", count)
    if count < 0:
        raise ValueError(f"sample count must be non-negative, got count={count}")


def _complex_ginibre(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` complex Ginibre matrices as their columns, shape ``(n, n, count)``:
    entry ``[k, i, b]`` is row ``i`` of column ``k`` of draw ``b``.  One normal
    call reads the real parts, then the imaginary ones, the stream of two
    ``(count, n, n)`` calls; they are written straight into the complex array.
    The entries have variance 2, not 1: Gram-Schmidt does not see the scale."""
    x = gen.standard_normal((2, count, n, n))
    z = np.empty((n, n, count), dtype=np.complex128)
    z.real = x[0].T
    z.imag = x[1].T
    return z


def haar_sample_batch(rep: RepData, rng: RngSpec, count: int) -> np.ndarray:
    """A stack of ``count`` Haar draws in the group's matrix realization.

    U(N), SU(N) and SO(N) draw the full ``N x N`` Ginibre matrix, so one
    RngSpec fixes the same matrix for all three, and an SU(N) draw's first
    ``N - 1`` columns are the U(N) draw's.
    """
    _check_count(count)
    gen = rng.generator()
    fam, n = rep.spec.family, rep.spec.n
    if fam in ("u", "su"):
        return _gram_schmidt(_complex_ginibre(gen, count, n), special=fam == "su")
    if fam == "so":  # contiguous columns: on the strided view SO(4) took about 40% longer
        return _gram_schmidt(np.ascontiguousarray(gen.standard_normal((count, n, n)).T), special=True)
    if fam == "sp":
        return _haar_sp(gen, count, n, rep.constants["J"])
    if fam == "u1power":
        return np.exp(2j * np.pi * gen.random(count))[:, None, None]
    if fam == "g2":
        return _haar_g2(gen, count)
    raise ValueError(fam)  # pragma: no cover


def _orthonormal_column(v: np.ndarray, cols: list) -> np.ndarray:
    """Column ``v`` (one per draw, shape ``(d, B)``) made orthogonal to the
    orthonormal columns ``cols`` by modified Gram-Schmidt, re-orthogonalized
    once for roundoff, and normalized.  The columns share the dtype of ``v``;
    real ones (SO, G2) are not conjugated, which would only copy them."""
    conj = np.conj if np.iscomplexobj(v) else np.asarray
    for _ in range(2):
        for c in cols:
            v = v - np.sum(conj(c) * v, axis=0) * c
    return v / np.sqrt(np.sum((conj(v) * v).real, axis=0))


def _last_column(cols: list) -> np.ndarray:
    """The column that completes ``N - 1`` orthonormal columns ``(N, B)``, for
    N = 2 or 3, to a matrix of determinant one: ``(-a[1], a[0])`` and the
    cross product ``a x b``, conjugated when complex.  It commutes with left
    multiplication by SU(N) and SO(N) (see the module docstring)."""
    conj = np.conj if np.iscomplexobj(cols[0]) else np.asarray
    if len(cols) == 1:
        (a,) = cols
        return conj(np.stack([-a[1], a[0]]))
    a, b = cols
    return conj(a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]])


def _gram_schmidt(z: np.ndarray, special: bool) -> np.ndarray:
    """The Q factor of each ``z = QR`` in a stack, with R's diagonal
    positive: the unique QR factor that makes Ginibre draws Haar.  ``z`` is
    given by its columns, shape ``(n, n, B)`` (column, row, draw), and Q is
    returned as complex ``(B, n, n)``.

    ``special`` puts Q in SU(n) or SO(n) through its last column.  For
    n <= 3 only the first n - 1 columns are orthonormalized, and
    `_last_column` computes the last with no determinant.  For n >= 4 the
    n-th column is orthonormalized too, and one determinant fixes it:
    complex Q scales it by ``conj(det Q)``, real Q negates it where
    ``det Q = -1``.
    """
    n = len(z)
    closed = special and n <= 3
    cols: list = []
    for v in z[:n - 1] if closed else z:
        cols.append(_orthonormal_column(v, cols))
    if closed:
        cols.append(_last_column(cols))
    q = np.empty(z.shape[::-1], dtype=np.complex128)  # (draw, row, column)
    for k, c in enumerate(cols):
        q[:, :, k] = c.T
    if special and not closed:
        if np.iscomplexobj(z):
            q[:, :, -1] *= np.conj(np.linalg.det(q))[:, None]
        else:
            q.real[np.linalg.det(q.real) < 0, :, -1] *= -1.0
    return q


def _haar_sp(gen: np.random.Generator, count: int, n: int, j: np.ndarray) -> np.ndarray:
    d = 2 * n
    firsts, seconds = [], []
    for _ in range(n):
        v = (gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))) / np.sqrt(2.0)
        v = _orthonormal_column(v.T, firsts + seconds)
        firsts.append(v)
        seconds.append(-(j @ np.conj(v)))
    return np.ascontiguousarray(np.stack(firsts + seconds).transpose(2, 1, 0))


def _g2_tables(psi: np.ndarray) -> tuple:
    """The octonion cross product and the G2 frame, read off ``psi``.

    ``(x x y)_k = psi_ijk x_i y_j`` is the sum, over the three pairs with
    ``psi_ijk = +1``, of ``x_i y_j - x_j y_i``; ``i[k]`` and ``j[k]`` hold
    them.  The frame of ``(e1, e2, e4)`` has ``e3 = e1 x e2``, and every
    column ``k`` past ``e4`` is ``e_a x e_b`` for the first pair ``a, b`` of
    ``e1 .. e4`` with ``psi_abk = +1``.
    """
    _, i, j = np.nonzero(psi.transpose(2, 0, 1) > 0)
    products = [next((a, b) for a in range(4) for b in range(4) if psi[a, b, k] > 0) for k in (2, 4, 5, 6)]
    return i.reshape(7, 3), j.reshape(7, 3), products


_CROSS_I, _CROSS_J, _G2_PRODUCTS = _g2_tables(octonion_psi())


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The octonion cross product of columns ``(7, B)``, one per draw; the
    three terms are summed elementwise, so a draw does not hang on the batch."""
    t = x[_CROSS_I] * y[_CROSS_J] - x[_CROSS_J] * y[_CROSS_I]
    return t[:, 0] + t[:, 1] + t[:, 2]


def _haar_g2(gen: np.random.Generator, count: int) -> np.ndarray:
    """Haar on G2: the octonion frame of a Gram-Schmidt basic triple."""
    v = np.ascontiguousarray(gen.standard_normal((count, 3, 7)).transpose(1, 2, 0))
    (a1, b1), *rest = _G2_PRODUCTS
    u = [_orthonormal_column(v[0], [])]
    u.append(_orthonormal_column(v[1], u))
    u.append(_cross(u[a1], u[b1]))  # u1 x u2
    u.append(_orthonormal_column(v[2], u))  # u4, orthogonal to u1, u2, u1 x u2
    u += [_cross(u[a], u[b]) for a, b in rest]
    return np.stack(u).transpose(2, 1, 0).astype(np.complex128, order="C")


def haar_sample(rep: RepData, rng: RngSpec) -> np.ndarray:
    return haar_sample_batch(rep, rng, 1)[0]


@lru_cache(maxsize=64)
def _walk_generators(rep: RepData) -> np.ndarray:
    """The algebra basis the walk exponentiates, in real arithmetic: real
    bases (SO, G2) as they are, complex ones in their interleaved real
    ``2d x 2d`` form (`tensor._interleaved_form`), so a U(1) character's
    ``[[i]]`` walks as the rotation generator ``[[0, 1], [-1, 0]]``."""
    xis = rep.sampling_generators
    # an own copy, read-only: the cache hands it to every path on the rep
    xis = np.array(tensor._interleaved_form(xis) if np.any(xis.imag) else xis.real)
    xis.flags.writeable = False
    return xis


@lru_cache(maxsize=64)
def _rank_one_table(rep: RepData) -> tuple[np.ndarray, float] | None:
    """``(table, lam)`` when every ``X = c_a xi^a`` of the walk has
    ``X^3 = -lam |c|^2 X``, else None.

    That cubic holds exactly when its polarization does,
    ``sum_perm xi^a xi^b xi^c = -2 lam (delta_ab xi^c + delta_bc xi^a +
    delta_ca xi^b)``, which is checked on the walk's own generators, with
    ``lam`` read from ``xi^0 xi^0 xi^0 = -lam xi^0``.  With ``R_ab = {xi^a,
    xi^b} + 2 lam delta_ab I`` the difference of its sides is ``R_ab xi^c +
    R_bc xi^a + R_ca xi^b``.  Its slice ``a = b = 0`` is checked first: it
    needs one row of R, and it refuses every algebra of higher rank in the
    catalog (residuals about lam), so their ``dim_g^3`` products are never
    formed.  The table's rows are ``I``, ``xi^a`` and ``xi^a xi^b``.
    """
    xis = _walk_generators(rep)
    dim_g, d = xis.shape[0], xis.shape[-1]
    x0, eye = xis[0], np.eye(d)
    lam = -float(np.vdot(x0, x0 @ x0 @ x0).real / np.vdot(x0, x0).real)
    tol = 1e-10 * abs(lam)
    r0 = x0 @ xis + xis @ x0
    r0[0] += 2.0 * lam * eye
    if not (lam > 0.0 and np.max(np.abs(r0[0] @ xis + 2.0 * r0 @ x0)) <= tol):
        return None
    pairs = xis[:, None] @ xis  # xi^a xi^b
    r = pairs + pairs.swapaxes(0, 1) + 2.0 * lam * np.eye(dim_g)[:, :, None, None] * eye
    t = r[:, :, None] @ xis  # t[a, b, c] = R_ab xi^c
    if np.max(np.abs(t + t.transpose(1, 2, 0, 3, 4) + t.transpose(2, 0, 1, 3, 4))) > tol:
        return None
    table = np.concatenate([eye[None], xis, pairs.reshape(-1, d, d)]).reshape(-1, d * d)
    table.flags.writeable = False
    return table, lam


def _walk_steps(rep: RepData, z: np.ndarray, scale: float) -> np.ndarray:
    """The step matrices ``exp(scale z_a xi^a)`` of the walk, one per row of ``z``.

    On a rank-one algebra (`_rank_one_table`) ``X = c_a xi^a``, ``c = scale
    z``, has ``X^3 = -theta^2 X`` with ``theta^2 = lam |c|^2``, so ``exp X =
    I + sinc(theta) X + sinc(theta/2)^2 X^2 / 2`` (Rodrigues) exactly, at any
    step size.  That is linear in the table ``[I; xi^a; xi^a xi^b]``: the
    rows ``[1, sinc(theta) c, sinc(theta/2)^2 c c^T / 2]`` times the table
    form every step in one GEMM.  Other algebras run their increments
    through `tensor.expm_skew_batch`.
    """
    xis = _walk_generators(rep)
    dim_g, d = xis.shape[0], xis.shape[-1]
    closed = _rank_one_table(rep)
    if closed is None:
        return tensor.expm_skew_batch((z @ (scale * xis.reshape(dim_g, d * d))).reshape(-1, d, d))
    table, lam = closed
    c = np.multiply(scale, z.T, order="C")  # (dim_g, m): coordinate rows, so the products run along the steps
    theta = np.sqrt(lam * np.einsum("am,am->m", c, c))
    sinc_half = np.sinc(theta / (2.0 * np.pi))  # sin(theta/2) / (theta/2): np.sinc(x) is sin(pi x) / (pi x)
    w = 0.5 * sinc_half ** 2 * c
    # sinc(theta) = sinc(theta/2) cos(theta/2)
    rows = np.concatenate([np.ones((1, len(theta))), sinc_half * np.cos(0.5 * theta) * c,
                           (w[:, None] * c).reshape(dim_g * dim_g, -1)])
    return (rows.T @ table).reshape(-1, d, d)


def brownian_path_batch(rep: RepData, t: float, steps: int, rng: RngSpec,
                        count: int) -> np.ndarray:
    """Endpoints of ``count`` independent Brownian paths started at identity.

    Each block of steps draws its normals at once and forms its step
    matrices with one `_walk_steps` call: the closed form, one GEMM, on
    rank-one algebras (U(1), SU(2), SO(3), Sp(1)), and the Taylor kernel
    on the others.
    """
    _check_path(t, steps)
    _check_count(count)
    gen = rng.generator()
    xis = _walk_generators(rep)
    dim_g, d_r = xis.shape[0], xis.shape[-1]
    scale = np.sqrt(t / steps)
    block = max(1, _PATH_BLOCK_ENTRIES // (max(count, 1) * d_r * d_r))
    g = np.broadcast_to(np.eye(d_r, dtype=xis.dtype), (count, d_r, d_r)).copy()
    for start in range(0, steps, block):
        k = min(block, steps - start)
        z = gen.standard_normal((k, count, dim_g))
        for e in _walk_steps(rep, z.reshape(k * count, dim_g), scale).reshape(k, count, d_r, d_r):
            g = g @ e
    if d_r > rep.dim:
        return tensor._from_interleaved(g)
    return g.astype(np.complex128, copy=False)


def brownian_path(rep: RepData, spec: BrownianPathSpec) -> np.ndarray:
    return brownian_path_batch(rep, spec.t, spec.steps, spec.rng, 1)[0]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _common_rep(items: Sequence, plaquettes: Sequence[Loop]) -> RepData:
    """The one group of a product's loops and the plaquettes; refuses a product of no loops."""
    loops = [w for item in items for term in _item_terms(item) for w in term]
    if not loops:
        raise ValueError("need at least one loop")
    check_one_group(w.rep.spec for w in loops + list(plaquettes))
    return loops[0].rep


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


def _weighted_estimate(log_w: np.ndarray, vals: np.ndarray) -> tuple[complex, float]:
    """Self-normalized importance-sampling mean of ``vals`` with weights ``exp(log_w)``.

    The weights are shifted by their maximum before ``exp``; the estimate is
    refused (`EffectiveSampleError`) when their Kish effective sample size
    ``(sum w)^2 / sum w^2`` falls below ``WILSON_MIN_ESS``.  Returns the
    value and its plug-in standard error ``sqrt(sum w^2 |v - value|^2) /
    sum w``; with equal weights these are the sample mean and
    ``sqrt(sum |v - mean|^2) / B``.
    """
    weights = np.exp(log_w - np.max(log_w))
    wsum = np.sum(weights)
    ess = float(wsum ** 2 / np.sum(weights ** 2))
    if not ess >= WILSON_MIN_ESS:
        raise EffectiveSampleError(
            f"effective sample size {ess:.3g} of {log_w.size} draws is below {WILSON_MIN_ESS:g}: "
            "the Wilson weights collapsed onto a few draws"
        )
    value = complex(np.sum(weights * vals) / wsum)
    stderr = float(np.sqrt(np.sum(weights ** 2 * np.abs(vals - value) ** 2)) / wsum)
    return value, stderr


def _mc_estimate(terms: Sequence[tuple[complex, Sequence]], measure: MeasureSpec, samples: int,
                 rng: RngSpec, steps: int = 200) -> MCEstimate:
    """The estimate of a loop polynomial ``sum coef * prod items`` under a measure.

    Brownian draws are path endpoints; every other measure draws Haar.  The
    draws are prepared once (`loops._Draws`): every loop of the estimate
    reads the same ``rho(g^{+-1})`` stacks, and the real forms that loops of
    3 or more slots multiply by are built once per (rep, sign) and freed on
    return.  Each draw carries the log-weight ``beta * Re sum_p W_p``, zero
    for Haar and Brownian (no plaquettes), and one self-normalized estimator
    reads them.  Each distinct item (by ``id``: ``terms`` keeps it alive) is
    evaluated once, and its values are held until its last use.
    """
    _check_samples(samples)
    rep = _common_rep([item for _, items in terms for item in items], measure.plaquettes)
    if measure.kind == "brownian":
        gs = brownian_path_batch(rep, measure.t, steps, rng, samples)
    else:
        gs = haar_sample_batch(rep, rng, samples)
    draws = _Draws(gs)
    action = sum((w.evaluate_batch(draws) for w in _action_loops(measure.plaquettes)), np.zeros(samples))
    uses, memo = Counter(id(item) for _, items in terms for item in items), {}
    y = 0.0
    for coef, items in terms:
        prod = np.ones(samples, dtype=np.complex128)
        for item in items:
            uses[id(item)] -= 1
            values = memo.pop(id(item)) if id(item) in memo else item.evaluate_batch(draws)
            if uses[id(item)]:
                memo[id(item)] = values
            prod = prod * values
        y = y + coef * prod
    value, stderr = _weighted_estimate(measure.beta * action.real, y)
    return MCEstimate(value, stderr, samples, float(np.max(np.abs(measure.beta * action.imag))))


def mc_expect(items: Sequence, measure: MeasureSpec, samples: int, rng: RngSpec,
              steps: int = 200) -> MCEstimate:
    """Monte-Carlo expectation of a product of loops under a measure (`_mc_estimate`)."""
    return _mc_estimate([(1.0, items)], measure, samples, rng, steps)


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


def _laplacian_terms(loops: Sequence[Loop]) -> list[tuple[float, list]]:
    """``Delta(W_1...W_n)`` as ``(coef, items)`` terms, each a product of loops.

    The first term is the product itself with ``coef = sum_k lambda n_k``,
    then ``2 x`` each merge of a pair ``r < s`` and each twist of a loop of
    two or more slots, each with its spectator loops.
    """
    slots = range(len(loops))
    terms = [(float(sum(w.rep.lam * w.n_slots for w in loops)), list(loops))]
    terms += [(2.0, [total_merge(loops[r], loops[s])] + [loops[k] for k in slots if k not in (r, s)])
              for r, s in itertools.combinations(slots, 2)]
    terms += [(1.0, [total_twist(w)] + [loops[k] for k in slots if k != r])
              for r, w in enumerate(loops) if w.n_slots >= 2]
    return terms


@dataclass(frozen=True)
class _TheoremAPlan:
    """``E[F]`` and the expectations of the terms of ``Delta F`` for one shape of ``F``, as
    recipes on its coefficients (`_theorem_a_plan`).

    An atom is an input letter (``2k``: ``c_k``, ``2k + 1``: ``c_k^T``, in slot order) or
    one of ``constants``.  A recipe is a product of atoms; ``steps[t]`` holds the t-th atom
    of every recipe longer than t, the recipes sorted longest first.  Each output product
    has a recipe per coefficient and is scaled by the traces of the recipes in
    ``trace_of`` (index ``R``, past the last recipe, reads 1).
    """

    constants: np.ndarray  # (C, d, d)
    steps: tuple           # (R_t,) atom ids for t = 0, 1, ...
    groups: tuple          # (key, recipes): each loop's (rep, slot signs), the (B, m) recipe ids
    scales: np.ndarray     # (P,) completeness coefficients times slot signs, products in group order
    trace_of: np.ndarray   # (P, k) recipe ids
    weights: np.ndarray    # (T, P) term coefficients: row 0 is F, then the Laplacian's terms

    def values(self, loops: Sequence[Loop], measure: MeasureSpec, budget: int) -> np.ndarray:
        """``(T, 2)``: expectation and generator of ``F``, then of each term ``(coef, items)`` of
        ``Delta F`` (`_laplacian_terms`), ``coef`` times the sum over its plain products."""
        cs = np.array([c for w in loops for c, _ in w.factors])
        d = cs.shape[-1]
        atoms = np.concatenate([np.stack([cs, cs.transpose(0, 2, 1)], axis=1).reshape(-1, d, d), self.constants])
        acc = _word_products(atoms, self.steps)
        traces = np.append(np.einsum("kii->k", acc), 1.0)
        scales = self.scales * traces[self.trace_of].prod(axis=1) * math.prod(w.scale for w in loops)
        products = np.concatenate([_contract_group(key, acc[recipes], measure, budget)
                                   for key, recipes in self.groups])
        return self.weights @ (products * scales[:, None])


@lru_cache(maxsize=64)
def _theorem_a_plan(shape: tuple[tuple[RepData, tuple[int, ...]], ...]) -> _TheoremAPlan:
    """The `_TheoremAPlan` of loops of ``shape``, each loop's ``(rep, slot signs)``.

    `_laplacian_terms` runs once, on loops of scale 1 whose coefficients are
    input letters (`loops._Letters`).  Every term is multilinear in the input
    loops, so their scales multiply every product.  ``F`` itself is contracted
    once, for row 0 and for the Laplacian's first term ``lambda n F``.
    """
    n_letters = 2 * sum(len(signs) for _, signs in shape)
    letters = iter(range(0, n_letters, 2))
    symbolic = [Loop._derived(rep, tuple((_Letters((next(letters),)), s) for s in signs), 1.0)
                for rep, signs in shape]
    terms = _laplacian_terms(symbolic)
    eye = np.eye(shape[0][0].dim)
    constants: dict = {}  # bytes -> (atom id, matrix)
    recipes: dict = {}    # atom ids -> recipe id

    def recipe(c) -> int:
        atoms = _atoms(c)
        if len(atoms) > 1:  # an identity between letters multiplies by nothing
            atoms = [a for a in atoms if isinstance(a, int) or not np.array_equal(a, eye)]
        ids = tuple(a if isinstance(a, int) else constants.setdefault(a.tobytes(), (n_letters + len(constants), a))[0]
                    for a in atoms)
        return recipes.setdefault(ids, len(recipes))

    columns = [({0: 1.0, 1: terms[0][0]}, symbolic)]  # each product's term coefficients, by row
    columns += [({t + 1: coef}, flat) for t, (coef, items) in enumerate(terms[1:], 1) for flat in _expand_items(items)]
    groups: dict = {}  # output shape -> (column, scale, trace recipes, coefficient recipes) per product
    for column, flat in columns:
        scales = [w.scale if isinstance(w.scale, _Scale) else _Scale(w.scale) for w in flat]
        groups.setdefault(tuple((w.rep, w.signs) for w in flat), []).append(
            (column, math.prod(x.number for x in scales), [recipe(c) for x in scales for c in x.traces],
             [recipe(c) for w in flat for c, _ in w.factors]))
    members = [product for products in groups.values() for product in products]

    by_length = sorted(recipes, key=len, reverse=True)
    rank = np.empty(len(recipes) + 1, dtype=np.intp)  # recipe id -> place in by_length; R -> R
    rank[[recipes[r] for r in by_length] + [len(recipes)]] = np.arange(len(recipes) + 1)
    width = max(len(traced) for _, _, traced, _ in members)
    weights = np.zeros((len(terms) + 1, len(members)))
    for col, (column, *_) in enumerate(members):
        weights[list(column), col] = list(column.values())
    plan = _TheoremAPlan(
        constants=np.array([a for _, a in constants.values()], dtype=np.complex128).reshape(-1, *eye.shape),
        steps=tuple(np.array([r[k] for r in by_length if len(r) > k], dtype=np.intp)
                    for k in range(len(by_length[0]))),
        groups=tuple((key, rank[[p[3] for p in products]]) for key, products in groups.items()),
        scales=np.array([p[1] for p in members], dtype=np.complex128),
        trace_of=rank[np.array([p[2] + [len(recipes)] * (width - len(p[2])) for p in members],
                               dtype=np.intp).reshape(len(members), width)],
        weights=weights,
    )
    for a in (plan.constants, plan.scales, plan.trace_of, plan.weights, *plan.steps, *(r for _, r in plan.groups)):
        a.setflags(write=False)  # cached: every check reads the same arrays
    return plan


def _exact_report(kind: str, lhs: complex, rhs: complex, tol: float) -> TheoremAReport:
    lhs, rhs, tol = complex(lhs), complex(rhs), float(tol)
    residual = abs(lhs - rhs)
    return TheoremAReport(kind, lhs, rhs, residual, tol, residual <= tol)


def verify_theorem_a(loops: Sequence[Loop], measure: MeasureSpec,
                     samples: int | None = None, rng: RngSpec = RngSpec(0),
                     budget: int = DEFAULT_BUDGET) -> TheoremAReport:
    """Check the integration-by-parts identity for a family of loops.

    ``Delta(W_1...W_n)`` is the terms of `_laplacian_terms`.  Under Haar and
    Brownian they come from the shape's cached plan (`_theorem_a_plan`): the
    word surgery ran once on symbolic letters, so a check forms every output
    coefficient from the call's coefficients in a few batched products and
    contracts each output shape once (``moments._contract_group``), with no
    Loop built.  The plan also gives ``F = W_1...W_n`` itself.
    Haar: both sides exact, the first term ``lambda n F`` against minus the
    rest; residual must be tiny.
    Brownian: the heat equation ``2 d/dt E_t[F] = E_t[Delta F]``, F's
    generator ``sum c e^{tc/2} v_c`` (``c`` the Casimir eigenvalues), exact
    in t, against the sum of the terms; residual within
    ``1e-10 (1 + sum |term|)``.
    Wilson: the terms plus the action's ``-beta lambda p`` and ``-beta^2
    merge(p, q)`` terms, for ``p, q`` the Hermitized plaquette loops, make
    one loop polynomial, estimated by `_mc_estimate` as `mc_expect` is;
    reports a z-score.  At beta = 0 the measure is Haar and the residual is
    computed exactly instead.
    """
    loops = list(loops)
    if not loops:  # before the action terms, whose plaquettes are no loops of the product
        raise ValueError("need at least one loop")
    if measure.kind == "brownian":  # row 0 is F, then the Laplacian's terms
        values = _theorem_a_plan(tuple((w.rep, w.signs) for w in loops)).values(loops, measure, budget)
        rhs = complex(np.sum(values[1:, 0]))  # rounded to the size of its terms, which may cancel
        return _exact_report("brownian", values[0, 1], rhs, 1e-10 * (1.0 + np.sum(np.abs(values[1:, 0]))))

    if measure.kind == "haar" or measure.beta == 0.0:  # Wilson at beta = 0 is Haar
        values = _theorem_a_plan(tuple((w.rep, w.signs) for w in loops)).values(loops, MeasureSpec.haar(), budget)
        lhs, rhs = values[1, 0], -np.sum(values[2:, 0])
        return _exact_report(measure.kind, lhs, rhs, 1e-9 * (1.0 + abs(lhs)))

    # The sampler weights by exp(beta * Re(sum_p W_p)), i.e. the Hermitized
    # action; the beta and beta^2 terms must use the same effective
    # plaquette set (1/2)(W_p + conj(W_p)).  Summed per rep, with A and B the
    # summed coefficients of the + and - slots, that set is the loop
    # e = tr((A + B^dagger)/2 rho(g)) and its conjugate.
    halves: dict = {}
    for w in _action_loops(measure.plaquettes):
        (coeff, sign), = w.factors
        halves[w.rep] = halves.get(w.rep, 0.0) + 0.5 * (coeff if sign == 1 else coeff.conj().T)
    effective = []
    for rep, half in halves.items():
        e = linear_loop(rep, half)
        effective += [e, conjugate_loop(e)]
    beta = measure.beta
    terms = _laplacian_terms(loops)
    terms += [(-beta * p.rep.lam, [p] + loops) for p in effective]
    terms += [(-beta ** 2, [total_merge(p, q)] + loops) for p, q in itertools.product(effective, repeat=2)]
    est = _mc_estimate(terms, measure, samples, rng)
    z = abs(est.value) / est.stderr if est.stderr > 0 else float("inf")
    return TheoremAReport("wilson", est.value, 0.0, abs(est.value), 3.0 * est.stderr,
                          z <= 3.0, z_score=z, stderr=est.stderr, samples=samples)
