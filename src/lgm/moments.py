"""Exact moment operators on tensor powers, spanning sets, Weingarten maps.

The moment operator of a probability density ``nu`` is
``T(nu) = int rho(g) nu(g) dg`` on the tensor representation
``V^{(x)n} (x) (V*)^{(x)n'}``.  Multi-indices are ordered V-slots first:
``(i_1..i_n; i'_1..i'_{n'})``, so the matrix entry of ``T`` is the moment

    T[(i;i'), (j;j')] = E[ g_{i_1 j_1} ... g_{i_n j_n}
                           g^{-1}_{j'_1 i'_1} ... g^{-1}_{j'_{n'} i'_{n'}} ].

Each exact measure is a weight ``f`` on the eigenvalues ``c_k`` of the
tensor Casimir ``C``, ``T = sum_k f(c_k) u_k u_k^T`` (`_weights`): Haar is
``f = [c = 0]``, the projector onto the invariants, also ``tau o Wg o
tau*`` (``tau`` a spanning set of invariant tensors, ``Wg`` the
pseudoinverse of its Gram matrix); Brownian(t) is ``f = exp(t c / 2)``, so
``T = exp(t/2 C)``.  Weighted ``c f(c)`` the ``u_k`` give the generator,
``2 d/dt`` under Brownian and 0 under Haar; each exact contraction gives both.

No ``D x D`` Casimir is formed or decomposed.  ``C`` commutes with
``rho(X)`` for a fixed real algebra element ``X`` (`_weight_element`), so
in the eigenbasis of ``X`` on every slot it is block-diagonal by weight
(`_weight_blocks`, ``w`` and ``-w`` in one block).  Each block is gathered
from the rotated completeness relation, made real symmetric, and
decomposed by one real ``eigh`` (`_block_eigh`, cached per block).  Every
invariant has weight zero, so Haar decomposes the zero-weight block alone
(`_null_space`); Brownian reads every block.  `_kept` alone says which
eigenvectors a measure keeps, and gives their eigenvalues.

An exact expectation of a product of loops takes one route, chosen by
invariant theory (``_route``):

* ``weingarten:permutations`` for U(N), and SU(N) with n = n';
* ``weingarten:pairings`` (Brauer pairings; J on like slots for Sp) for
  Sp(N) with n + n' even, and SO(N) with n + n' even and either
  n + n' < N or n + n' - N odd;
* ``zero`` where the invariants vanish: U(N) with n != n', SU(N) with
  N not dividing n - n', Sp(N) with n + n' odd, and SO(N) with n + n' odd
  and no epsilon-type invariant;
* ``characters`` for U(1) characters, by the character algebra;
* ``casimir``, over the tensor-Casimir eigenvectors, for the Brownian
  measure, G2, SU(N) with epsilon invariants, SO(N) with epsilon-type
  invariants, and any Weingarten shape over the budget.

Every route but ``zero`` and ``characters`` is a Weingarten sum
``sum_{a,b} Wg[a,b] M[a,b]``, where ``M[a,b]`` is the loop product
contracted with row label ``a`` and column label ``b``.  On the Weingarten
routes a label, a permutation or a pairing, is an involution on the slots
(`_label_table`).  The pair ``(a, b)`` joins the slots' row ends by ``a``
and their column ends by ``b``; with the coefficient edges these close into
cycles, and ``M[a,b]`` is the product of the traces of the cycles' words in
the coefficient matrices.  The cycles of all ``L**2`` pairs are found
together by array operations (`_wiring`), and no tensor of the tensor power
is formed.  On the Casimir route the labels are the Casimir eigenvectors the
measure keeps, and ``Wg`` is diagonal, their weights: ``M[k,k] = z_k^T M'_b
conj(z_k)`` in weight coordinates, ``M'_b`` gathered from the rotated
coefficients on block ``b`` (`_block_contraction`).

A loop polynomial is contracted shape by shape (`_expect_products`): its
plain products are grouped by shape, each loop's representation and slot
signs, and each group takes one route and one contraction of its stacked
``(B, m, d, d)`` coefficients (`_contract_group`), which gathers every
weight block or wiring once for all B products, `_BATCH_ENTRIES` at a time.
A single product is a group of one.  A Theorem-A plan
(``sampling._theorem_a_plan``) forms its groups' stacks itself and hands
them to `_contract_group` too.

The budget caps a different size on each route: the squared number of
labels ``L**2`` on the Weingarten routes (Gram and Wg are ``L x L``), and
on the Casimir route ``max(D, d**2)``, ``D = d**(n+n')`` the tensor-power
dimension and ``d**2`` the side of the completeness kernels.  That route
forms no matrix larger than its largest weight block or a kernel, and no
vector of length ``D`` but the Haar null vectors, once per shape, to check
them.  A Weingarten shape over the budget falls back to the Casimir route
when ``max(D, d**2)`` fits.  The dense label sets of `spanning_set` are
capped by both.  A refusal (`BudgetError`) names the size it capped.

The Wilson action admits no exact closed form: `expect_product` refuses
it, and its expectations are estimated by ``sampling.mc_expect``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

from .catalog import RepData, check_one_group, closed_form_completeness
from .loops import Loop, LoopPair, LoopSum
from .tensor import pseudoinverse

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "SpectralGapError",
    "MeasureSpec",
    "MomentOperator",
    "SpanningSet",
    "WeingartenMap",
    "haar_moment",
    "brownian_moment",
    "moment_operator",
    "spanning_set",
    "weingarten",
    "expect_product",
]

DEFAULT_BUDGET = 4096


class BudgetError(RuntimeError):
    """A size the budget caps exceeds it; the message names it: ``D``, ``d**2`` or ``L**2``."""

    def __init__(self, required: int, budget: int, size: str = "D"):
        super().__init__(f"the tensor power needs {size} = {required}, over the budget {budget}; "
                         "raise the budget to proceed")
        self.required = required
        self.budget = budget


class SpectralGapError(RuntimeError):
    """A nonzero eigenvalue of the zero-weight Casimir block lies within 10x of the null cutoff.

    Only that block holds invariants, so only its eigenvalues are checked.
    """


@dataclass(frozen=True)
class MeasureSpec:
    """Haar | Brownian(t) | Wilson(beta, plaquettes)."""

    kind: str
    t: float = 0.0
    beta: float = 0.0
    plaquettes: tuple[Loop, ...] = ()

    def __post_init__(self):
        if self.kind not in ("haar", "brownian", "wilson"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "brownian" and not (math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"brownian measure needs a finite t > 0, got t={self.t}")
        if not (math.isfinite(self.t) and math.isfinite(self.beta)):
            raise ValueError(f"measure parameters must be finite, got t={self.t}, beta={self.beta}")
        if self.kind == "wilson":
            if not self.plaquettes:
                raise ValueError("the Wilson measure needs an explicit plaquette list")
            check_one_group(p.rep.spec for p in self.plaquettes)
            for p in self.plaquettes:
                if p.n_slots != 1:
                    raise ValueError("wilson plaquettes must be linear loops")

    @classmethod
    def haar(cls) -> "MeasureSpec":
        return cls("haar")

    @classmethod
    def brownian(cls, t: float) -> "MeasureSpec":
        return cls("brownian", t=float(t))

    @classmethod
    def wilson(cls, beta: float, plaquettes: Sequence[Loop]) -> "MeasureSpec":
        return cls("wilson", beta=float(beta), plaquettes=tuple(plaquettes))

    @classmethod
    def parse(cls, text: str, plaquettes: Sequence[Loop] | None = None) -> "MeasureSpec":
        """Parse CLI measure strings: ``haar``, ``brownian:t=1.5``, ``wilson:beta=0.1``.  Unread or
        repeated keys, a key without a number, and plaquettes outside Wilson are refused."""
        head, _, tail = text.partition(":")
        head = head.strip().lower()
        keys = {"haar": (), "brownian": ("t",), "wilson": ("beta",)}
        if head not in keys:
            raise ValueError(f"unknown measure {text!r}")
        params = {}
        for item in tail.split(",") if tail else ():
            key, _, val = (part.strip() for part in item.partition("="))
            if key not in keys[head]:
                raise ValueError(f"the {head} measure has no parameter {key!r}")
            if key in params:
                raise ValueError(f"measure parameter {key!r} is given twice")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(f"measure parameter {key!r} needs a number, got {val!r}") from None
        if plaquettes is not None and head != "wilson":
            raise ValueError(f"the {head} measure reads no plaquettes; they belong to wilson")
        if head == "haar":
            return cls.haar()
        (key,) = keys[head]
        if key not in params:
            raise ValueError(f"{head} measure needs {key}, e.g. {head}:{key}=0.5")
        return cls.brownian(params[key]) if head == "brownian" else cls.wilson(params[key], plaquettes or ())


@dataclass(frozen=True)
class MomentOperator:
    """T(nu) on the tensor representation; the matrix and the Casimir spectrum are formed on first read."""

    rep: RepData
    n: int
    nprime: int
    measure: MeasureSpec

    @property
    def rank(self) -> int:
        """The number of invariants: the rank of the Haar projector, for any measure."""
        return _null_space(self.rep, self.n, self.nprime).shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """``T = v^T v``, a row of ``v`` for each eigenvector `_kept` keeps, scaled by the
        root of its weight (`_weights`): under Haar ``u u^T`` from the null vectors `_null_space`
        stores.  Under Brownian rows leave the weight basis ``D // 32`` at a time (at
        least 4096 entries), so a chunk's temporaries stay below ``T``."""
        rep, n, nprime = self.rep, self.n, self.nprime
        if self.measure.kind == "haar":
            u = _null_space(rep, n, nprime)
            return u @ u.T
        kept, flat = _kept(rep, n, nprime, self.measure), _weight_blocks(rep, n, nprime)
        dim = rep.dim ** (n + nprime)
        v = np.empty((sum(len(c) for _, _, c in kept), dim))
        chunk, row = max(dim // 32, 4096 // dim), 0
        for k, z, c in kept:
            for lo in range(0, len(c), chunk):
                rows = _from_weight_basis(rep, n + nprime, flat[k], z[:, lo:lo + chunk])
                f = _weights(self.measure, c[lo:lo + chunk])[0]
                np.multiply(rows, np.sqrt(f)[:, None], out=v[row:row + len(rows)])
                row += len(rows)
        return v.T @ v

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Every eigenvalue of ``C``, ascending: the blocks the measure keeps are read
        through the `_block_eigh` cache, the others decomposed once and not kept."""
        rep, n, nprime = self.rep, self.n, self.nprime
        kept = {k for k, _, _ in _kept(rep, n, nprime, self.measure)}
        w = np.sort(np.concatenate([(_block_eigh if k in kept else _decompose_block)(rep, n, nprime, k)[0]
                                    for k in range(len(_weight_blocks(rep, n, nprime)))]))
        w.setflags(write=False)
        return w


def _check_budget(rep: RepData, n: int, nprime: int, budget: int) -> int:
    if n + nprime < 1:
        raise ValueError("need n + n' >= 1")
    required = rep.dim ** (n + nprime)
    for size, value in (("D", required), ("d**2", rep.dim ** 2)):  # one slot: D = d, below the kernels' d**2
        if value > budget:
            raise BudgetError(value, budget, size)
    return required


@lru_cache(maxsize=64)
def _kernels(rep: RepData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The completeness relation K across like, dual and mixed slot pairs.

    Each kernel is indexed ``[i_p, j_p, i_q, j_q]``, the row and column
    index of slot ``p`` and then of slot ``q``: ``K[i_r, j_r, i_s, j_s]``
    on two V slots, ``K[j'_r, i'_r, j'_s, i'_s]`` on two V* slots and
    ``K[i_r, j_r, j'_s, i'_s]`` on a mixed pair.  K is real.
    """
    k = closed_form_completeness(rep.spec).k
    if np.any(k.imag):
        raise RuntimeError(f"{rep.spec.label()}: completeness relation is not real")
    k = np.ascontiguousarray(k.real)
    k.setflags(write=False)
    return k, k.transpose(1, 0, 3, 2), k.transpose(0, 1, 3, 2)


def _pair_terms(kernels: Sequence[np.ndarray], n: int, nprime: int):
    """The tensor Casimir less its diagonal, as ``(coef, kernel, p, q)`` pair terms.

    A term adds ``coef * kernel[i_p, j_p, i_q, j_q]`` on slots ``p < q`` with
    every other slot's row and column index equal: ``+2`` across like slot
    pairs and ``-2`` across mixed ones, ``kernels`` being the like, dual and
    mixed kernels of `_kernels` (or their images in another basis).
    """
    vv, dd, vd = kernels
    terms = [(2.0, vv, r, s) for r, s in itertools.combinations(range(n), 2)]
    terms += [(2.0, dd, n + r, n + s) for r, s in itertools.combinations(range(nprime), 2)]
    terms += [(-2.0, vd, r, n + s) for r in range(n) for s in range(nprime)]
    return terms


def _apply_casimir(rep: RepData, n: int, nprime: int, vecs: np.ndarray) -> np.ndarray:
    """``C v`` for each row of ``vecs`` (``(r, D)``), with no ``D x D`` matrix."""
    d, m = rep.dim, n + nprime
    t = vecs.reshape((-1,) + (d,) * m)
    out = (m * rep.lam) * t
    for coef, kernel, p, q in _pair_terms(_kernels(rep), n, nprime):
        # sum over the column indices of slots p and q; their row indices come last
        term = np.tensordot(t, kernel, axes=([p + 1, q + 1], [1, 3]))
        out = out + coef * np.moveaxis(term, [-2, -1], [p + 1, q + 1])
    return out.reshape(vecs.shape)


def _weight_element(rep: RepData) -> np.ndarray:
    """``X_ij = sum_kl K_ijkl M_kl`` for a fixed generic real antisymmetric M: as ``Im xi^a`` is
    symmetric, ``X = sum_a Re(xi^a) <Re xi^a, M>`` is a real antisymmetric algebra element
    (0 on U(1) characters)."""
    d = rep.dim
    m = np.cos(np.arange(1.0, d * d + 1) ** 2).reshape(d, d)  # full rank; cos(a k) would give rank 2
    return (_kernels(rep)[0].reshape(d * d, d * d) @ (m - m.T).reshape(-1)).reshape(d, d)


@lru_cache(maxsize=64)
def _weight_basis(rep: RepData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenbasis of `_weight_element` X, refused unless real antisymmetric: ``(U, h, pair)``.

    ``iX`` is Hermitian: ``iX U = U diag(h)``.  X is real, so a V* slot,
    which carries ``conj(g)`` and the algebra element ``conj(X) = X``, has
    the same weights as a V slot.  The columns of U are the kernel of X
    (real), the eigenvectors of weight ``h > 0``, then their conjugates, of
    weight ``-h``: ``U[:, pair[j]] = conj(U[:, j])`` and ``h[pair[j]] = -h[j]``.
    """
    x = _weight_element(rep)
    if np.iscomplexobj(x) or np.max(np.abs(x + x.T)) > 1e-12 * max(1.0, float(np.max(np.abs(x)))):
        raise RuntimeError(f"{rep.spec.label()}: the weight element X is not real antisymmetric")
    h, v = np.linalg.eigh(1j * x)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(h), initial=0.0)))
    up = h > tol
    pos, kernel = v[:, up], v[:, np.abs(h) <= tol]
    kernel = np.linalg.svd(np.hstack([kernel.real, kernel.imag]))[0][:, :kernel.shape[1]]  # a real basis
    k, p = kernel.shape[1], pos.shape[1]
    if k + 2 * p != rep.dim:
        raise RuntimeError(f"{rep.spec.label()}: the weights of X are not symmetric about 0")
    u = np.hstack([kernel, pos, pos.conj()])
    h = np.concatenate([np.zeros(k), h[up], -h[up]])
    pair = np.concatenate([np.arange(k), np.arange(k + p, k + 2 * p), np.arange(k, k + p)])
    for a in (u, h, pair):
        a.setflags(write=False)
    return u, h, pair


@lru_cache(maxsize=64)
def _weight_kernels(rep: RepData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernels of `_kernels` in the weight basis, each as a ``(d**2, d**2)`` matrix.

    ``K'[a, b, c, e] = sum conj(U_ia) U_jb conj(U_kc) U_le K[i, j, k, l]``,
    laid out with rows ``(a, c)``, the row indices of the two slots, and
    columns ``(b, e)``, their column indices.  Only the like kernel is
    rotated: ``conj(U) = U[:, pair]`` turns the others into its entries,
    ``K'_dd[a, b, c, e] = K'_vv[pb, pa, pe, pc]`` and ``K'_vd[a, b, c, e] =
    K'_vv[a, b, pe, pc]``.
    """
    u, _, p = _weight_basis(rep)
    vv = _kernels(rep)[0]
    for mat in (u.conj(), u, u.conj(), u):  # each index in turn, appended last
        vv = np.tensordot(vv, mat, axes=([0], [0]))
    dd, vd = vv[np.ix_(p, p, p, p)].transpose(1, 0, 3, 2), vv[:, :, p][:, :, :, p].transpose(0, 1, 3, 2)
    out = tuple(t.transpose(0, 2, 1, 3).reshape(rep.dim ** 2, rep.dim ** 2) for t in (vv, dd, vd))
    for t in out:
        t.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _weight_blocks(rep: RepData, n: int, nprime: int) -> tuple[np.ndarray, ...]:
    """The index tuples of the tensor power (flat, sorted), grouped by ``|weight|``.

    The weight of a tuple is the sum of its slots' weights ``h``.  ``C``
    commutes with ``rho(X)``, so it has no entry between tuples of different
    weights.  Tuples are cut into blocks only where the sorted ``|weight|``
    jumps by more than ``1e-6`` (relative), far above float error: merging
    two weights never breaks the blocking, and ``w`` and ``-w`` are merged
    on purpose, so every block holds the conjugate ``pair(I)`` of each of
    its tuples.  Block 0 holds the zero weight, where every invariant lies;
    it is empty when no tuple has weight 0.
    """
    h = _weight_basis(rep)[1]
    mag = np.zeros(1)
    for _ in range(n + nprime):
        mag = np.add.outer(mag, h).reshape(-1)
    mag = np.abs(mag)
    order = np.argsort(mag, kind="stable")
    gap = 1e-6 * max(1.0, float(np.max(np.abs(h))))
    blocks = [np.sort(b) for b in np.split(order, np.flatnonzero(np.diff(mag[order]) > gap) + 1)]
    if mag[blocks[0][0]] > gap:
        blocks.insert(0, np.empty(0, dtype=np.intp))
    for b in blocks:
        b.setflags(write=False)
    return tuple(blocks)


def _decompose_block(rep: RepData, n: int, nprime: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``C`` on weight block ``k``: ``(w, z, digits)``, read-only; `_block_eigh` caches it.

    In the weight basis ``C'[I, J] = m lambda delta_IJ + sum coef K'[I_p,
    J_p, I_q, J_q] [I_r = J_r for r not in {p, q}]``, gathered from
    `_weight_kernels`.  ``C`` is real, so ``C'[pair(I), pair(J)] =
    conj(C'[I, J])``; in the columns ``e_I`` (``I = pair(I)``),
    ``(e_I + e_Ibar)/sqrt2`` and ``(e_I - e_Ibar)/(i sqrt2)`` (``I <
    Ibar``) the block is real symmetric, and one real ``eigh`` of it gives
    the eigenvalues ``w`` (ascending) and eigenvectors ``z`` in weight-basis
    coordinates, ``(N, N)`` complex.  ``digits[p]`` holds slot ``p`` of its index tuples.
    """
    d, m = rep.dim, n + nprime
    flat = _weight_blocks(rep, n, nprime)[k]
    size = len(flat)
    place = d ** np.arange(m - 1, -1, -1)
    digits = flat // place[:, None] % d
    c = np.zeros((size, size), dtype=np.complex128)
    c.flat[::size + 1] = m * rep.lam
    for coef, kernel, p, q in _pair_terms(_weight_kernels(rep), n, nprime):
        rest = flat - digits[p] * place[p] - digits[q] * place[q]
        pq = digits[p] * d + digits[q]
        i, j = np.nonzero(rest[:, None] == rest[None, :])
        c[i, j] += coef * kernel[pq[i], pq[j]]
    own = np.arange(size)
    conjugate = place @ _weight_basis(rep)[2][digits]
    bar = np.minimum(np.searchsorted(flat, conjugate), max(size - 1, 0))  # position of pair(I)
    if np.any(flat[bar] != conjugate):
        raise RuntimeError("a weight block misses the conjugates of its index tuples")
    s = math.sqrt(0.5)
    alpha = np.where(bar > own, s, np.where(bar < own, 1j * s, 1.0))
    beta = np.where(bar > own, s, np.where(bar < own, -1j * s, 0.0))
    cq = c * alpha + c[:, bar] * beta  # C' Q, Q[:, k] = alpha_k e_k + beta_k e_bar(k)
    w, y = np.linalg.eigh((alpha.conj()[:, None] * cq + beta.conj()[:, None] * cq[bar]).real)
    if w.size and w[-1] > 1e-8:
        raise RuntimeError(f"tensor Casimir has a positive eigenvalue {w[-1]:.3e}")
    z = alpha[:, None] * y + beta[bar][:, None] * y[bar]
    for a in (w, z, digits):
        a.setflags(write=False)
    return w, z, digits


_block_eigh = lru_cache(maxsize=256)(_decompose_block)


def _from_weight_basis(rep: RepData, m: int, flat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``U^{(x)m} z`` for block coordinates ``z`` (``(N, k)``): ``(k, D)`` real rows."""
    d = rep.dim
    t = np.zeros((z.shape[1], d ** m), dtype=np.complex128)
    t[:, flat] = z.T
    t = t.reshape((-1,) + (d,) * m)
    for _ in range(m):  # mode by mode: the slot contracted first is appended last
        t = np.tensordot(t, _weight_basis(rep)[0], axes=([1], [1]))
    return t.reshape(z.shape[1], d ** m).real


@lru_cache(maxsize=64)
def _null_space(rep: RepData, n: int, nprime: int) -> np.ndarray:
    """Orthonormal null vectors of ``C`` as ``(D, r)`` columns, from the zero-weight block.

    Every invariant has weight 0, so no other block is read.  Refuses with
    `SpectralGapError` when a nonzero eigenvalue of the zero-weight block
    lies within 10x of the null cutoff, where the split would not be
    trustworthy, and checks ``C u = 0`` pair term by pair term.
    """
    w, z, _ = _block_eigh(rep, n, nprime, 0)
    cutoff = 1e-8 * max(1.0, abs(rep.lam) * (n + nprime))
    null = np.abs(w) < cutoff
    nonzero = np.abs(w[~null])
    if nonzero.size and nonzero.min() < 10.0 * cutoff:
        raise SpectralGapError(
            f"smallest nonzero |eigenvalue| {nonzero.min():.3e} is within 10x of the "
            f"null cutoff {cutoff:.3e}; tighten the cutoff before trusting the projector"
        )
    vecs = _from_weight_basis(rep, n + nprime, _weight_blocks(rep, n, nprime)[0], z[:, null])
    residual = np.linalg.norm(_apply_casimir(rep, n, nprime, vecs), axis=1)
    if np.any(residual > 1e-9):
        raise RuntimeError(f"null vector not annihilated by the tensor Casimir ({residual.max():.2e})")
    u = np.ascontiguousarray(vecs.T)
    u.setflags(write=False)
    return u


def _kept(rep: RepData, n: int, nprime: int, measure: MeasureSpec) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The columns ``z`` of block ``k`` the measure keeps, and their Casimir eigenvalues ``c``:
    Haar keeps the null columns of block 0 (``c = 0`` exactly) once `_null_space` has run its
    gap guard and residual check, Brownian every column of every block."""
    if measure.kind == "haar":
        r = _null_space(rep, n, nprime).shape[1]
        w, z, _ = _block_eigh(rep, n, nprime, 0)
        return [(0, z[:, len(w) - r:], np.zeros(r))]  # w ascends to 0: the null columns last
    eighs = (_block_eigh(rep, n, nprime, k) for k in range(len(_weight_blocks(rep, n, nprime))))
    return [(k, z, w) for k, (w, z, _) in enumerate(eighs)]


def _weights(measure: MeasureSpec, c):
    """Weight and generator ``(f(c), c f(c))`` of Casimir eigenvalues ``c``: Haar ``f = [c = 0]``,
    Brownian(t) ``f = exp(t c / 2)``, whose generator ``c f`` is ``2 df/dt``."""
    f = np.exp(0.5 * measure.t * c) if measure.kind == "brownian" else (c == 0) * 1.0
    return f, c * f


def moment_operator(rep: RepData, n: int, nprime: int, measure: MeasureSpec,
                    budget: int = DEFAULT_BUDGET) -> MomentOperator:
    """Exact moment operator for Haar or Brownian measures (not cached).  The budget, the Wilson
    refusal and the Haar `_null_space` checks run here; matrix and spectrum wait for a read."""
    _check_budget(rep, n, nprime, budget)
    if measure.kind == "wilson":
        raise ValueError("no exact moment operator for the Wilson action")
    if measure.kind == "haar":
        _null_space(rep, n, nprime)
    return MomentOperator(rep, n, nprime, measure)


def haar_moment(rep: RepData, n: int, nprime: int,
                budget: int = DEFAULT_BUDGET) -> MomentOperator:
    """Projector onto the invariants, via the tensor-Casimir null space."""
    return moment_operator(rep, n, nprime, MeasureSpec.haar(), budget)


def brownian_moment(rep: RepData, n: int, nprime: int, t: float,
                    budget: int = DEFAULT_BUDGET) -> MomentOperator:
    """Heat-semigroup moment ``exp(t/2 C)`` on the tensor representation."""
    return moment_operator(rep, n, nprime, MeasureSpec.brownian(t), budget)


# ---------------------------------------------------------------------------
# spanning sets of invariants and the Weingarten map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanningSet:
    """Images of abstract labels under a map tau into the invariant tensors.

    ``vectors[k]`` is the flattened tensor tau(labels[k]), real (float64);
    every vector is annihilated by the tensor Casimir.
    """

    rep: RepData
    n: int
    nprime: int
    source: str
    labels: tuple
    vectors: np.ndarray


def _perfect_matchings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for idx in range(len(rest)):
        partner = rest[idx]
        remaining = rest[:idx] + rest[idx + 1:]
        for tail in _perfect_matchings(remaining):
            yield ((first, partner),) + tail


def _label_count(source: str, n: int, nprime: int) -> int:
    """``L``: the n! permutations, or the (n + n' - 1)!! pairings of an even slot count."""
    return math.factorial(n) if source == "permutations" else math.prod(range(n + nprime - 1, 0, -2))


def _labels(source: str, n: int, nprime: int) -> tuple:
    """Permutations of the n + slots, or perfect matchings of all slots."""
    if source == "permutations":
        return tuple(itertools.permutations(range(n)))
    return tuple(_perfect_matchings(tuple(range(n + nprime))))


@lru_cache(maxsize=64)
def _label_table(source: str, n: int, nprime: int) -> np.ndarray:
    """Every label as an involution on the slots, a read-only ``(L, n + n')``
    array: ``table[a, p]`` is the slot label ``a`` joins slot ``p`` to.

    A permutation sigma joins + slot ``sigma[k]`` to - slot ``n + k``; a
    pairing joins the two slots of each of its pairs.
    """
    labels = np.array(_labels(source, n, nprime), dtype=np.intp)
    rows = np.arange(len(labels))[:, None]
    table = np.empty((len(labels), n + nprime), dtype=np.intp)
    if source == "permutations":
        table[:, n:] = labels
        table[rows, labels] = n + np.arange(n)
    else:
        table[rows, labels[..., 0]] = labels[..., 1]
        table[rows, labels[..., 1]] = labels[..., 0]
    table.setflags(write=False)
    return table


def _label_vectors(rep: RepData, n: int, nprime: int, source: str) -> tuple[tuple, np.ndarray]:
    """tau(label) for every label: delta across mixed slot pairs, the form on like ones."""
    m = n + nprime
    eye = np.eye(rep.dim)
    form = rep.constants["J"] if rep.spec.family == "sp" else eye
    vecs = []
    for partner in _label_table(source, n, nprime).tolist():
        args: list = []
        for p, q in enumerate(partner):
            if p < q:  # V-V or dual-dual pairs use the form
                args.extend([form if (p < n) == (q < n) else eye, [p, q]])
        args.append(list(range(m)))
        vecs.append(np.einsum(*args).reshape(-1))
    return _labels(source, n, nprime), np.array(vecs)


def spanning_set(rep: RepData, n: int, nprime: int, source: str,
                 budget: int = DEFAULT_BUDGET) -> SpanningSet:
    """Spanning vectors of (a subspace of) the invariants of the tensor power.

    Sources: ``permutations`` (U(N) and SU(N), n = n'), ``pairings`` (SO/Sp),
    ``g2u`` (G2, (n, n') = (2, 0)), and the generic ``nullspace``.
    """
    source = source.lower()
    _check_budget(rep, n, nprime, budget)
    if source == "permutations" and (rep.spec.family not in ("u", "su") or n != nprime or n < 1):
        raise ValueError("permutations source needs the U or SU family and n = n' >= 1")
    if source == "pairings" and (rep.spec.family not in ("so", "sp") or (n + nprime) % 2):
        raise ValueError("pairings source needs the SO or Sp family and an even total number of slots")
    if source in ("permutations", "pairings"):
        if (n_labels := _label_count(source, n, nprime)) ** 2 > budget:  # Gram and Wg are L x L
            raise BudgetError(n_labels ** 2, budget, "L**2")  # refused before any vector is formed
        labels, vecs = _label_vectors(rep, n, nprime, source)
    elif source == "g2u":
        if rep.spec.family != "g2" or (n, nprime) != (2, 0):
            raise ValueError("g2u source is the (2,0) invariant of G2")
        labels = ("u",)
        vecs = np.eye(7).reshape(1, -1)
    elif source == "nullspace":
        vecs = np.ascontiguousarray(_null_space(rep, n, nprime).T)
        labels = tuple(f"null{k}" for k in range(vecs.shape[0]))
    else:
        raise ValueError(f"unknown spanning-set source {source!r}")

    # C v applied pair term by pair term: no D x D matrix, no eigendecomposition
    residual = np.linalg.norm(_apply_casimir(rep, n, nprime, vecs), axis=1)
    for k, v in enumerate(vecs):
        if residual[k] > 1e-9 * np.linalg.norm(v):
            raise RuntimeError(f"spanning vector {labels[k]!r} is not invariant")
    return SpanningSet(rep, n, nprime, source, labels, vecs)


@dataclass(frozen=True)
class WeingartenMap:
    """Gram matrix of a spanning set and its Moore-Penrose pseudoinverse."""

    spanning: SpanningSet
    gram: np.ndarray
    wg: np.ndarray

    def moment_matrix(self) -> np.ndarray:
        """``tau o Wg o tau*``; equals the Haar moment when the set spans."""
        v = self.spanning.vectors
        return v.T @ self.wg @ v


def weingarten(ss: SpanningSet, rel_cutoff: float = 1e-8) -> WeingartenMap:
    if ss.vectors.shape[0] == 0:
        raise ValueError("empty spanning set")
    gram = ss.vectors @ ss.vectors.T
    wg = pseudoinverse(gram, rel_cutoff)
    return WeingartenMap(ss, gram, wg)


# ---------------------------------------------------------------------------
# expectations of products of loops
# ---------------------------------------------------------------------------


ProductItem = Union[Loop, LoopSum]


def _item_terms(item: ProductItem) -> list[list[Loop]]:
    """The loops of each term of a product item: one term for a `Loop`, one per `LoopSum` term."""
    if isinstance(item, Loop):
        return [[item]]
    if not isinstance(item, LoopSum):
        raise TypeError(f"expected Loop or LoopSum, got {type(item).__name__}")
    return [[term.left, term.right] if isinstance(term, LoopPair) else [term] for term in item.terms]


def _expand_items(items: Sequence[ProductItem]) -> list[list[Loop]]:
    """Multilinear expansion of a product of loops and loop sums."""
    combos: list[list[Loop]] = [[]]
    for item in items:
        combos = [combo + loops for loops in _item_terms(item) for combo in combos]
    return combos


_PERMUTATIONS, _PAIRINGS = "weingarten:permutations", "weingarten:pairings"

#: complex entries (16 KiB) of the largest temporary of a batched contraction:
#: a group of products is contracted in slices that stay under it, and a
#: product whose own temporaries are larger is a slice by itself
_BATCH_ENTRIES = 2 ** 10


def _route(rep: RepData, n: int, nprime: int, measure: MeasureSpec,
           budget: int = DEFAULT_BUDGET) -> str:
    """How the exact expectation on the ``(n, n')`` tensor power is evaluated.

    One of ``weingarten:permutations``, ``weingarten:pairings``, ``zero``,
    ``characters`` or ``casimir`` (see the module docstring).  A Weingarten
    route is taken where its label set provably spans the invariants and
    ``L**2`` fits the budget; otherwise the Casimir route needs ``D`` to fit,
    and `BudgetError` is raised when it does not.
    """
    fam, big_n, m = rep.spec.family, rep.spec.n, n + nprime
    if fam == "u1power":
        return "characters"
    route = "casimir"
    if measure.kind == "haar" and m >= 1:
        if fam == "u":
            route = _PERMUTATIONS if n == nprime else "zero"
        elif fam == "su" and n == nprime:
            route = _PERMUTATIONS
        elif fam == "su" and (n - nprime) % big_n:
            route = "zero"  # the centre acts by a nontrivial root of unity
        elif fam == "sp" or fam == "so" and (m < big_n or (m - big_n) % 2):
            route = "zero" if m % 2 else _PAIRINGS  # no epsilon-type invariant here
    if route in (_PERMUTATIONS, _PAIRINGS):
        if _label_count(route.partition(":")[2], n, nprime) ** 2 <= budget:
            return route
        route = "casimir"
    if route == "casimir":
        _check_budget(rep, n, nprime, budget)
    return route


def _coefficient_ends(shape: tuple[tuple[int, ...], ...]) -> tuple[int, list[tuple[int, int]]]:
    """Where each coefficient matrix sits on the tensor power: ``(n, ends)``.

    ``shape`` holds the slot signs of each loop, and ``n`` counts the +
    slots.  Canonical slot ``c`` (the + slots in order, then the - slots)
    has a row end ``2c`` and a column end ``2c + 1``.  ``ends[k]`` is the
    pair of ends coefficient ``c_k`` joins, in its index order: the end the
    previous slot's right index sits on, then the end its slot's left index
    sits on.
    """
    signs = [s for loop_signs in shape for s in loop_signs]
    m, n = len(signs), signs.count(1)
    free = {1: iter(range(n)), -1: iter(range(n, m))}
    canon = [next(free[s]) for s in signs]
    # a + slot's left index is its row, a - slot's its column (g^-1_{ji} = conj(g)_{ij})
    left = [2 * c + (s == -1) for c, s in zip(canon, signs)]
    right = [2 * c + (s == 1) for c, s in zip(canon, signs)]
    ends, start = [], 0
    for r in map(len, shape):
        ends += [(right[start + (j - 1) % r], left[start + j]) for j in range(r)]
        start += r
    return n, ends


@lru_cache(maxsize=256)
def _wiring(source: str, shape: tuple[tuple[int, ...], ...], twisted: bool):
    """The cycles of ``M[a, b]`` for every label pair, as letter ids.

    Coefficient ``c_k`` joins the two ends `_coefficient_ends` gives it, and
    a label is an involution on the slots (`_label_table`): the pair
    ``(a, b)`` joins the row ends by ``a`` and the column ends by ``b``.
    Every end then lies on one coefficient edge and one label edge, so the
    edges close into cycles, and ``M[a, b]`` is the product of the traces of
    the cycles' words.  The cycles of all ``P = L**2`` pairs are found
    together on ``(P, 2m)`` arrays: the successor ``nxt = label o
    coefficient`` of each end, its orbit minimum by pointer doubling, and a
    cycle read from the smallest end it touches, the coefficient edge there
    first (the other orbit of the cycle, its image across the coefficient
    edges, is the same cycle read backwards).

    A letter is coefficient ``k`` (read forward) or ``m + k`` (transposed),
    followed by a form: 0 delta, and when ``twisted`` (F = J on like slot
    pairs under Sp) 1 F or 2 F^T, F read from the smaller slot.  F is real,
    so a column label, whose tensor enters conjugated, takes the same
    letters as a row label.
    Returns ``(steps, order, starts, n_labels)``: with the cycles of all
    pairs sorted longest first (pair order, then start end, among equals),
    ``steps[t]`` holds the t-th letter of every cycle longer than t;
    ``order`` puts the cycles back in pair order and ``starts`` marks where
    each pair's cycles begin.
    """
    n, ends = _coefficient_ends(shape)
    m = len(ends)
    table = _label_table(source, n, m - n)
    n_pairs, width = len(table) ** 2, 2 * m
    small = np.min_scalar_type(3 * width)  # holds every end and every letter
    first, second = np.array(ends, dtype=np.intp).T
    co, coef = np.empty(width, dtype=np.intp), np.empty(width, dtype=small)
    co[first], co[second] = second, first
    coef[first], coef[second] = np.arange(m), m + np.arange(m)
    slots = np.arange(m)
    fid = np.where(twisted & ((table < n) == (slots < n)), np.where(slots < table, 1, 2), 0)
    # per label, across the label edge at co[e]: the end reached and the form read
    joined = (2 * np.repeat(table, 2, axis=1) + np.arange(width) % 2)[:, co].astype(small)
    form = np.repeat(fid, 2, axis=1)[:, co].astype(small)
    on_row = co % 2 == 0  # a row end, joined by label a; a column end by label b
    nxt = np.where(on_row, joined[:, None], joined[None]).reshape(n_pairs, width)
    letters = (coef * (3 if twisted else 1) + np.where(on_row, form[:, None], form[None])).reshape(-1)
    omin = np.minimum(nxt, np.arange(width, dtype=small)).reshape(-1)
    ptr = (nxt + np.arange(0, n_pairs * width, width)[:, None]).reshape(-1)  # as flat indices
    nxt = nxt.reshape(-1)
    for _ in range((m - 1).bit_length() - 1):  # omin over 2**k orbit ends; an orbit holds <= m
        ptr = ptr[ptr]
        omin = np.minimum(omin, omin[ptr])
    omin = omin.reshape(n_pairs, width)
    is_start = (omin == np.arange(width)) & (omin < omin[:, co])
    cur = start = np.flatnonzero(is_start)
    words, length, closed = [], np.zeros(len(cur), dtype=np.intp), np.zeros(len(cur), dtype=bool)
    for _ in range(m):  # every cycle's letters, in pair order
        words.append(letters[cur])
        length += ~closed
        cur = cur - cur % width + nxt[cur]
        closed |= cur == start
    by_length = np.argsort(-length, kind="stable")
    still_open = len(length) - np.cumsum(np.bincount(length))[:-1]
    steps = tuple(w[by_length[:k]].astype(np.intp) for w, k in zip(words, still_open))
    order = np.argsort(by_length)
    starts = np.concatenate(([0], np.cumsum(is_start.sum(axis=1))[:-1]))
    for a in steps + (order, starts):
        a.setflags(write=False)
    return steps, order, starts, len(table)


@lru_cache(maxsize=64)
def _forms(rep: RepData) -> np.ndarray:
    """The form letters of `_wiring`: delta, then F and F^T if twisted (Sp)."""
    eye = np.eye(rep.dim)
    if rep.spec.family != "sp":
        forms = eye[None]
    else:
        f = rep.constants["J"]
        forms = np.array([eye, f, f.T])
    forms.setflags(write=False)
    return forms


def _word_products(letters: np.ndarray, steps: Sequence[np.ndarray]) -> np.ndarray:
    """Products of words in ``letters`` (axis 0), longest first: ``steps[t]`` holds the t-th
    letter of every word longer than t, so the words still open are a prefix."""
    acc = letters.take(steps[0], axis=0)
    for idx in steps[1:]:
        acc[:len(idx)] = acc[:len(idx)] @ letters.take(idx, axis=0)
    return acc


def _contract(wiring, cs: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """``M[a, b]`` of each coefficient set as a column, ``(L**2, B)``, from the wiring
    and the ``(B, m, d, d)`` coefficient matrices in slot order, `_BATCH_ENTRIES` at a time."""
    steps, order, starts, _ = wiring
    b, m, d = cs.shape[:3]
    step = max(1, _BATCH_ENTRIES // ((len(steps[0]) + 2 * m * len(forms)) * d * d))
    out = []
    for lo in range(0, b, step):
        chunk = cs[lo:lo + step].transpose(1, 0, 2, 3)  # letters first, then the sets
        letters = np.concatenate([chunk, chunk.transpose(0, 1, 3, 2)])
        if forms.shape[0] > 1:  # every letter times every form, in one product
            k = letters.shape[0]
            wide = letters.reshape(-1, d) @ forms.transpose(1, 0, 2).reshape(d, -1)
            letters = wide.reshape(k, -1, d, len(forms), d).transpose(0, 3, 1, 2, 4).reshape(
                k * len(forms), -1, d, d)
        traces = np.einsum("kbii->kb", _word_products(letters, steps))
        out.append(np.multiply.reduceat(traces.take(order, axis=0), starts))
    return np.concatenate(out, axis=1)


@lru_cache(maxsize=64)
def _route_wg(rep: RepData, n: int, nprime: int, source: str) -> np.ndarray:
    """Wg of the label set, from the Gram matrix of diagram loops.

    ``M[a, b]`` of the characters ``tr(g)^n tr(g^-1)^n'`` is
    ``sum_x tau_a[x] tau_b[x]`` (tau is real), the Gram matrix, so the
    Gram matrix costs ``L**2`` cycle traces and no ``d**(n+n')`` vector.
    """
    forms = _forms(rep)
    wiring = _wiring(source, ((1,),) * n + ((-1,),) * nprime, len(forms) > 1)
    n_labels = wiring[-1]
    m_ab = _contract(wiring, np.array([[np.eye(rep.dim)] * (n + nprime)]), forms)
    wg = pseudoinverse(m_ab[:, 0].reshape(n_labels, n_labels), 1e-8)
    wg.setflags(write=False)
    return wg


@lru_cache(maxsize=256)
def _end_slots(shape: tuple[tuple[int, ...], ...]):
    """`_coefficient_ends` with a row end first: ``(flip, side, groups)``.

    ``flip[k]``: ``c_k`` enters transposed; ``side[k]``: 0 on a row end, 1 on a column end;
    ``groups``: ``(k, s, t)`` (indices, slots of the two ends) of the coefficients on
    two row ends, on a row and a column end, and on two column ends.
    """
    ends = np.array(_coefficient_ends(shape)[1], dtype=np.intp)
    flip = ends[:, 0] % 2 > ends[:, 1] % 2
    ends[flip] = ends[flip, ::-1]
    side, slot = ends % 2, ends // 2
    groups = tuple((k, slot[k, 0], slot[k, 1])
                   for k in (np.flatnonzero(side.sum(axis=1) == v) for v in range(3)))
    for a in (flip, side) + sum(groups, ()):
        a.setflags(write=False)
    return flip, side, groups


@lru_cache(maxsize=256)
def _end_bases(rep: RepData, shape: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, left, right)`` for the coefficients of ``shape``: ``order`` reads the flat
    ``(m, d, d)`` coefficients with each one `_end_slots` flips transposed, and ``left``
    and ``right`` are ``A_e1^T`` and ``A_e2`` (``A``: ``U`` on a row end, ``conj(U)`` on a
    column end), ``(m, d, d)`` each."""
    u, d = _weight_basis(rep)[0], rep.dim
    flip, side, _ = _end_slots(shape)
    order = np.arange(len(flip) * d * d).reshape(-1, d, d)
    order[flip] = order[flip].transpose(0, 2, 1)
    basis = np.array([u, u.conj()])
    out = order.reshape(-1), np.ascontiguousarray(basis[side[:, 0]].transpose(0, 2, 1)), basis[side[:, 1]]
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=512)
def _block_reads(rep: RepData, shape: tuple[tuple[int, ...], ...], k: int):
    """Where block ``k`` reads the rotated coefficients ``c'`` of a product of ``shape``.

    Returns ``(on_i, on_j, col, index, row)``.  `_block_contraction` stacks
    the rows of every ``c'_j`` and then of every ``c'_j^T``, ``(2 m d, d)``.
    ``on_i`` and ``on_j`` hold the flat positions of ``c'_j[I_s, I_t]`` for
    the coefficients on two row ends and of ``c'_j[J_s, J_t]`` for those on
    two column ends, ``(K, N)`` each (``s``, ``t`` the slots of its ends).
    For the ``K`` coefficients on a row and a column end, ``col`` holds the
    rows of ``c'_j^T`` at ``J_t``, the columns ``H_j = c'_j[:, J_t]``, and
    ``(index, row)`` pick row ``I_s`` of each ``H_j``.
    """
    flip, _, ((ki, si, ti), (km, sm, tm), (kj, sj, tj)) = _end_slots(shape)
    n = sum(s == 1 for loop_signs in shape for s in loop_signs)
    digits = _block_eigh(rep, n, len(flip) - n, k)[2]
    d = rep.dim
    on_i, on_j = ((kk[:, None] * d + digits[ss]) * d + digits[tt] for kk, ss, tt in ((ki, si, ti), (kj, sj, tj)))
    reads = (on_i, on_j, (len(flip) + km[:, None]) * d + digits[tm], np.arange(len(km))[:, None], digits[sm])
    for a in reads:
        a.setflags(write=False)
    return reads


def _block_contraction(rep: RepData, n: int, nprime: int, measure: MeasureSpec,
                       shape: tuple[tuple[int, ...], ...], cs: np.ndarray) -> np.ndarray:
    """``sum_b sum_j (f, c f)(c_j) z_j^T M'_b conj(z_j)`` over the eigenvectors the measure keeps
    (`_kept`, `_weights`), for each of the ``(B, m, d, d)`` coefficient sets: ``(B, 2)``.

    An eigenvector of ``C`` is real, ``U^{(x)m} z = conj(U)^{(x)m} conj(z)``,
    so ``M'_b[I, J]`` is the product of the rotated ``c'_k = A_e1^T c_k A_e2``
    (``A``: ``U`` on a row end, ``conj(U)`` on a column end) at the digits of
    their ends, a row end reading ``I`` and a column end ``J``.  All B sets
    are rotated by one product, and each block gathers all of them at once
    (`_block_reads`), `_BATCH_ENTRIES` at a time.
    """
    order, left, right = _end_bases(rep, shape)
    rotated = left @ cs.reshape(len(cs), -1).take(order, axis=1).reshape(cs.shape) @ right
    rows = np.concatenate([rotated, rotated.transpose(0, 1, 3, 2)], axis=1).reshape(len(cs), -1, rep.dim)
    flat = rows.reshape(len(cs), -1)
    total = np.zeros((len(cs), 2), dtype=np.complex128)
    for k, z, c in _kept(rep, n, nprime, measure):  # a factor on I alone or J alone scales the rows of y
        on_i, on_j, col, index, row = _block_reads(rep, shape, k)
        weights = np.array(_weights(measure, c), dtype=np.complex128).T  # (r, 2): f(c) and c f(c)
        size = len(z)
        step = max(1, _BATCH_ENTRIES // max(1, size * (len(col) * size + z.shape[1])))
        for lo in range(0, len(cs), step):
            y = z.conj()
            if len(on_j):
                y = y * flat[lo:lo + step].take(on_j, axis=1).prod(axis=1)[:, :, None]
            if len(col):  # c'_k[I, J] = H_k[I_s, J], H_k = c'_k[:, J_t]: whole rows are gathered
                h = rows[lo:lo + step].take(col, axis=1).transpose(0, 1, 3, 2)
                y = h[:, index, row].prod(axis=1) @ y
            else:
                y = y.sum(axis=-2, keepdims=True)
            if len(on_i):
                y = y * flat[lo:lo + step].take(on_i, axis=1).prod(axis=1)[:, :, None]
            total[lo:lo + step] += np.sum(z * y, axis=-2) @ weights
    return total


def _shape_route(rep: RepData, shape: tuple[tuple[int, ...], ...], measure: MeasureSpec,
                 budget: int) -> tuple[str, int, int]:
    """The route of every product of loops of ``shape`` (their slot signs) on ``rep``, with its ``(n, n')``."""
    signs = [s for loop_signs in shape for s in loop_signs]
    n = signs.count(1)
    return _route(rep, n, len(signs) - n, measure, budget), n, len(signs) - n


def _product_route(flat: Sequence[Loop], measure: MeasureSpec, budget: int) -> tuple[str, int, int]:
    """The route of a plain product of loops, with its ``(n, n')``."""
    check_one_group(w.rep.spec for w in flat)
    return _shape_route(flat[0].rep, tuple(w.signs for w in flat), measure, budget)


def _contract_group(key: tuple, cs: np.ndarray, measure: MeasureSpec, budget: int) -> np.ndarray:
    """Exact expectations of B products of one shape, with their generators (`_weights`), loop
    scales left out: ``(B, 2)``.

    ``key`` holds each loop's ``(rep, slot signs)`` and ``cs`` the products' stacked
    ``(B, m, d, d)`` coefficients in slot order.  The shape takes one route and one
    contraction: `_block_contraction` on the Casimir route, `_contract` and one product with
    ``Wg`` on a Weingarten route (Haar alone: generator 0), and on U(1) characters the
    product of the coefficients, weighted at the Casimir eigenvalue ``-k^2`` of ``z^k``.
    """
    rep, shape = key[0][0], tuple(signs for _, signs in key)
    route, n, nprime = _shape_route(rep, shape, measure, budget)
    if route == "characters":
        k_tot = sum(r.spec.n * sum(signs) for r, signs in key)
        return np.multiply.outer(cs.reshape(len(cs), -1).prod(axis=1), _weights(measure, -float(k_tot ** 2)))
    if route == "casimir":  # Wg is diagonal on the orthonormal eigenvectors
        return _block_contraction(rep, n, nprime, measure, shape, cs)
    out = np.zeros((len(cs), 2), dtype=np.complex128)
    if route != "zero":
        source = route.partition(":")[2]
        forms = _forms(rep)
        m_ab = _contract(_wiring(source, shape, len(forms) > 1), cs, forms)
        out[:, 0] = _route_wg(rep, n, nprime, source).reshape(-1) @ m_ab
    return out


def _expect_products(flats: Sequence[Sequence[Loop]], measure: MeasureSpec, budget: int) -> np.ndarray:
    """Exact expectations of plain products of loops (Haar or Brownian), with their generators
    (`_weights`): ``(len(flats), 2)``.

    Every product must pass `check_one_group`.  Products are grouped by
    shape, each loop's representation and slot signs, and each group's
    stacked coefficients are contracted at once (`_contract_group`).
    """
    groups: dict = {}
    for i, flat in enumerate(flats):
        check_one_group(w.rep.spec for w in flat)
        groups.setdefault(tuple((w.rep, w.signs) for w in flat), []).append(i)
    values = [(0j, 0j)] * len(flats)
    for key, idx in groups.items():
        members = [flats[i] for i in idx]
        cs = np.array([[c for w in flat for c, _ in w.factors] for flat in members])
        for i, flat, (x, y) in zip(idx, members, _contract_group(key, cs, measure, budget).tolist()):
            scale = math.prod(w.scale for w in flat)
            values[i] = (x * scale, y * scale)
    return np.array(values, dtype=np.complex128).reshape(len(flats), 2)


def expect_product(items: Sequence[ProductItem], measure: MeasureSpec,
                   budget: int = DEFAULT_BUDGET) -> complex:
    """Exact expectation of a product of loops (and loop sums) under Haar or Brownian.

    The product is expanded into plain products of loops, and products of
    one shape are contracted together (`_expect_products`).  Each shape
    takes the route `_route` picks: Weingarten contraction against
    permutations or pairings, an exact zero, the character algebra for U(1)
    characters, or contraction against the tensor-Casimir eigenvectors,
    each weighted by the measure's ``f`` of its eigenvalue (`_weights`).
    The Wilson action has no exact route and is refused;
    ``sampling.mc_expect`` estimates it.
    """
    if measure.kind == "wilson":
        raise ValueError("no exact expectation under the Wilson action; estimate it with mc_expect")
    if not items:
        raise ValueError("need at least one loop")
    return sum(_expect_products(_expand_items(items), measure, budget)[:, 0].tolist(), 0j)
