"""Exact moment operators on tensor powers, spanning sets, Weingarten maps.

The moment operator of a probability density ``nu`` is
``T(nu) = int rho(g) nu(g) dg`` on the tensor representation
``V^{(x)n} (x) (V*)^{(x)n'}``.  Multi-indices are ordered V-slots first:
``(i_1..i_n; i'_1..i'_{n'})``, so the matrix entry of ``T`` is the moment

    T[(i;i'), (j;j')] = E[ g_{i_1 j_1} ... g_{i_n j_n}
                           g^{-1}_{j'_1 i'_1} ... g^{-1}_{j'_{n'} i'_{n'}} ].

The Haar moment is ``T(Haar) = tau o Wg o tau*``: the orthogonal projector
onto the invariants, with ``tau`` a spanning set of invariant tensors and
``Wg`` the pseudoinverse of its Gram matrix.  The same projector is the null
space of the tensor Casimir, and the Brownian moment at time t is
``exp(t/2 C)``.

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
* ``casimir``, the tensor-Casimir null space (or ``exp(t/2 C)``), for the
  Brownian measure, G2, SU(N) with epsilon invariants, SO(N) with
  epsilon-type invariants, and any Weingarten shape over the budget.

The Weingarten routes evaluate ``sum_{a,b} Wg[a,b] M[a,b]``, where
``M[a,b]`` is the loop product contracted with row label ``a`` and column
label ``b``: a product of traces of words in the coefficient matrices,
read off the cycles of the wiring.  No tensor of the tensor power is formed.

The budget caps a different size on each route: the squared number of
labels ``L**2`` on the Weingarten routes (Gram and Wg are ``L x L``), and
the tensor-power dimension ``D = d**(n+n')`` on the Casimir route, which
forms ``D x D`` matrices.  A Weingarten shape over the budget falls back to
the Casimir route when ``D`` fits.

The Wilson action admits no exact closed form here; for that measure the
expectation is delegated to the Monte-Carlo estimator in ``sampling``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .catalog import RepData, check_one_group, closed_form_completeness
from .loops import Loop, LoopPair, LoopSum, loops_to_tensor
from .tensor import pseudoinverse

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "SpectralGapError",
    "MeasureSpec",
    "MomentOperator",
    "SpanningSet",
    "WeingartenMap",
    "tensor_casimir",
    "haar_moment",
    "brownian_moment",
    "moment_operator",
    "spanning_set",
    "weingarten",
    "expect_product",
    "null_cutoff",
]

DEFAULT_BUDGET = 4096


class BudgetError(RuntimeError):
    """Tensor-power dimension exceeds the configured memory budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"tensor representation needs dimension {required}, over the budget {budget}; "
            f"raise the budget to proceed"
        )
        self.required = required
        self.budget = budget


class SpectralGapError(RuntimeError):
    """The null-space cutoff cannot be separated from nonzero Casimir eigenvalues."""


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
        if not (math.isfinite(self.t) and math.isfinite(self.beta)):
            raise ValueError(f"measure parameters must be finite, got t={self.t}, beta={self.beta}")
        if self.kind == "brownian" and not self.t > 0:
            raise ValueError("brownian measure needs t > 0")
        if self.kind == "wilson":
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
    def parse(cls, text: str, plaquettes: Sequence[Loop] = ()) -> "MeasureSpec":
        """Parse CLI measure strings: ``haar``, ``brownian:t=1.5``, ``wilson:beta=0.1``."""
        head, _, tail = text.partition(":")
        head = head.strip().lower()
        params = {}
        if tail:
            for item in tail.split(","):
                key, _, val = item.partition("=")
                params[key.strip()] = float(val)
        if head == "haar":
            return cls.haar()
        if head == "brownian":
            if "t" not in params:
                raise ValueError("brownian measure needs t, e.g. brownian:t=1.5")
            return cls.brownian(params["t"])
        if head == "wilson":
            if "beta" not in params:
                raise ValueError("wilson measure needs beta, e.g. wilson:beta=0.1")
            return cls.wilson(params["beta"], plaquettes)
        raise ValueError(f"unknown measure {text!r}")


@dataclass(frozen=True)
class MomentOperator:
    """T(nu) on the tensor representation, with the Casimir spectrum cached."""

    rep: RepData
    n: int
    nprime: int
    kind: str
    matrix: np.ndarray
    spectrum: np.ndarray
    t: float = 0.0

    @property
    def rank(self) -> int:
        cutoff = null_cutoff(self.rep, self.n, self.nprime)
        return int(np.sum(np.abs(self.spectrum) < cutoff))

    def as_tensor(self) -> np.ndarray:
        d, m = self.rep.dim, self.n + self.nprime
        return self.matrix.reshape((d,) * (2 * m))


def null_cutoff(rep: RepData, n: int, nprime: int) -> float:
    """Threshold below which a tensor-Casimir eigenvalue counts as zero."""
    return 1e-8 * max(1.0, abs(rep.lam) * (n + nprime))


def _check_budget(rep: RepData, n: int, nprime: int, budget: int) -> int:
    if n + nprime < 1:
        raise ValueError("need n + n' >= 1")
    required = rep.dim ** (n + nprime)
    if required > budget:
        raise BudgetError(required, budget)
    return required


def _pair_terms(rep: RepData, n: int, nprime: int):
    """The tensor Casimir less its diagonal, as ``(coef, kernel, p, q)`` pair terms.

    A term adds ``coef * kernel[i_p, j_p, i_q, j_q]`` on slots ``p < q`` with
    every other slot's row and column index equal.  K is the family's
    completeness relation, which is real.
    """
    k = closed_form_completeness(rep.spec).k
    if np.any(k.imag):
        raise RuntimeError(f"{rep.spec.label()}: completeness relation is not real")
    k = np.ascontiguousarray(k.real)
    kernel_vv = k                          # K[i_r, j_r, i_s, j_s]
    kernel_dd = k.transpose(1, 0, 3, 2)    # K[j'_r, i'_r, j'_s, i'_s]
    kernel_vd = k.transpose(0, 1, 3, 2)    # K[i_r, j_r, j'_s, i'_s]
    terms = [(2.0, kernel_vv, r, s) for r, s in itertools.combinations(range(n), 2)]
    terms += [(2.0, kernel_dd, n + r, n + s) for r, s in itertools.combinations(range(nprime), 2)]
    terms += [(-2.0, kernel_vd, r, n + s) for r in range(n) for s in range(nprime)]
    return terms


def tensor_casimir(rep: RepData, n: int, nprime: int,
                   budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Casimir of ``rho^{(x)n,(x)n'}`` as a ``(D, D)`` real symmetric matrix.

    Assembled from the family's completeness relation K (`_pair_terms`):
    ``(n+n') lambda`` on the diagonal, ``+2 K`` across pairs of like slots,
    ``-2 K`` (index-twisted) across mixed slot pairs.  Its eigenspaces are
    the isotypic components of the tensor representation and all eigenvalues
    are non-positive.  Each pair term is added in place through a strided
    view of the entries it touches, ``d**(n+n'+2)`` of them.
    """
    dim_v = _check_budget(rep, n, nprime, budget)
    d, m = rep.dim, n + nprime
    c = np.zeros((dim_v, dim_v))
    c.flat[::dim_v + 1] = m * rep.lam
    full = c.reshape((d,) * (2 * m))
    st = full.strides
    for coef, kernel, p, q in _pair_terms(rep, n, nprime):
        rest = [s for s in range(m) if s not in (p, q)]
        # axes i_p, j_p, i_q, j_q, then one shared row/column index per other slot
        view = np.lib.stride_tricks.as_strided(
            full, shape=(d,) * (m + 2),
            strides=(st[p], st[m + p], st[q], st[m + q]) + tuple(st[s] + st[m + s] for s in rest),
            writeable=True)
        view += coef * kernel.reshape(kernel.shape + (1,) * len(rest))
    sym_defect = np.linalg.norm(c - c.T)
    if sym_defect > 1e-11 * max(1.0, np.linalg.norm(c)):
        raise RuntimeError(f"tensor Casimir not symmetric (defect {sym_defect:.2e})")
    return c


def _apply_casimir(rep: RepData, n: int, nprime: int, vecs: np.ndarray) -> np.ndarray:
    """``C v`` for each row of ``vecs`` (``(r, D)``), with no ``D x D`` matrix."""
    d, m = rep.dim, n + nprime
    t = vecs.reshape((-1,) + (d,) * m)
    out = (m * rep.lam) * t
    rows = list(range(1, m + 1))
    for coef, kernel, p, q in _pair_terms(rep, n, nprime):
        inner = list(rows)
        inner[p], inner[q] = m + 1, m + 2
        out = out + coef * np.einsum(kernel, [p + 1, m + 1, q + 1, m + 2], t, [0] + inner, [0] + rows)
    return out.reshape(vecs.shape)


_SPECTRAL_CACHE: dict = {}


def _spectral(rep: RepData, n: int, nprime: int, budget: int):
    _check_budget(rep, n, nprime, budget)
    key = (rep, n, nprime)
    if key in _SPECTRAL_CACHE:
        return _SPECTRAL_CACHE[key]
    w, u = np.linalg.eigh(tensor_casimir(rep, n, nprime, budget))
    if w.size and w[-1] > 1e-8:
        raise RuntimeError(f"tensor Casimir has a positive eigenvalue {w[-1]:.3e}")
    _SPECTRAL_CACHE[key] = (w, u)
    return w, u


def haar_moment(rep: RepData, n: int, nprime: int,
                budget: int = DEFAULT_BUDGET) -> MomentOperator:
    """Projector onto the invariants, via the tensor-Casimir null space."""
    w, u = _spectral(rep, n, nprime, budget)
    cutoff = null_cutoff(rep, n, nprime)
    null = np.abs(w) < cutoff
    nonzero = np.abs(w[~null])
    if nonzero.size and nonzero.min() < 10.0 * cutoff:
        raise SpectralGapError(
            f"smallest nonzero |eigenvalue| {nonzero.min():.3e} is within 10x of the "
            f"null cutoff {cutoff:.3e}; tighten the cutoff before trusting the projector"
        )
    basis = u[:, null]
    matrix = basis @ basis.T
    return MomentOperator(rep, n, nprime, "haar", matrix, w)


def brownian_moment(rep: RepData, n: int, nprime: int, t: float,
                    budget: int = DEFAULT_BUDGET) -> MomentOperator:
    """Heat-semigroup moment ``exp(t/2 C)`` on the tensor representation."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"brownian moment needs a finite t > 0, got t={t}")
    w, u = _spectral(rep, n, nprime, budget)
    matrix = (u * np.exp(0.5 * t * w)) @ u.T
    return MomentOperator(rep, n, nprime, "brownian", matrix, w, t=t)


_MOMENT_CACHE: dict = {}


def moment_operator(rep: RepData, n: int, nprime: int, measure: MeasureSpec,
                    budget: int = DEFAULT_BUDGET) -> MomentOperator:
    """Cached exact moment operator for Haar or Brownian measures."""
    if measure.kind == "wilson":
        raise ValueError("no exact moment operator for the Wilson action")
    _check_budget(rep, n, nprime, budget)
    key = (rep, n, nprime, measure.kind, measure.t)
    if key not in _MOMENT_CACHE:
        if measure.kind == "haar":
            _MOMENT_CACHE[key] = haar_moment(rep, n, nprime, budget)
        else:
            _MOMENT_CACHE[key] = brownian_moment(rep, n, nprime, measure.t, budget)
    return _MOMENT_CACHE[key]


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


def _labels(source: str, n: int, nprime: int) -> tuple:
    """Permutations of the n + slots, or perfect matchings of all slots."""
    if source == "permutations":
        return tuple(itertools.permutations(range(n)))
    return tuple(_perfect_matchings(tuple(range(n + nprime))))


def _label_pairs(source: str, n: int, label) -> tuple[tuple[int, int], ...]:
    """The slot pairs a label joins; sigma joins + slot sigma[k] to - slot k."""
    if source == "permutations":
        return tuple((p, n + k) for k, p in enumerate(label))
    return label


def _label_vectors(rep: RepData, n: int, nprime: int, source: str) -> tuple[tuple, np.ndarray]:
    """tau(label) for every label: delta across mixed slot pairs, the form on like ones."""
    m = n + nprime
    if source == "pairings" and m % 2:
        raise ValueError("pairings need an even total number of slots")
    eye = np.eye(rep.dim)
    form = rep.constants["J"] if rep.spec.family == "sp" else eye
    labels = _labels(source, n, nprime)
    vecs = []
    for label in labels:
        args: list = []
        for p, q in _label_pairs(source, n, label):
            like = (p < n) == (q < n)  # V-V or dual-dual pairs use the form
            args.extend([form if like else eye, [p, q]])
        args.append(list(range(m)))
        vecs.append(np.einsum(*args).reshape(-1))
    return labels, np.array(vecs)


def spanning_set(rep: RepData, n: int, nprime: int, source: str,
                 budget: int = DEFAULT_BUDGET) -> SpanningSet:
    """Spanning vectors of (a subspace of) the invariants of the tensor power.

    Sources: ``permutations`` (U(N) and SU(N), n = n'), ``pairings`` (SO/Sp),
    ``g2u`` (G2, (n, n') = (2, 0)), and the generic ``nullspace``.
    """
    source = source.lower()
    _check_budget(rep, n, nprime, budget)
    if source == "permutations":
        if rep.spec.family not in ("u", "su") or n != nprime or n < 1:
            raise ValueError("permutations source needs the U or SU family and n = n' >= 1")
        labels, vecs = _label_vectors(rep, n, nprime, source)
    elif source == "pairings":
        if rep.spec.family not in ("so", "sp"):
            raise ValueError("pairings source supports the SO and Sp families")
        labels, vecs = _label_vectors(rep, n, nprime, source)
    elif source == "g2u":
        if rep.spec.family != "g2" or (n, nprime) != (2, 0):
            raise ValueError("g2u source is the (2,0) invariant of G2")
        labels = ("u",)
        vecs = np.eye(7).reshape(1, -1)
    elif source == "nullspace":
        w, u = _spectral(rep, n, nprime, budget)
        null = np.abs(w) < null_cutoff(rep, n, nprime)
        vecs = u[:, null].T.copy()
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


def _expand_items(items: Sequence[ProductItem]) -> list[list[Loop]]:
    """Multilinear expansion of a product of loops and loop sums."""
    combos: list[list[Loop]] = [[]]
    for item in items:
        if isinstance(item, Loop):
            for combo in combos:
                combo.append(item)
            continue
        if not isinstance(item, LoopSum):
            raise TypeError(f"expected Loop or LoopSum, got {type(item).__name__}")
        new: list[list[Loop]] = []
        for term in item.terms:
            extension = [term.left, term.right] if isinstance(term, LoopPair) else [term]
            for combo in combos:
                new.append(combo + extension)
        combos = new
    return combos


_PERMUTATIONS, _PAIRINGS = "weingarten:permutations", "weingarten:pairings"


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
        labels = math.factorial(n) if route == _PERMUTATIONS else math.prod(range(m - 1, 0, -2))
        if labels ** 2 <= budget:
            return route
        route = "casimir"
    if route == "casimir":
        _check_budget(rep, n, nprime, budget)
    return route


@lru_cache(maxsize=256)
def _wiring(source: str, shape: tuple[tuple[int, ...], ...], twisted: bool):
    """The cycles of ``M[a, b]`` for every label pair, as letter ids.

    ``shape`` holds the slot signs of each loop.  Canonical slot ``c`` (the
    + slots in order, then the - slots) has a row end ``2c`` and a column
    end ``2c + 1``.  Coefficient ``c_k`` joins the end its slot's left index
    sits on to the one the previous slot's right index sits on; label ``a``
    joins row ends, label ``b`` column ends.  Every end then lies on one
    coefficient edge and one label edge, so the edges close into cycles, and
    ``M[a, b]`` is the product of the traces of the cycles' words.

    A letter is coefficient ``k`` (read forward) or ``m + k`` (transposed),
    followed by a form: 0 delta, and when ``twisted`` (F = J on like slot
    pairs under Sp) 1 F or 2 F^T.  F is real, so a column label, whose
    tensor enters conjugated, takes the same letters as a row label.
    Returns ``(steps, order, starts, n_labels)``: with the cycles of all
    pairs sorted longest first,
    ``steps[t]`` holds the t-th letter of every cycle longer than t;
    ``order`` puts the cycles back in pair order and ``starts`` marks where
    each pair's cycles begin.
    """
    signs = [s for loop_signs in shape for s in loop_signs]
    m, n = len(signs), signs.count(1)
    free = {1: iter(range(n)), -1: iter(range(n, m))}
    canon = [next(free[s]) for s in signs]
    # a + slot's left index is its row, a - slot's its column (g^-1_{ji} = conj(g)_{ij})
    left = [2 * c + (s == -1) for c, s in zip(canon, signs)]
    right = [2 * c + (s == 1) for c, s in zip(canon, signs)]
    coef_edge: dict[int, tuple[int, int]] = {}
    start = 0
    for loop_signs in shape:
        r = len(loop_signs)
        for j in range(r):
            k, prev = start + j, start + (j - 1) % r
            coef_edge[right[prev]] = (k, left[k])
            coef_edge[left[k]] = (m + k, right[prev])
        start += r
    n_forms = 3 if twisted else 1
    labels = _labels(source, n, m - n)
    edges = []
    for label in labels:
        rows, cols = {}, {}
        for p, q in _label_pairs(source, n, label):
            like = twisted and (p < n) == (q < n)
            rows[2 * p], rows[2 * q] = (2 * q, 1 if like else 0), (2 * p, 2 if like else 0)
            cols[2 * p + 1], cols[2 * q + 1] = (2 * q + 1, 1 if like else 0), (2 * p + 1, 2 if like else 0)
        edges.append((rows, cols))
    words = []
    for rows, _ in edges:
        for _, cols in edges:
            form = {**rows, **cols}
            seen: set[int] = set()
            cycles = []
            for e0 in range(2 * m):
                if e0 in seen:
                    continue
                word, e = [], e0
                while True:
                    letter, other = coef_edge[e]
                    seen.update((e, other))
                    e, fid = form[other]
                    word.append(letter * n_forms + fid)
                    if e == e0:
                        break
                cycles.append(word)
            words.append(cycles)
    every = [word for cycles in words for word in cycles]
    by_length = sorted(range(len(every)), key=lambda c: -len(every[c]))
    steps = tuple(np.array([every[c][t] for c in by_length if len(every[c]) > t], dtype=np.intp)
                  for t in range(len(every[by_length[0]])))
    order = np.argsort(by_length)
    starts = np.cumsum([0] + [len(cycles) for cycles in words[:-1]])
    for a in steps + (order, starts):
        a.setflags(write=False)
    return steps, order, starts, len(labels)


@lru_cache(maxsize=64)
def _forms(rep: RepData, source: str) -> np.ndarray:
    """The form letters of `_wiring`: delta, then F and F^T if twisted."""
    eye = np.eye(rep.dim)
    if source == "permutations" or rep.spec.family != "sp":
        forms = eye[None]
    else:
        f = rep.constants["J"]
        forms = np.array([eye, f, f.T])
    forms.setflags(write=False)
    return forms


def _contract(wiring, coeffs: Sequence[np.ndarray], forms: np.ndarray) -> np.ndarray:
    """``M[a, b]``, flattened, from the wiring and the coefficient matrices in slot order."""
    steps, order, starts, _ = wiring
    cs = np.array(coeffs)
    letters = np.concatenate([cs, cs.transpose(0, 2, 1)])
    if forms.shape[0] > 1:  # every letter times every form, in one product
        k, d = letters.shape[:2]
        wide = letters.reshape(k * d, d) @ forms.transpose(1, 0, 2).reshape(d, -1)
        letters = wide.reshape(k, d, -1, d).transpose(0, 2, 1, 3).reshape(-1, d, d)
    acc = letters[steps[0]]
    for idx in steps[1:]:  # the cycles still open are a prefix
        acc[:len(idx)] = acc[:len(idx)] @ letters[idx]
    traces = np.einsum("kii->k", acc)
    return np.multiply.reduceat(traces[order], starts)


@lru_cache(maxsize=64)
def _route_wg(rep: RepData, n: int, nprime: int, source: str) -> np.ndarray:
    """Wg of the label set, from the Gram matrix of diagram loops.

    ``M[a, b]`` of the characters ``tr(g)^n tr(g^-1)^n'`` is
    ``sum_x tau_a[x] tau_b[x]`` (tau is real), the Gram matrix, so the
    Gram matrix costs ``L**2`` cycle traces and no ``d**(n+n')`` vector.
    """
    forms = _forms(rep, source)
    wiring = _wiring(source, ((1,),) * n + ((-1,),) * nprime, len(forms) > 1)
    n_labels = wiring[-1]
    m_ab = _contract(wiring, [np.eye(rep.dim)] * (n + nprime), forms)
    wg = pseudoinverse(m_ab.reshape(n_labels, n_labels), 1e-8)
    wg.setflags(write=False)
    return wg


def _product_route(flat: Sequence[Loop], measure: MeasureSpec, budget: int) -> tuple[str, int, int]:
    """The route of a plain product of loops, with its ``(n, n')``."""
    check_one_group(w.rep.spec for w in flat)
    signs = [s for w in flat for s in w.signs]
    n = signs.count(1)
    return _route(flat[0].rep, n, len(signs) - n, measure, budget), n, len(signs) - n


def _expect_flat(flat: list[Loop], measure: MeasureSpec, budget: int) -> complex:
    """Exact expectation of a plain product of loops (Haar or Brownian)."""
    route, n, nprime = _product_route(flat, measure, budget)
    rep = flat[0].rep
    if route == "zero":
        return 0.0 + 0.0j
    if route == "characters":
        k_tot = 0
        coeff = 1.0 + 0.0j
        for w in flat:
            k_tot += w.rep.spec.n * sum(w.signs)
            coeff *= w.scale
            for c, _ in w.factors:
                coeff *= c[0, 0]
        if measure.kind == "haar":
            return coeff if k_tot == 0 else 0.0 + 0.0j
        return coeff * np.exp(-0.5 * measure.t * k_tot ** 2)
    if route == "casimir":
        a, _ = loops_to_tensor(flat)
        t = moment_operator(rep, n, nprime, measure, budget).matrix.reshape(-1)
        # A has a (row, column) axis pair per slot; T all row axes, then all columns
        m = n + nprime
        a = a.transpose(list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2))).reshape(-1)
        return complex(np.dot(a.real, t), np.dot(a.imag, t))  # T is real
    source = route.partition(":")[2]
    forms = _forms(rep, source)
    wiring = _wiring(source, tuple(w.signs for w in flat), len(forms) > 1)
    m_ab = _contract(wiring, [c for w in flat for c, _ in w.factors], forms)
    scale = math.prod(w.scale for w in flat)
    return complex(scale * (_route_wg(rep, n, nprime, source).reshape(-1) @ m_ab))


def expect_product(items: Sequence[ProductItem], measure: MeasureSpec,
                   budget: int = DEFAULT_BUDGET, samples: int | None = None,
                   rng=None):
    """Expectation of a product of loops (and loop sums) under a measure.

    Haar and Brownian are exact; each plain product takes the route `_route`
    picks: Weingarten contraction against permutations or pairings, an
    exact zero, the character algebra for U(1) characters, or contraction
    against the Casimir-route moment operator.  The Wilson action has no exact route and is estimated by
    self-normalized importance sampling; it returns an `MCEstimate` and
    requires ``samples`` and ``rng``.
    """
    if measure.kind == "wilson":
        from .sampling import RngSpec, mc_expect

        if samples is None:
            raise ValueError("the Wilson measure needs an explicit sample count")
        if rng is None:
            rng = RngSpec(0)
        return mc_expect(list(items), measure, samples, rng)
    total = 0.0 + 0.0j
    for flat in _expand_items(items):
        if flat:
            total += _expect_flat(flat, measure, budget)
    return total
