"""Generalized Wilson loops, their merging and twisting, and their JSON form.

A loop is the function ``g -> scale * tr(c_1 rho(g^{s_1}) ... c_r rho(g^{s_r}))``
given by an alternating word of coefficient matrices ``c_i`` and signed group
slots ``s_i = +-1``.  Slot positions are 1-based.

Merging and twisting contract the split Casimir ``K = sum_a xi^a (x) xi^a``
into two slots.  Both read the family's completeness relation from the term
table in ``lgm.catalog`` and apply each term to the loop words directly:

* the word is cut open at a slot where a generator would go: after ``g``
  for a ``+`` slot, between ``c_j`` and ``g^{-1}`` for a ``-`` slot;
* ``swap`` joins the two open words of a merge into one trace, and splits a
  twist into a product of two traces;
* ``trace`` leaves a merge as the product of the two loops and a twist as
  the loop itself;
* ``transpose(F)`` reverses one open word, using ``(g^s)^T = F g^{-s} F^T``;
* ``insert(M)`` puts ``M`` at both cuts (``insert_generator``).

Every term carries the product of the two slot signs.  The sum over
generator insertions gives the same values and serves as the test oracle.

There is one surgery, with two letter kinds.  On numeric letters (complex
``d x d`` coefficients) it returns loops to evaluate or contract.  On
symbolic letters (`_Letters`: products of input letters ``c_k``, ``c_k^T``
and constant matrices ``F``, ``F^T``, ``psi_r`` of the completeness table)
it returns loops whose coefficients are recipes, and a word without a slot
closes to a symbolic trace (`_Scale`).  ``sampling._theorem_a_plan`` runs
it so once per loop shape and evaluates the recipes on stacked numeric
coefficients.

Group elements are unitary matrices in the group's own realization (1x1 for
the U(1) characters); the inverse is taken as the conjugate transpose.
Loops evaluate on a batch of draws in real arithmetic: a complex matrix
``x`` acts on the right of the interleaved ``float64`` view of a complex
stack through its real ``2d x 2d`` form ``S(x)`` (`_interleaved_form`),
which numpy multiplies several times faster than the complex stack at these
sizes.  An estimate prepares its draws once (`_Draws`) and hands them to
every loop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .catalog import GroupSpec, RepData, _completeness_terms, build_representation, check_one_group

__all__ = [
    "Loop",
    "LoopPair",
    "LoopSum",
    "loop",
    "linear_loop",
    "insert_generator",
    "merge_at",
    "total_merge",
    "twist_at",
    "total_twist",
    "laplacian",
    "conjugate_loop",
    "loop_to_json",
    "loop_from_json",
    "loopsum_to_json",
    "loopsum_from_json",
]


class _Batched:
    """One group element evaluated as a stack of one, through ``evaluate_batch``."""

    def evaluate(self, g: np.ndarray) -> complex:
        return complex(self.evaluate_batch(np.asarray(g, dtype=np.complex128)[None])[0])


def _interleaved_form(x: np.ndarray) -> np.ndarray:
    """The real ``(..., 2d, 2d)`` form ``S(x)`` of complex ``(..., d, d)`` matrices.

    Entry ``(j, k)`` of ``x`` becomes the block ``[[Re, Im], [-Im, Re]]``, so
    that ``(y.view(float64) @ S(x)).view(complex128) == y @ x`` for any
    C-contiguous complex ``y``: the real and imaginary parts interleave, as
    in memory, where ``tensor._real_form`` stacks them in two blocks.  ``x``
    may be any strided view.
    """
    *lead, d, _ = x.shape
    s = np.empty((*lead, d, 2, d, 2))
    s[..., 0, :, 0] = s[..., 1, :, 1] = x.real
    s[..., 0, :, 1] = x.imag
    np.negative(x.imag, out=s[..., 1, :, 0])
    return s.reshape(*lead, 2 * d, 2 * d)


class _Draws:
    """A stack of ``B`` group draws prepared for evaluating loops on it.

    It holds ``rho(g^{+-1})`` per ``(rep, sign)``, C-contiguous, and, on first
    use by a loop of 3 or more slots, that stack's real form
    (`_interleaved_form`), which costs twice the stack's bytes.  An estimate
    makes one for its draws and drops it when it returns.
    """

    def __init__(self, gs: np.ndarray):
        self.gs = np.asarray(gs, dtype=np.complex128)
        self._rho: dict = {}
        self._real: dict = {}

    def __len__(self) -> int:
        return self.gs.shape[0]

    def rho(self, rep: RepData, sign: int) -> np.ndarray:
        """``rho(g^sign)`` as a C-contiguous ``(B, d, d)`` stack; refuses draws of another shape."""
        key = (rep, sign)
        if key not in self._rho:
            d = rep.dim
            if self.gs.ndim != 3 or self.gs.shape[1:] != (d, d):
                raise ValueError(f"evaluate_batch: draws of shape {self.gs.shape} do not fit "
                                 f"{rep.spec.label()} loops, which need (B, {d}, {d})")
            self._rho[key] = np.ascontiguousarray(rep.rho(self.gs, sign))
        return self._rho[key]

    def real(self, rep: RepData, sign: int) -> np.ndarray:
        """The real form ``(B, 2d, 2d)`` of ``rho(g^sign)``, built on first use."""
        key = (rep, sign)
        if key not in self._real:
            self._real[key] = _interleaved_form(self.rho(rep, sign))
        return self._real[key]


def _prepared(gs) -> _Draws:
    return gs if isinstance(gs, _Draws) else _Draws(gs)


@dataclass(frozen=True)
class Loop(_Batched):
    """A generalized Wilson loop ``scale * tr(prod_i c_i rho(g^{s_i}))``."""

    rep: RepData
    factors: tuple[tuple[np.ndarray, int], ...]
    scale: complex = 1.0 + 0.0j
    signs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a loop needs at least one factor")
        frozen = []
        for coeff, sign in self.factors:
            if sign not in (1, -1):
                raise ValueError(f"slot sign must be +1 or -1, got {sign}")
            c = _checked_coeff(np.array(coeff, dtype=np.complex128), self.rep.dim)
            c.setflags(write=False)
            frozen.append((c, int(sign)))
        self.__dict__.update(factors=tuple(frozen), scale=_finite_scale(self.scale),
                             signs=tuple([s for _, s in frozen]))

    @classmethod
    def _derived(cls, rep: RepData, factors: tuple, scale: complex) -> "Loop":
        """A loop made by the surgery from checked loops and the completeness table, on
        numeric or symbolic letters, frozen in place: no copy, and only the scale is checked."""
        for c, _ in factors:
            c.setflags(write=False)
        w = object.__new__(cls)
        w.__dict__.update(rep=rep, factors=factors, scale=_finite_scale(scale),
                          signs=tuple([s for _, s in factors]))
        return w

    @property
    def n_slots(self) -> int:
        return len(self.factors)

    def scaled(self, c: complex) -> "Loop":
        return Loop._derived(self.rep, self.factors, self.scale * c)

    def rotated(self, k: int) -> "Loop":
        """Cyclic rotation of the factor word (same function by trace cyclicity)."""
        k %= self.n_slots
        return Loop._derived(self.rep, self.factors[k:] + self.factors[:k], self.scale)

    def evaluate_batch(self, gs: np.ndarray | _Draws) -> np.ndarray:
        """Evaluate on ``B`` group draws, a ``(B, d, d)`` stack or prepared `_Draws`;
        returns ``(B,)``.

        A one-slot loop is one matrix-vector product.  Otherwise the word is
        read as ``tr(P_1 ... P_r)`` with ``P_k = rho(g^{s_k}) c_{k+1}``, and
        every product runs in real arithmetic on the interleaved ``float64``
        view of the complex stacks: each ``rho c`` is one GEMM ``(B d, 2d) @
        S(c)`` against the real form of the coefficient, each middle slot one
        stacked matmul against the draws' ``S(rho(g^{s_k}))`` (`_Draws.real`),
        and the last slot closes with a trace.
        """
        draws = _prepared(gs)
        b, d, r = len(draws), self.rep.dim, self.n_slots
        if r == 1:  # tr(c g) = vec(g) . vec(c^T)
            (coeff, sign), = self.factors
            return self.scale * (draws.rho(self.rep, sign).reshape(b, d * d) @ coeff.T.reshape(d * d))
        real_c = _interleaved_form(np.stack([c for c, _ in self.factors]))

        def times_coeff(x: np.ndarray, k: int) -> np.ndarray:  # x @ c_k, x C-contiguous (B, d, d)
            return (x.reshape(b * d, d).view(np.float64) @ real_c[k % r]).view(np.complex128).reshape(b, d, d)

        acc = times_coeff(draws.rho(self.rep, self.signs[0]), 1)
        for k in range(1, r - 1):
            acc = (acc.view(np.float64) @ draws.real(self.rep, self.signs[k])).view(np.complex128)
            acc = times_coeff(acc, k + 1)
        last = times_coeff(draws.rho(self.rep, self.signs[-1]), r)
        return self.scale * np.einsum("bij,bji->b", acc, last)


@dataclass(frozen=True)
class LoopPair(_Batched):
    """A product of two loops, kept split: ``g -> left(g) * right(g)``."""

    left: Loop
    right: Loop

    def evaluate_batch(self, gs: np.ndarray | _Draws) -> np.ndarray:
        draws = _prepared(gs)
        return self.left.evaluate_batch(draws) * self.right.evaluate_batch(draws)


Term = Union[Loop, LoopPair]


@dataclass(frozen=True)
class LoopSum(_Batched):
    """A formal finite sum of loops and split loop products."""

    terms: tuple[Term, ...] = ()

    def evaluate_batch(self, gs: np.ndarray | _Draws) -> np.ndarray:
        draws = _prepared(gs)
        out = np.zeros(len(draws), dtype=np.complex128)
        for t in self.terms:
            out = out + t.evaluate_batch(draws)
        return out

    def __add__(self, other: "LoopSum") -> "LoopSum":
        return LoopSum(self.terms + other.terms)


def _checked_coeff(c: np.ndarray, d: int) -> np.ndarray:
    if isinstance(c, _Letters):  # a product of checked letters, with no number yet
        return c
    if c.shape != (d, d):
        raise ValueError(f"coefficient shape {c.shape} does not match rep dim {d}")
    if not np.isfinite(c).all():
        raise ValueError("loop coefficients must be finite")
    return c


def _finite_scale(scale: complex) -> complex:
    if isinstance(scale, _Scale):  # table coefficients and traces of checked letters
        return scale
    scale = complex(scale)
    if not cmath.isfinite(scale):
        raise ValueError(f"loop scale must be finite, got {scale}")
    return scale


class _Letters:
    """A symbolic coefficient: the product of its ``atoms``, in order.

    An atom is an input letter, ``2k`` for ``c_k`` and ``2k + 1`` for
    ``c_k^T``, or a constant matrix from the completeness table; constants
    that meet are multiplied out.  It has the part of the ndarray interface
    the surgery uses: ``@`` on either side, ``.T``, ``.trace()`` and
    ``.setflags()``.
    """

    __slots__ = ("atoms",)
    __array_ufunc__ = None  # so ``matrix @ letters`` falls through to ``__rmatmul__``

    def __init__(self, atoms: tuple):
        self.atoms = atoms

    def __matmul__(self, other) -> "_Letters":
        return _Letters(_joined(self.atoms, _atoms(other)))

    def __rmatmul__(self, other) -> "_Letters":
        return _Letters(_joined(_atoms(other), self.atoms))

    @property
    def T(self) -> "_Letters":
        return _Letters(tuple(a ^ 1 if isinstance(a, int) else a.T for a in reversed(self.atoms)))

    def trace(self) -> "_Scale":
        return _Scale(1.0, (self,))

    def setflags(self, write: bool) -> None:
        """Nothing to freeze: atoms are never written."""


def _atoms(x) -> tuple:
    return x.atoms if isinstance(x, _Letters) else (x,)


def _joined(left: tuple, right: tuple) -> tuple:
    """The atoms of ``left @ right``, the two constants where they meet multiplied out."""
    if isinstance(left[-1], np.ndarray) and isinstance(right[0], np.ndarray):
        return left[:-1] + (left[-1] @ right[0],) + right[1:]
    return left + right


@dataclass(frozen=True)
class _Scale:
    """A symbolic scale: ``number`` times the traces of the `_Letters` in ``traces``."""

    number: complex
    traces: tuple = ()

    def __mul__(self, other) -> "_Scale":
        if isinstance(other, _Scale):
            return _Scale(self.number * other.number, self.traces + other.traces)
        return _Scale(self.number * other, self.traces)

    __rmul__ = __mul__


def loop(rep: RepData, coeffs: Sequence[np.ndarray], signs: Sequence[int],
         scale: complex = 1.0) -> Loop:
    if len(coeffs) != len(signs):
        raise ValueError("coeffs and signs must have equal length")
    return Loop(rep, tuple(zip(coeffs, signs)), scale)


def linear_loop(rep: RepData, coeff: np.ndarray, sign: int = 1, scale: complex = 1.0) -> Loop:
    return Loop(rep, ((coeff, sign),), scale)


def _check_slot(w: Loop, j: int) -> None:
    if not 1 <= j <= w.n_slots:
        raise ValueError(f"slot position {j} out of range 1..{w.n_slots}")


def insert_generator(w: Loop, j: int, x: np.ndarray) -> Loop:
    """Insert the algebra element ``x`` at slot ``j`` (after ``g``, before ``g^{-1}``).

    Only ``x`` and the coefficient it multiplies are new, so only they are checked.
    """
    _check_slot(w, j)
    x = _checked_coeff(np.asarray(x, dtype=np.complex128), w.rep.dim)
    k = j - 1
    if w.signs[k] == 1:
        k = j % w.n_slots
        product = x @ w.factors[k][0]
    else:
        product = w.factors[k][0] @ x
    factors = list(w.factors)
    factors[k] = (_checked_coeff(product, w.rep.dim), w.factors[k][1])
    return Loop._derived(w.rep, tuple(factors), w.scale)


def _cut(w: Loop, j: int) -> int:
    """Where ``insert_generator`` puts a generator, in the word ``c_1, s_1, c_2, ...``."""
    _check_slot(w, j)
    return 2 * j - (w.signs[j - 1] == -1)


def _word(w: Loop, j: int) -> list:
    """The loop's word cut open at slot ``j``: ``w = w.scale * tr(word)``.

    Its letters are coefficient matrices and slot signs.
    """
    letters = [x for factor in w.factors for x in factor]
    cut = _cut(w, j)
    return letters[cut:] + letters[:cut]


def _close(rep: RepData, letters: list, scale: complex) -> Loop | complex:
    """``scale * tr(word)`` as a loop, or as a number if the word has no slot (a `_Scale`
    on symbolic letters)."""
    factors: list = []
    acc = None
    for x in letters:
        if isinstance(x, int):
            factors.append((np.eye(rep.dim, dtype=np.complex128) if acc is None else acc, x))
            acc = None
        else:
            acc = x if acc is None else acc @ x
    if not factors:
        return scale * acc.trace()
    if acc is not None:  # the word's tail wraps round to its head
        factors[0] = (acc @ factors[0][0], factors[0][1])
    return Loop._derived(rep, tuple(factors), scale)


def _transposed(letters: list, f: np.ndarray) -> list:
    """The word of ``X^T``, from ``(g^s)^T = F g^{-s} F^T``."""
    out: list = []
    for x in reversed(letters):
        out.extend((f, -x, f.T) if isinstance(x, int) else (x.T,))
    return out


def merge_at(w1: Loop, j: int, w2: Loop, j2: int) -> LoopSum:
    """Merging of two loops at slots ``j`` of ``w1`` and ``j2`` of ``w2``.

    Equals ``sign * sum_a (w1 with xi^a at j) x (w2 with xi^a at j2)``, with
    ``sign`` the product of the two slot signs, and returns one term per
    completeness term: a loop (swap, transpose) or a pair (trace, insert).
    """
    check_one_group((w1.rep.spec, w2.rep.spec))
    x1, x2 = _word(w1, j), _word(w2, j2)
    sgn = w1.signs[j - 1] * w2.signs[j2 - 1]
    joined = sgn * w1.scale * w2.scale
    terms: list[Term] = []
    for (coef, kind, m1), (_, _, m2) in zip(_completeness_terms(w1.rep.spec),
                                            _completeness_terms(w2.rep.spec)):
        if kind == "swap":  # tr(X1 X2)
            terms.append(_close(w1.rep, x1 + x2, coef * joined))
        elif kind == "transpose":  # tr(X1 F X2^T F^T)
            terms.append(_close(w1.rep, x1 + [m1] + _transposed(x2, m1) + [m1.T], coef * joined))
        elif kind == "trace":
            terms.append(LoopPair(w1.scaled(sgn * coef), w2))
        else:
            terms.append(LoopPair(insert_generator(w1, j, m1).scaled(sgn * coef),
                                  insert_generator(w2, j2, m2)))
    return LoopSum(tuple(terms))


def total_merge(w1: Loop, w2: Loop) -> LoopSum:
    """Merging summed over all slot pairs; equals ``<dW1, dW2>`` pointwise."""
    return LoopSum(tuple([t for j in range(1, w1.n_slots + 1) for j2 in range(1, w2.n_slots + 1)
                          for t in merge_at(w1, j, w2, j2).terms]))


def twist_at(w: Loop, j: int, j2: int) -> LoopSum:
    """Twisting of a loop at two distinct slots of the same trace.

    With the word cut into ``A`` (from slot ``j`` to ``j2``) and ``B`` (the
    rest), each completeness term gives ``tr(A) tr(B)`` (swap), the loop
    itself (trace), ``tr(F A^T F B)`` (transpose) or ``tr(M A M B)`` (insert).
    """
    x = _word(w, j)
    q = (_cut(w, j2) - _cut(w, j)) % len(x)
    if j == j2:
        raise ValueError("twisting requires two distinct slot positions")
    sgn = w.signs[j - 1] * w.signs[j2 - 1]
    a, b = x[:q], x[q:]
    terms: list[Term] = []
    for coef, kind, m in _completeness_terms(w.rep.spec):
        scale = sgn * coef * w.scale
        if kind == "swap":  # tr(A) tr(B); a piece without a slot is a number
            left, right = _close(w.rep, a, scale), _close(w.rep, b, 1.0)
            if not isinstance(left, Loop):
                terms.append(right.scaled(left))
            elif not isinstance(right, Loop):
                terms.append(left.scaled(right))
            else:
                terms.append(LoopPair(left, right))
        elif kind == "transpose":
            terms.append(_close(w.rep, [m] + _transposed(a, m) + [m] + b, scale))
        elif kind == "trace":
            terms.append(w.scaled(sgn * coef))
        else:
            terms.append(insert_generator(insert_generator(w, j, m), j2, m).scaled(sgn * coef))
    return LoopSum(tuple(terms))


def total_twist(w: Loop) -> LoopSum:
    """Twisting summed over ordered pairs of distinct slots."""
    slots = range(1, w.n_slots + 1)
    return LoopSum(tuple([t for j in slots for j2 in slots if j != j2 for t in twist_at(w, j, j2).terms]))


def laplacian(w: Loop) -> LoopSum:
    """Laplace-Beltrami operator on a loop: ``lambda * n * w`` plus the total twist."""
    return LoopSum((w.scaled(w.rep.lam * w.n_slots),) + total_twist(w).terms)


def conjugate_loop(w: Loop) -> Loop:
    """The loop computing the complex conjugate, ``g -> conj(w(g))``.

    Transposing the trace reverses the word and daggers its pieces:
    coefficients become ``c_k^dagger`` in reverse order and every slot sign
    flips (the sign sequence also shifts by one step relative to the
    coefficients).
    """
    r = w.n_slots
    factors = tuple((w.factors[(r - 1 - k) % r][0].conj().T, -w.factors[(r - 2 - k) % r][1])
                    for k in range(r))
    return Loop._derived(w.rep, factors, np.conj(w.scale))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=np.complex128)


def loop_to_json(w: Loop) -> dict:
    return {
        "rep": {"family": w.rep.spec.family, "n": w.rep.spec.n},
        "scale": [float(w.scale.real), float(w.scale.imag)],
        "factors": [
            {"coeff": _matrix_to_json(c), "sign": s} for c, s in w.factors
        ],
    }


def loop_from_json(doc: dict) -> Loop:
    rep = build_representation(GroupSpec(doc["rep"]["family"], int(doc["rep"].get("n", 0))))
    scale = complex(*doc.get("scale", [1.0, 0.0]))
    coeffs = [_matrix_from_json(f["coeff"]) for f in doc["factors"]]
    signs = [int(f["sign"]) for f in doc["factors"]]
    return loop(rep, coeffs, signs, scale)


def loopsum_to_json(s: LoopSum) -> list:
    out = []
    for t in s.terms:
        if isinstance(t, LoopPair):
            out.append({"pair": [loop_to_json(t.left), loop_to_json(t.right)]})
        else:
            out.append(loop_to_json(t))
    return out


def loopsum_from_json(docs: list) -> LoopSum:
    terms: list[Term] = []
    for doc in docs:
        if "pair" in doc:
            terms.append(LoopPair(loop_from_json(doc["pair"][0]), loop_from_json(doc["pair"][1])))
        else:
            terms.append(loop_from_json(doc))
    return LoopSum(tuple(terms))
