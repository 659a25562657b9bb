"""Generalized Wilson loops, their merging and twisting, and loop flattening.

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

Group elements are unitary matrices in the group's own realization (1x1 for
the U(1) characters); the inverse is taken as the conjugate transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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
    "loops_to_tensor",
    "loop_to_json",
    "loop_from_json",
    "loopsum_to_json",
    "loopsum_from_json",
]


@dataclass(frozen=True)
class Loop:
    """A generalized Wilson loop ``scale * tr(prod_i c_i rho(g^{s_i}))``."""

    rep: RepData
    factors: tuple[tuple[np.ndarray, int], ...]
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a loop needs at least one factor")
        d = self.rep.dim
        frozen = []
        for coeff, sign in self.factors:
            c = np.array(coeff, dtype=np.complex128)
            if c.shape != (d, d):
                raise ValueError(f"coefficient shape {c.shape} does not match rep dim {d}")
            if sign not in (1, -1):
                raise ValueError(f"slot sign must be +1 or -1, got {sign}")
            c.setflags(write=False)
            frozen.append((c, int(sign)))
        object.__setattr__(self, "factors", tuple(frozen))
        object.__setattr__(self, "scale", complex(self.scale))

    @property
    def n_slots(self) -> int:
        return len(self.factors)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.factors)

    def scaled(self, c: complex) -> "Loop":
        return Loop(self.rep, self.factors, self.scale * c)

    def rotated(self, k: int) -> "Loop":
        """Cyclic rotation of the factor word (same function by trace cyclicity)."""
        k %= self.n_slots
        return Loop(self.rep, self.factors[k:] + self.factors[:k], self.scale)

    def evaluate(self, g: np.ndarray) -> complex:
        return complex(self.evaluate_batch(np.asarray(g, dtype=np.complex128)[None])[0])

    def evaluate_batch(self, gs: np.ndarray) -> np.ndarray:
        """Evaluate on a stack ``(B, m, m)`` of group elements; returns ``(B,)``.

        The word is rotated to ``tr(P_1 ... P_r)`` with ``P_k = rho(g^{s_k}) c_{k+1}``,
        so each ``P_k`` is one matrix product on the ``(B d, d)`` reshape of
        the stack, and a one-slot loop is one matrix-vector product.
        """
        gs = np.asarray(gs, dtype=np.complex128)
        b, d = gs.shape[0], self.rep.dim
        rho = {s: self.rep.rho(gs, s) for s in set(self.signs)}
        if self.n_slots == 1:  # tr(c g) = vec(g) . vec(c^T)
            (coeff, sign), = self.factors
            return self.scale * (rho[sign].reshape(b, d * d) @ coeff.T.reshape(d * d))
        nxt = self.factors[1:] + self.factors[:1]
        ps = [(rho[sign].reshape(b * d, d) @ coeff).reshape(b, d, d)
              for (_, sign), (coeff, _) in zip(self.factors, nxt)]
        acc = ps[0]
        for p in ps[1:-1]:
            acc = acc @ p
        return self.scale * np.einsum("bij,bji->b", acc, ps[-1])


@dataclass(frozen=True)
class LoopPair:
    """A product of two loops, kept split: ``g -> left(g) * right(g)``."""

    left: Loop
    right: Loop

    def evaluate(self, g: np.ndarray) -> complex:
        return self.left.evaluate(g) * self.right.evaluate(g)

    def evaluate_batch(self, gs: np.ndarray) -> np.ndarray:
        return self.left.evaluate_batch(gs) * self.right.evaluate_batch(gs)


Term = Union[Loop, LoopPair]


@dataclass(frozen=True)
class LoopSum:
    """A formal finite sum of loops and split loop products."""

    terms: tuple[Term, ...] = ()

    def evaluate(self, g: np.ndarray) -> complex:
        return complex(sum((t.evaluate(g) for t in self.terms), 0.0 + 0.0j))

    def evaluate_batch(self, gs: np.ndarray) -> np.ndarray:
        gs = np.asarray(gs, dtype=np.complex128)
        out = np.zeros(gs.shape[:-2], dtype=np.complex128)
        for t in self.terms:
            out = out + t.evaluate_batch(gs)
        return out

    def __add__(self, other: "LoopSum") -> "LoopSum":
        return LoopSum(self.terms + other.terms)


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
    """Insert the algebra element ``x`` at slot ``j`` (after ``g``, before ``g^{-1}``)."""
    _check_slot(w, j)
    jj = j - 1
    coeffs = [c for c, _ in w.factors]
    signs = list(w.signs)
    if signs[jj] == 1:
        nxt = (jj + 1) % w.n_slots
        coeffs[nxt] = x @ coeffs[nxt]
    else:
        coeffs[jj] = coeffs[jj] @ x
    return loop(w.rep, coeffs, signs, w.scale)


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
    """``scale * tr(word)`` as a loop, or as a number if the word has no slot."""
    factors: list = []
    acc = None
    for x in letters:
        if isinstance(x, int):
            factors.append((np.eye(rep.dim) if acc is None else acc, x))
            acc = None
        else:
            acc = x if acc is None else acc @ x
    if not factors:
        return scale * complex(np.trace(acc))
    if acc is not None:  # the word's tail wraps round to its head
        factors[0] = (acc @ factors[0][0], factors[0][1])
    return Loop(rep, tuple(factors), scale)


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
    out = LoopSum()
    for j in range(1, w1.n_slots + 1):
        for j2 in range(1, w2.n_slots + 1):
            out = out + merge_at(w1, j, w2, j2)
    return out


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
    out = LoopSum()
    for j in range(1, w.n_slots + 1):
        for j2 in range(1, w.n_slots + 1):
            if j != j2:
                out = out + twist_at(w, j, j2)
    return out


def laplacian(w: Loop) -> LoopSum:
    """Laplace-Beltrami operator on a loop: ``lambda * n * w`` plus the total twist."""
    head = LoopSum((w.scaled(w.rep.lam * w.n_slots),))
    return head + total_twist(w)


def conjugate_loop(w: Loop) -> Loop:
    """The loop computing the complex conjugate, ``g -> conj(w(g))``.

    Transposing the trace reverses the word and daggers its pieces:
    coefficients become ``c_k^dagger`` in reverse order and every slot sign
    flips (the sign sequence also shifts by one step relative to the
    coefficients).
    """
    r = w.n_slots
    coeffs = [w.factors[(r - 1 - k) % r][0].conj().T for k in range(r)]
    signs = [-w.factors[(r - 2 - k) % r][1] for k in range(r)]
    return loop(w.rep, coeffs, signs, np.conj(w.scale))


# ---------------------------------------------------------------------------
# flattening products of loops into a coefficient tensor
# ---------------------------------------------------------------------------


def loops_to_tensor(loops: Iterable[Loop]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Flatten a product of loops into a coefficient tensor.

    Returns ``(a, pattern)`` where ``pattern`` lists the slot signs in the
    canonical order "all + slots first (in order of appearance), then all -
    slots", and ``a`` carries one ``(d, d)`` axis pair per slot in that
    order.  For a + slot the pair is ``(i, j)`` contracting against
    ``rho(g)_{ij}``; for a - slot it is ``(i', j')`` contracting against
    ``rho(g^{-1})_{j' i'}``.  Contracting ``a`` with those slot matrices
    reproduces the product of loop values.
    """
    loops = list(loops)
    if not loops:
        raise ValueError("need at least one loop")
    check_one_group(w.rep.spec for w in loops)

    acc = np.array(1.0 + 0.0j)
    all_signs: list[int] = []
    for w in loops:
        r = w.n_slots
        operands = []
        subscripts = []
        for k2 in range(r):
            operands.append(w.factors[k2][0])
            subscripts.append([2 * k2, 2 * k2 + 1])  # (a_k, b_k)
        out: list[int] = []
        for k2 in range(r):
            b_k = 2 * k2 + 1
            a_next = 2 * ((k2 + 1) % r)
            if w.factors[k2][1] == 1:
                out.extend([b_k, a_next])
            else:
                out.extend([a_next, b_k])
        args: list = []
        for op, sub in zip(operands, subscripts):
            args.extend([op, sub])
        args.append(out)
        t = np.einsum(*args) * w.scale
        acc = np.multiply.outer(acc, t)
        all_signs.extend(w.signs)

    plus = [s for s, sg in enumerate(all_signs) if sg == 1]
    minus = [s for s, sg in enumerate(all_signs) if sg == -1]
    perm: list[int] = []
    for s in plus + minus:
        perm.extend([2 * s, 2 * s + 1])
    a = np.transpose(acc, perm) if perm else acc
    pattern = tuple([1] * len(plus) + [-1] * len(minus))
    return np.ascontiguousarray(a), pattern


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
