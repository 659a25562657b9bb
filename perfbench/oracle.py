"""Independent references for the benchmark's checks.

Nothing here calls lgm's moment, loop or sampling code.  The references are

* an exact Haar oracle: the Haar average of ``g^(x)n (x) conj(g)^(x)n'`` is
  the orthogonal projector onto the invariant tensors, built here from an
  explicit spanning set (permutations, pairings, epsilon and octonion
  tensors) and its Gram matrix, then contracted with the loop words;
* closed forms: the dimension of the invariants, which equals the Haar
  expectation of the character product ``(tr g)^n (tr g^-1)^n'``, and the
  U(1) character algebra;
* one-plaquette Wilson expectations by quadrature over the eigenvalue
  density, for class-function actions.

A loop is read from its public fields only: ``scale``, ``factors`` (pairs of
coefficient matrix and slot sign) and ``rep.spec``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# dim of the invariants of V^(x)n (x) V*^(x)n' for the haar_cold shapes: the
# Haar mean of the character product.  U(N): k! for k <= N (Schur-Weyl);
# SU(3) (3,0): the epsilon tensor; SO(4): V(x)V = 1+9+3+3, so 4 at 4 slots;
# SO(5): V(x)V = 1+14+10, so 3; Sp(2): V(x)V = 1+5+10, so 3; G2: V(x)V =
# 1+7+14+27, so 1 at (2,0), 4 at 4 slots, and the octonion 3-form at (3,0).
INVARIANT_DIMS = {
    ("su", 3, 3, 0): 1,
    ("u", 3, 2, 2): 2,
    ("sp", 2, 2, 2): 3,
    ("so", 4, 2, 2): 4,
    ("so", 5, 4, 0): 3,
    ("g2", 0, 2, 0): 1,
    ("g2", 0, 3, 0): 1,
    ("g2", 0, 4, 0): 4,
    ("u", 3, 3, 3): 6,
    ("u", 4, 3, 3): 6,
}


def _levi_civita(d: int) -> np.ndarray:
    eps = np.zeros((d,) * d)
    for perm in itertools.permutations(range(d)):
        inv = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        eps[perm] = -1.0 if inv % 2 else 1.0
    return eps


def _pairings(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        for tail in _pairings(rest[:k] + rest[k + 1:]):
            yield ((first, partner),) + tail


def _outer(factors, m: int, d: int) -> np.ndarray:
    """Tensor over m slots from (matrix or tensor, slot list) factors."""
    args: list = []
    for t, slots in factors:
        args.extend([t, list(slots)])
    args.append(list(range(m)))
    return np.einsum(*args).reshape((d,) * m)


def invariants(family: str, n_group: int, d: int, signs: tuple[int, ...],
               psi: np.ndarray | None = None) -> np.ndarray:
    """Spanning set of the invariants of g^(x)+slots (x) conj(g)^(x)-slots.

    Returns an ``(r, d, ..., d)`` array, slot axes in the order of ``signs``.
    Raises ValueError for a shape whose spanning set is not written here.
    """
    if (family, n_group) == ("su", 2):
        family = "sp"  # SU(2) = Sp(1) as matrix groups: J is the epsilon tensor
    m = len(signs)
    plus = [s for s in range(m) if signs[s] == 1]
    minus = [s for s in range(m) if signs[s] == -1]
    eye = np.eye(d)
    vecs = []
    if family in ("u", "su") and len(plus) == len(minus) and (family == "u" or len(plus) < n_group):
        for sigma in itertools.permutations(range(len(minus))):
            vecs.append(_outer([(eye, (plus[k], minus[sigma[k]])) for k in range(len(plus))], m, d))
    elif family == "su" and not minus and len(plus) == n_group:
        vecs.append(_levi_civita(d).reshape((d,) * m))
    elif family in ("so", "g2", "sp"):
        # SO and G2 are real, conj(g) = g, so every pair carries delta.  Sp
        # pairs two slots of one kind with J (g J g^T = J), mixed ones with delta.
        if family == "so" and m > n_group and (m - n_group) % 2 == 0 or family == "g2" and m > 4:
            raise ValueError(f"no spanning set written for {family}({n_group}) with {m} slots")
        j = _symplectic(d) if family == "sp" else eye
        if m % 2 == 0:
            for match in _pairings(tuple(range(m))):
                vecs.append(_outer([(j if signs[p] == signs[q] else eye, (p, q))
                                    for p, q in match], m, d))
        if family == "so" and m == n_group:
            vecs.append(_levi_civita(d))
        if family == "g2" and m == 3:
            vecs.append(psi.copy())
        if family == "g2" and m == 4:
            vecs.append(np.einsum("abe,cde->abcd", psi, psi))
    if not vecs:
        raise ValueError(f"no spanning set for {family}({n_group}) with signs {signs}")
    return np.array(vecs, dtype=np.complex128)


def _symplectic(d: int) -> np.ndarray:
    n = d // 2
    j = np.zeros((d, d))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def loop_words(w):
    """Split a loop-product item (Loop, LoopPair or LoopSum) into plain products."""
    if hasattr(w, "terms"):
        out = []
        for term in w.terms:
            out.extend(loop_words(term))
        return out
    if hasattr(w, "left"):
        return [[w.left, w.right]]
    return [[w]]


def expand(items) -> list[list]:
    """Multilinear expansion of a product of loops and loop sums."""
    combos: list[list] = [[]]
    for item in items:
        combos = [c + words for c in combos for words in loop_words(item)]
    return combos


def _coefficient_bound(flat) -> float:
    b = 1.0
    for w in flat:
        b *= abs(w.scale) * math.prod(float(np.linalg.norm(c)) for c, _ in w.factors)
    return b


def haar_exact(items, invariant_fn) -> tuple[complex, float]:
    """Exact Haar expectation of a product of loops / loop sums.

    ``invariant_fn(signs)`` returns the spanning set for a slot-sign pattern.
    Returns the value and a coefficient-norm scale for tolerances.
    """
    total, scale = 0.0 + 0.0j, 0.0
    for flat in expand(items):
        value, bound = _haar_flat(flat, invariant_fn)
        total += value
        scale += bound
    return total, scale


def _haar_flat(flat, invariant_fn) -> tuple[complex, float]:
    bound = _coefficient_bound(flat)
    if all(w.rep.spec.family == "u1power" for w in flat):
        k = sum(w.rep.spec.n * sum(s for _, s in w.factors) for w in flat)
        coeff = math.prod(w.scale * math.prod(complex(c[0, 0]) for c, _ in w.factors) for w in flat)
        return (coeff if k == 0 else 0.0j), bound
    signs = tuple(s for w in flat for _, s in w.factors)
    vecs = invariant_fn(signs)
    r, m = vecs.shape[0], len(signs)
    flatv = vecs.reshape(r, -1)
    gram = np.conj(flatv) @ flatv.T
    ginv = np.linalg.pinv(gram, rcond=1e-10, hermitian=True)
    # index labels: slot s has row x_s (axis 2s) and column y_s (axis 2s+1)
    # of its matrix M_s.  A + slot is g[x, y]; a - slot is g^-1[x, y] =
    # conj(g)[y, x].  So the "row" index of the moment operator is x_s for +
    # and y_s for -, the "column" index the other one.
    args: list = []
    slot = 0
    for w in flat:
        first = slot
        for j, (c, _) in enumerate(w.factors):
            prev_y = 2 * (first + (j - 1) % len(w.factors)) + 1
            args.extend([c, [prev_y, 2 * (first + j)]])
        slot += len(w.factors)
        args.extend([np.array(w.scale), []])
    rows = [2 * s if signs[s] == 1 else 2 * s + 1 for s in range(m)]
    cols = [2 * s + 1 if signs[s] == 1 else 2 * s for s in range(m)]
    kk, ll = 2 * m, 2 * m + 1
    args.extend([vecs, [kk] + rows, np.conj(vecs), [ll] + cols, ginv, [kk, ll], []])
    return complex(np.einsum(*args, optimize="greedy")), bound


# ---------------------------------------------------------------------------
# one-plaquette Wilson references
# ---------------------------------------------------------------------------

_GRID = 240


def _eigen_grid(family: str, n: int):
    """Eigenvalue tori with Haar class density, as (eigenvalues, weights)."""
    th = 2.0 * np.pi * np.arange(_GRID) / _GRID
    if family == "u" and n == 2:
        a, b = np.meshgrid(th, th, indexing="ij")
        z = np.stack([np.exp(1j * a), np.exp(1j * b)], axis=-1)
        dens = np.abs(z[..., 0] - z[..., 1]) ** 2
    elif family == "su" and n == 3:
        a, b = np.meshgrid(th, th, indexing="ij")
        z = np.stack([np.exp(1j * a), np.exp(1j * b), np.exp(-1j * (a + b))], axis=-1)
        dens = (np.abs(z[..., 0] - z[..., 1]) * np.abs(z[..., 0] - z[..., 2])
                * np.abs(z[..., 1] - z[..., 2])) ** 2
    elif (family, n) in (("sp", 1), ("su", 2)):
        # Sp(1) = SU(2): eigenvalues e^{+-i th}, density sin^2
        z = np.stack([np.exp(1j * th), np.exp(-1j * th)], axis=-1)
        dens = np.sin(th) ** 2
    elif family == "so" and n == 3:
        z = np.stack([np.ones_like(th), np.exp(1j * th), np.exp(-1j * th)], axis=-1)
        dens = 1.0 - np.cos(th)
    else:
        raise ValueError(f"no eigenvalue density written for {family}({n})")
    return z.reshape(-1, z.shape[-1]), dens.reshape(-1)


def wilson_trace_mean(family: str, n: int, beta: float, plaquettes: int, power: int = 1) -> complex:
    """``E[tr g^power]`` under the weight ``exp(beta * plaquettes * Re tr g)``.

    The weight is a class function, so the expectation reduces to an integral
    over the eigenvalue torus; the periodic trapezoid rule converges
    geometrically for these smooth integrands.
    """
    z, dens = _eigen_grid(family, n)
    tr = z.sum(axis=1)
    expo = beta * plaquettes * tr.real
    w = dens * np.exp(expo - expo.max())
    return complex(np.sum(w * np.sum(z ** power, axis=1)) / np.sum(w))
