"""Numerical linear-algebra kernels and the sparse JSON form of tensors.

All heavy lifting is delegated to LAPACK/BLAS through numpy.  Tensors are
C-contiguous ndarrays in row-major multi-index order, float64 for invariant
theory (Casimirs, projectors, Gram and Weingarten matrices) and complex128
for group elements and loop coefficients.  The spectral routine symmetrizes
its input, ``(M + M*) / 2``, which absorbs Hermiticity roundoff.  Both
kernels keep a real input real: the skew exponential is a real Taylor
polynomial with scaling and squaring, and runs a complex input through its
interleaved real 2n x 2n form ``S(x)`` (`_interleaved_form`).  That form
lives here, and is the one real form of complex matrices: loop evaluation
uses it, and so does the Brownian walk, which multiplies its steps in it
and calls the exponential for the algebras of rank two and more.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pseudoinverse",
    "expm_skew_batch",
    "tensor_to_json",
]

#: entries below this magnitude are dropped from the sparse JSON form
JSON_PRUNE_TOL = 1e-14

#: the degree-12 Taylor polynomial of exp as three cubics in ``y`` and the
#: last one's ``y^4`` term: row k holds the coefficients of ``1, y, y^2, y^3, y^4``
#: in ``b_k``, and ``exp(y) ~ b_0 + y^4 (b_1 + y^4 b_2)`` (Paterson-Stockmeyer)
_TAYLOR = [1.0 / math.factorial(j) for j in range(13)]
_EXP_TAYLOR = np.array([_TAYLOR[0:4] + [0.0], _TAYLOR[4:8] + [0.0], _TAYLOR[8:13]])


def pseudoinverse(m, rel_cutoff: float = 1e-8) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a square Hermitian matrix (real if ``m`` is).

    The input is symmetrized first; the caller asserts Hermiticity up to
    roundoff.  Eigenvalues with ``|w| < rel_cutoff * max|w|`` are treated as
    exactly zero, so rank decisions are explicit rather than left to
    ``np.linalg``.
    """
    if not 0.0 < rel_cutoff < 1.0:
        raise ValueError(f"rel_cutoff must lie in (0, 1), got {rel_cutoff}")
    mat = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"pseudoinverse requires a square matrix, got shape {mat.shape}")
    w, u = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    wmax = np.max(np.abs(w)) if w.size else 0.0
    inv = np.zeros_like(w)
    if wmax > 0.0:
        keep = np.abs(w) >= rel_cutoff * wmax
        inv[keep] = 1.0 / w[keep]
    return (u * inv) @ u.conj().T


def expm_skew_batch(x: np.ndarray) -> np.ndarray:
    """Exponentials of a stack ``(..., n, n)`` of skew-Hermitian matrices.

    The Brownian-motion integrator calls it once per block of steps, on
    thousands of small matrices at a time, for every algebra that is not
    rank one (rank-one steps have a closed form there).  A real (antisymmetric) stack
    gives a real stack.  A complex stack, 1 x 1 included, is exponentiated
    in its interleaved real form, ``exp S(x) = S(exp x)``, and read back.
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return _expm_real(x.astype(np.float64, copy=False))
    return _from_interleaved(_expm_real(_interleaved_form(x)))


def _interleaved_form(x: np.ndarray) -> np.ndarray:
    """The real ``(..., 2d, 2d)`` form ``S(x)`` of complex ``(..., d, d)`` matrices, ``x`` any view.

    Entry ``(j, k)`` of ``x`` becomes the block ``[[Re, Im], [-Im, Re]]``, so that
    ``(y.view(float64) @ S(x)).view(complex128) == y @ x`` for C-contiguous complex ``y``: real
    and imaginary parts interleave, as in memory.  ``S(x) S(y) = S(xy)``, ``S(x^H) = S(x)^T``.
    """
    *lead, d, _ = x.shape
    s = np.empty((*lead, d, 2, d, 2))
    s[..., 0, :, 0] = s[..., 1, :, 1] = x.real
    s[..., 0, :, 1] = x.imag
    np.negative(x.imag, out=s[..., 1, :, 0])
    return s.reshape(*lead, 2 * d, 2 * d)


def _from_interleaved(s: np.ndarray) -> np.ndarray:
    """The complex ``x`` of ``s = S(x)``: the even rows of ``s``, viewed as complex."""
    return np.ascontiguousarray(s[..., ::2, :]).view(np.complex128)


def _expm_real(y: np.ndarray) -> np.ndarray:
    """Scaling and squaring on a real stack: halve ``s`` times until the
    largest Frobenius norm is at most 1/4, where the degree-12 Taylor
    polynomial is exact to roundoff (remainder below 3e-18), evaluate it
    from the powers ``y^0 .. y^4`` by two Horner steps in ``y^4``, and
    square ``s`` times."""
    norm = math.sqrt(np.max(np.einsum("...ij,...ij->...", y, y), initial=0.0))
    # a non-finite stack is left unscaled, so it comes out non-finite instead of raising
    s = max(0, math.ceil(math.log2(4.0 * norm))) if 0.0 < norm < math.inf else 0
    powers = np.empty((5,) + y.shape)
    powers[0] = np.eye(y.shape[-1])
    powers[1] = np.ldexp(y, -s)
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    b0, b1, b2 = np.tensordot(_EXP_TAYLOR, powers, axes=1)  # one GEMM over all entries
    e = b0 + powers[4] @ (b1 + powers[4] @ b2)
    for _ in range(s):
        e = e @ e
    return e


def tensor_to_json(arr) -> dict:
    """Sparse JSON form: shape plus the entries above the pruning tolerance.

    Entries are listed in row-major order of their multi-index; re/im are
    emitted as Python floats and round-trip exactly (im is 0 for a real
    array, which is read without a complex copy).
    """
    a = np.asarray(arr)
    entries = []
    flat = a.reshape(-1)
    keep = np.flatnonzero(np.abs(flat) >= JSON_PRUNE_TOL)
    for pos in keep:
        idx = np.unravel_index(pos, a.shape) if a.ndim else ()
        v = flat[pos]
        entries.append(
            {"idx": [int(i) for i in idx], "re": float(v.real), "im": float(v.imag)}
        )
    return {"shape": [int(s) for s in a.shape], "entries": entries}
