"""Numerical linear-algebra kernels and the sparse JSON form of tensors.

All heavy lifting is delegated to LAPACK/BLAS through numpy.  Tensors are
C-contiguous ndarrays in row-major multi-index order, float64 for invariant
theory (Casimirs, projectors, Gram and Weingarten matrices) and complex128
for group elements and loop coefficients.  Spectral routines symmetrize
their input, ``(M + M*) / 2``, which absorbs Hermiticity roundoff, and keep
a real input real.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pseudoinverse",
    "expm_skew_batch",
    "tensor_to_json",
]

#: entries below this magnitude are dropped from the sparse JSON form
JSON_PRUNE_TOL = 1e-14


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

    Vectorized over the leading axes through the batched ``eigh``; used by
    the Brownian-motion integrator where millions of small exponentials are
    needed.
    """
    h = 1j * x
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    w, u = np.linalg.eigh(h)
    phase = np.exp(-1j * w)
    return np.einsum("...ik,...k,...jk->...ij", u, phase, np.conj(u))


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
