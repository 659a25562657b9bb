"""Concrete orthonormal Lie-algebra bases and split-Casimir data.

For each supported family the module builds, in the defining (fundamental)
representation:

* an orthonormal basis ``xi^a`` of the Lie algebra with respect to the
  family's invariant form ``kappa(X, Y) = -c * tr(XY)`` (equal to
  ``c * tr(X^dagger Y)`` since all generators are skew-Hermitian), where
  ``c = 1/2`` for SO(N) and Sp(N) and ``c = 1`` for U(N), SU(N) and G2.
  This is the normalization under which the classical completeness
  relations below hold on the nose (for so(N) it makes the plain
  antisymmetric matrices ``E_ij - E_ji`` orthonormal);
* the Casimir matrix ``rho(C) = sum_a xi^a xi^a = lambda * I`` and its
  eigenvalue ``lambda``;
* the split Casimir ``K_{ijkl} = sum_a xi^a_{ij} xi^a_{kl}`` as the family's
  completeness relation, a table of real terms that the rest of the package
  reads; the generator sum ``split_casimir`` only checks it.

Families: SO(N), Sp(N) (compact symplectic, 2N x 2N), U(N), SU(N), G2 in its
7-dimensional representation, and the U(1) characters ``z -> z^n``
("u1power", one generator ``i*n``; orthonormality lives on u(1) itself, where
the basis is ``i``).

The Sp(N) and SU(N) bases are assembled from unnormalized raw shapes and
orthonormalized with Gram-Schmidt under kappa, so no printed normalization
factor is trusted.  The G2 generators are not transcribed from the
literature either: they are computed as the derivation algebra of the
octonion product restricted to the trace-free imaginary part, then
orthonormalized.  Both constructions are validated against the closed
completeness relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "FAMILIES",
    "GroupSpec",
    "RepData",
    "SplitCasimir",
    "build_representation",
    "split_casimir",
    "closed_form_completeness",
    "casimir_eigenvalue",
    "algebra_dimension",
    "octonion_psi",
    "group_residual",
    "check_one_group",
]

FAMILIES = ("so", "sp", "u", "su", "g2", "u1power")

#: the seven ordered triples on which the octonion symbol equals +1
PSI_TRIPLES = ((1, 2, 3), (1, 4, 7), (1, 6, 5), (2, 4, 6), (2, 5, 7), (3, 5, 4), (3, 6, 7))


@dataclass(frozen=True)
class GroupSpec:
    """A compact group family plus its size parameter.

    ``n`` is the matrix size for SO/Sp/U/SU, ignored for G2, and the
    character exponent (any integer, including 0 and negatives) for u1power.
    """

    family: str
    n: int = 0

    def __post_init__(self):
        fam = self.family.lower()
        object.__setattr__(self, "family", fam)
        if fam not in FAMILIES:
            raise ValueError(f"unsupported family {self.family!r}; choose from {FAMILIES}")
        if fam == "so" and self.n < 2:
            raise ValueError("SO(N) requires N >= 2")
        if fam == "sp" and self.n < 1:
            raise ValueError("Sp(N) requires N >= 1")
        if fam == "u" and self.n < 1:
            raise ValueError("U(N) requires N >= 1")
        if fam == "su" and self.n < 2:
            raise ValueError("SU(N) requires N >= 2")

    def label(self) -> str:
        if self.family == "g2":
            return "G2"
        if self.family == "u1power":
            return f"U(1)^{self.n}"
        return f"{self.family.upper()}({self.n})"


@dataclass(frozen=True, eq=False)
class RepData:
    """A group in a concrete matrix representation.

    Hashes by identity (``build_representation`` returns one instance per
    spec), so RepData can key caches of derived operators.

    Attributes
    ----------
    spec : GroupSpec
    dim : int
        Dimension of the representation space.
    generators : ``(dim_g, d, d)`` complex ndarray
        Images ``rho(xi^a)`` of an orthonormal Lie-algebra basis.
    casimir : ``(d, d)`` complex ndarray
        ``sum_a xi^a xi^a``, equal to ``lam * I``.
    lam : float
        Casimir eigenvalue.
    constants : dict
        Family-specific data: ``psi`` for G2, ``J`` for Sp(N).
    """

    spec: GroupSpec
    dim: int
    generators: np.ndarray
    casimir: np.ndarray
    lam: float
    constants: dict = field(default_factory=dict)

    @property
    def algebra_dim(self) -> int:
        return self.generators.shape[0]

    @property
    def group_matrix_dim(self) -> int:
        """Matrix size of group elements (1 for u1power, else ``dim``)."""
        return 1 if self.spec.family == "u1power" else self.dim

    def rho(self, g: np.ndarray, sign: int = 1) -> np.ndarray:
        """Apply the representation to a group element (or stack of them).

        ``sign=-1`` returns ``rho(g^{-1})``; group elements are unitary, so
        the inverse is the conjugate transpose, written out C-contiguous.
        """
        g = np.asarray(g, dtype=np.complex128)
        if self.spec.family == "u1power":
            z = g[..., 0, 0] ** self.spec.n
            out = z[..., None, None]
        else:
            out = g
        if sign == -1:
            out = np.conjugate(np.swapaxes(out, -1, -2), out=np.empty(out.shape, out.dtype))
        return out

    @property
    def sampling_generators(self) -> np.ndarray:
        """Orthonormal algebra basis in the group's own matrix realization.

        This is what the Brownian-motion integrator exponentiates.  It
        coincides with ``generators`` except for u1power, where group
        elements live in the defining 1x1 realization with basis ``[i]``.
        """
        if self.spec.family == "u1power":
            return np.array([[[1j]]], dtype=np.complex128)
        return self.generators

    def identity(self) -> np.ndarray:
        return np.eye(self.group_matrix_dim, dtype=np.complex128)


@dataclass(frozen=True)
class SplitCasimir:
    """The 4-index tensor ``K_{ijkl} = sum_a xi^a_{ij} xi^a_{kl}``."""

    k: np.ndarray


def algebra_dimension(spec: GroupSpec) -> int:
    n = spec.n
    return {
        "so": n * (n - 1) // 2,
        "sp": n * (2 * n + 1),
        "u": n * n,
        "su": n * n - 1,
        "g2": 14,
        "u1power": 1,
    }[spec.family]


def kappa_coefficient(family: str) -> float:
    """Scale ``c`` in the family's invariant form ``kappa = -c * tr(XY)``."""
    return 0.5 if family in ("so", "sp") else 1.0


def _eij(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def _gram_schmidt(raw: list[np.ndarray], kappa_coef: float = 1.0) -> np.ndarray:
    """Orthonormalize matrices under kappa(X, Y) = kappa_coef * tr(X^dagger Y).

    kappa is real on the real span of skew-Hermitian matrices; the raw list
    must be linearly independent.
    """
    out: list[np.ndarray] = []
    for x in raw:
        v = x.astype(np.complex128)
        for _ in range(2):  # one re-orthogonalization pass for stability
            for u in out:
                v = v - kappa_coef * np.real(np.sum(np.conj(u) * v)) * u
        norm = np.sqrt(kappa_coef * np.real(np.sum(np.conj(v) * v)))
        if norm < 1e-12:
            raise ValueError("raw generator list is linearly dependent")
        out.append(v / norm)
    return np.stack(out)


def _so_generators(n: int) -> np.ndarray:
    raw = [_eij(n, i, j) - _eij(n, j, i) for i in range(n) for j in range(i + 1, n)]
    return _gram_schmidt(raw, kappa_coefficient("so"))


def _u_generators(n: int) -> np.ndarray:
    raw = []
    for a in range(n):
        for b in range(a + 1, n):
            raw.append(1j * (_eij(n, a, b) + _eij(n, b, a)))
            raw.append(_eij(n, a, b) - _eij(n, b, a))
    for a in range(n):
        raw.append(1j * _eij(n, a, a))
    return _gram_schmidt(raw)


def _su_generators(n: int) -> np.ndarray:
    raw = []
    for a in range(n):
        for b in range(a + 1, n):
            raw.append(1j * (_eij(n, a, b) + _eij(n, b, a)))
            raw.append(_eij(n, a, b) - _eij(n, b, a))
    for l in range(1, n):
        d = np.zeros((n, n), dtype=np.complex128)
        for j in range(l):
            d[j, j] = 1.0
        d[l, l] = -float(l)
        raw.append(1j * d)
    return _gram_schmidt(raw)


def symplectic_form(n: int) -> np.ndarray:
    """The real 2N x 2N matrix J = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def _sp_generators(n: int) -> np.ndarray:
    def iota(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        m[:n, :n] = a
        m[:n, n:] = b
        m[n:, :n] = -np.conj(b)
        m[n:, n:] = np.conj(a)
        return m

    zero = np.zeros((n, n), dtype=np.complex128)
    raw = []
    for a in range(n):
        for b in range(a + 1, n):
            raw.append(iota(_eij(n, a, b) - _eij(n, b, a), zero))
            raw.append(iota(1j * (_eij(n, a, b) + _eij(n, b, a)), zero))
            raw.append(iota(zero, _eij(n, a, b) + _eij(n, b, a)))
            raw.append(iota(zero, 1j * (_eij(n, a, b) + _eij(n, b, a))))
    for c in range(n):
        raw.append(iota(1j * _eij(n, c, c), zero))
        raw.append(iota(zero, _eij(n, c, c)))
        raw.append(iota(zero, 1j * _eij(n, c, c)))
    return _gram_schmidt(raw, kappa_coefficient("sp"))


@lru_cache(maxsize=None)
def octonion_psi() -> np.ndarray:
    """Totally antisymmetric octonion symbol psi on indices 1..7 (0-based here).

    Equals +1 on the seven defining triples and on their even permutations,
    -1 on odd permutations, 0 otherwise.
    """
    psi = np.zeros((7, 7, 7))
    for (i, j, k) in PSI_TRIPLES:
        i, j, k = i - 1, j - 1, k - 1
        for (a, b, c), sgn in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            psi[a, b, c] = sgn
    psi.setflags(write=False)
    return psi


def _g2_generators() -> np.ndarray:
    """Basis of the derivation algebra of the octonion product on Im(O).

    A real 7x7 matrix D is a derivation iff it is antisymmetric and
    compatible with the psi-structure constants:

        psi_ijk D_lk = D_mi psi_mjl + D_mj psi_iml   for all i < j, l.

    The null space of the stacked linear system is 14-dimensional; SVD
    returns an orthonormal basis under tr(D^T D'), which is kappa.
    """
    psi = octonion_psi()
    rows = []
    # antisymmetry (covers the e_0 component of the derivation property)
    for i in range(7):
        for j in range(i, 7):
            row = np.zeros((7, 7))
            row[i, j] += 1.0
            row[j, i] += 1.0
            rows.append(row.reshape(-1))
    # e_l components of D(e_i e_j) = D(e_i) e_j + e_i D(e_j)
    for i in range(7):
        for j in range(i + 1, 7):
            for l in range(7):
                row = np.zeros((7, 7))
                for k in range(7):
                    row[l, k] += psi[i, j, k]
                for m in range(7):
                    row[m, i] -= psi[m, j, l]
                    row[m, j] -= psi[i, m, l]
                rows.append(row.reshape(-1))
    system = np.array(rows)
    _, s, vt = np.linalg.svd(system)
    null_mask = np.concatenate([s, np.zeros(vt.shape[0] - s.shape[0])]) < 1e-10
    basis = vt[null_mask]
    if basis.shape[0] != 14:
        raise RuntimeError(f"derivation solve produced {basis.shape[0]} generators, expected 14")
    return basis.reshape(14, 7, 7).astype(np.complex128)


@lru_cache(maxsize=None)
def build_representation(spec: GroupSpec) -> RepData:
    """Construct RepData for a group spec (cached; RepData is immutable)."""
    fam = spec.family
    constants: dict = {}
    if fam == "so":
        gens = _so_generators(spec.n)
        dim = spec.n
    elif fam == "sp":
        gens = _sp_generators(spec.n)
        dim = 2 * spec.n
        constants["J"] = symplectic_form(spec.n)
    elif fam == "u":
        gens = _u_generators(spec.n)
        dim = spec.n
    elif fam == "su":
        gens = _su_generators(spec.n)
        dim = spec.n
    elif fam == "g2":
        gens = _g2_generators()
        dim = 7
        constants["psi"] = octonion_psi()
    elif fam == "u1power":
        gens = np.array([[[1j * spec.n]]], dtype=np.complex128)
        dim = 1
    else:  # pragma: no cover
        raise ValueError(fam)

    expected = algebra_dimension(spec)
    if gens.shape[0] != expected:
        raise RuntimeError(f"{spec.label()}: got {gens.shape[0]} generators, expected {expected}")

    casimir = np.einsum("aij,ajk->ik", gens, gens)
    lam = float(np.real(np.trace(casimir)) / dim)
    if np.linalg.norm(casimir - lam * np.eye(dim)) > 1e-12 * max(1.0, abs(lam)) * dim:
        raise RuntimeError(f"{spec.label()}: Casimir is not a multiple of the identity")
    if fam != "u1power":
        gram = kappa_coefficient(fam) * np.einsum("aij,bij->ab", np.conj(gens), gens)
        if np.linalg.norm(gram - np.eye(gens.shape[0])) > 1e-12 * gens.shape[0]:
            raise RuntimeError(f"{spec.label()}: generator basis is not orthonormal")
    return RepData(spec=spec, dim=dim, generators=gens, casimir=casimir, lam=lam,
                   constants=constants)


def split_casimir(rep: RepData) -> SplitCasimir:
    """The generator-sum split Casimir ``K_{ijkl} = sum_a xi^a_{ij} xi^a_{kl}``."""
    k = np.einsum("aij,akl->ijkl", rep.generators, rep.generators)
    return SplitCasimir(k)


@lru_cache(maxsize=None)
def _completeness_terms(spec: GroupSpec) -> tuple[tuple[float, str, np.ndarray | None], ...]:
    """The family's completeness relation ``K = sum_a xi^a (x) xi^a`` as a term table.

    Each term is ``(coef, kind, mat)``; as a 4-index tensor ``K_{ijkl}`` a kind is

    * ``swap``: ``delta_il delta_jk``;
    * ``trace``: ``delta_ij delta_kl``;
    * ``transpose``: ``F_ik F_jl`` with ``F = mat`` (the form ``g^T = F g^{-1} F^T``
      of SO, Sp and G2 keeps);
    * ``insert``: ``M_ij M_kl`` with ``M = mat``.

    ``closed_form_completeness`` sums this table into a tensor, from which
    ``lgm.moments`` assembles the tensor Casimir; merging and twisting in
    ``lgm.loops`` read it as word surgery.
    """
    fam, n = spec.family, spec.n
    swap = (-1.0, "swap", None)
    if fam == "u":
        terms = (swap,)
    elif fam == "su":
        terms = (swap, (1.0 / n, "trace", None))
    elif fam == "so" and n == 2:  # one generator: K = E (x) E with E = E12 - E21
        terms = ((1.0, "insert", np.array([[0.0, 1.0], [-1.0, 0.0]])),)
    elif fam == "so":
        terms = ((1.0, "transpose", np.eye(n)), swap)
    elif fam == "sp":
        terms = ((1.0, "transpose", symplectic_form(n)), swap)
    elif fam == "g2":
        psi = octonion_psi()
        terms = ((0.5, "transpose", np.eye(7)), (-0.5, "swap", None)) + tuple(
            (-1.0 / 6.0, "insert", psi[r]) for r in range(7))
    else:  # u1power: the one generator i*n; mixed characters pair their own generators
        terms = ((1.0, "insert", np.array([[1j * n]])),)
    out = []
    for coef, kind, mat in terms:
        if mat is not None:  # complex like the loop words it joins; cached, so read-only
            mat = np.array(mat, dtype=np.complex128)
            mat.setflags(write=False)
        out.append((coef, kind, mat))
    return tuple(out)


def closed_form_completeness(spec: GroupSpec) -> SplitCasimir:
    """The family's completeness relation as an explicit 4-index tensor.

    Built from the term table alone, with no generator sums; the generator-sum
    K is checked against it.  K is real (the U(1) term is ``(i n)^2``).
    """
    d = {"sp": 2 * spec.n, "g2": 7, "u1power": 1}.get(spec.family, spec.n)
    eye = np.eye(d)
    k = np.zeros((d,) * 4, dtype=np.complex128)
    for coef, kind, mat in _completeness_terms(spec):
        subscripts, m = {"swap": ("il,jk", eye), "trace": ("ij,kl", eye),
                         "transpose": ("ik,jl", mat), "insert": ("ij,kl", mat)}[kind]
        k += coef * np.einsum(subscripts + "->ijkl", m, m)
    return SplitCasimir(k)


def casimir_eigenvalue(spec: GroupSpec) -> float:
    """Casimir eigenvalue of the defining representation.

    SO(N): 1-N;  Sp(N): -(1+2N);  U(N): -N;  SU(N): -N+1/N;  G2: -2
    (obtained by contracting K_ikkj of the G2 completeness relation);
    u1power: -n^2.
    """
    n = spec.n
    return {
        "so": lambda: 1.0 - n,
        "sp": lambda: -(1.0 + 2 * n),
        "u": lambda: -float(n),
        "su": lambda: -n + 1.0 / n,
        "g2": lambda: -2.0,
        "u1power": lambda: -float(n) ** 2,
    }[spec.family]()


def group_residual(rep: RepData, g: np.ndarray) -> float:
    """Max violation of the group's defining constraints by ``g``.

    Checks unitarity always, plus realness/det for SO, det for SU, the
    symplectic relation for Sp, and the algebra-automorphism property for G2.
    """
    g = np.asarray(g, dtype=np.complex128)
    d = rep.group_matrix_dim
    res = np.linalg.norm(g.conj().T @ g - np.eye(d))
    fam = rep.spec.family
    if fam == "so":
        res = max(res, np.linalg.norm(g.imag), abs(np.linalg.det(g) - 1.0))
    elif fam == "su":
        res = max(res, abs(np.linalg.det(g) - 1.0))
    elif fam == "sp":
        j = rep.constants["J"]
        res = max(res, np.linalg.norm(g.T @ j @ g - j))
    elif fam == "g2":
        psi = rep.constants["psi"]
        res = max(res, np.linalg.norm(g.imag))
        gr = g.real
        lhs = np.einsum("abk,ai,bj->ijk", psi, gr, gr)
        rhs = np.einsum("ijl,kl->ijk", psi, gr)
        res = max(res, np.max(np.abs(lhs - rhs)))
    return float(res)


def check_one_group(specs: Iterable[GroupSpec]) -> None:
    """Raise ``ValueError`` unless ``specs`` name representations of one group.

    Equal specs are one group, and so are U(1) characters of any powers:
    every ``z -> z^n`` represents the one group U(1).
    """
    specs = set(specs)
    if len(specs) > 1 and any(spec.family != "u1power" for spec in specs):
        labels = ", ".join(sorted(spec.label() for spec in specs))
        raise ValueError(f"loops live on different groups: {labels}")
