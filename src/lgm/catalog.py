"""Closed-form group data, and orthonormal Lie-algebra bases built on demand.

For each supported family the module gives, in the defining (fundamental)
representation:

* in closed form, all that `build_representation` evaluates: the
  dimension, the Casimir eigenvalue ``lambda`` and the constants (``J``,
  ``psi``);
* the split Casimir ``K_{ijkl} = sum_a xi^a_{ij} xi^a_{kl}`` as the family's
  completeness relation, a table of real terms that the rest of the package
  reads;
* on first read of ``RepData.generators`` (by the Brownian walk, or the
  check ``split_casimir``), an orthonormal basis ``xi^a`` of the Lie algebra
  under the family's invariant form ``kappa(X, Y) = -c * tr(XY)`` (equal to
  ``c * tr(X^dagger Y)`` since all generators are skew-Hermitian), where
  ``c = 1/2`` for SO(N) and Sp(N) and ``c = 1`` for U(N), SU(N) and G2, the
  normalization under which the completeness relations hold on the nose.

Families: SO(N), Sp(N) (compact symplectic, 2N x 2N), U(N), SU(N), G2 in its
7-dimensional representation, and the U(1) characters ``z -> z^n``
("u1power", one generator ``i*n``; orthonormality lives on u(1) itself, where
the basis is ``i``).

Every basis comes from one construction, ``_algebra``: the skew-Hermitian
matrices that the family's defining conditions map to zero (SO real, U none,
SU traceless, Sp ``X^T J + J X = 0``, G2 real and a derivation of the
octonion product), orthonormalized under kappa from the projections of the
matrix units.  No basis element or normalization is transcribed from the
literature; each is checked against its count, ``sum_a xi^a xi^a =
lambda I`` and orthonormality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
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
        Dimension of the representation space, which is also the matrix
        size of group elements (1 for the U(1) characters).
    lam : float
        Casimir eigenvalue, in closed form (`casimir_eigenvalue`).
    constants : dict
        Family-specific data: ``psi`` for G2, ``J`` for Sp(N).
    generators : ``(dim_g, d, d)`` complex ndarray, read-only, built on first read
        Images ``rho(xi^a)`` of an orthonormal Lie-algebra basis.
    """

    spec: GroupSpec
    dim: int
    lam: float
    constants: dict = field(default_factory=dict)

    @cached_property
    def generators(self) -> np.ndarray:
        """The basis from `_algebra`, refused unless it has ``algebra_dimension`` elements,
        ``sum_a xi^a xi^a = lam I`` and (but on U(1) characters) is orthonormal under kappa.
        A G2 generator derives the octonion product: ``psi_ijk X_lk = X_mi psi_mjl + X_mj psi_iml``."""
        fam, d, label, ein = self.spec.family, self.dim, self.spec.label(), partial(np.einsum, optimize=True)
        real, j, psi = (lambda x: x.imag), self.constants.get("J"), self.constants.get("psi")
        conditions = {"so": (real,), "u": (), "su": (lambda x: np.trace(x, axis1=1, axis2=2),),
                      "sp": (lambda x: np.swapaxes(x, 1, 2) @ j + j @ x,),
                      "g2": (real, lambda x: ein("ijk,blk->bijl", psi, x) - ein("bmi,mjl->bijl", x, psi)
                             - ein("bmj,iml->bijl", x, psi))}.get(fam, ())
        gens = (np.array([[[1j * self.spec.n]]], dtype=np.complex128) if fam == "u1power"
                else _algebra(d, kappa_coefficient(fam), *conditions))
        expected = algebra_dimension(self.spec)
        if gens.shape[0] != expected:
            raise RuntimeError(f"{label}: got {gens.shape[0]} generators, expected {expected}")
        casimir = np.einsum("aij,ajk->ik", gens, gens)
        if np.linalg.norm(casimir - self.lam * np.eye(d)) > 1e-12 * max(1.0, abs(self.lam)) * d:
            raise RuntimeError(f"{label}: sum_a xi^a xi^a is not lambda I for lambda = {self.lam!r}")
        if fam != "u1power":
            gram = kappa_coefficient(fam) * np.einsum("aij,bij->ab", np.conj(gens), gens)
            if np.linalg.norm(gram - np.eye(expected)) > 1e-12 * expected:
                raise RuntimeError(f"{label}: generator basis is not orthonormal")
        gens.setflags(write=False)
        return gens

    @property
    def algebra_dim(self) -> int:
        return self.generators.shape[0]

    def rho(self, g: np.ndarray, sign: int = 1) -> np.ndarray:
        """Apply the representation to a group element (or stack of them).

        ``sign=-1`` returns ``rho(g^{-1})``; group elements are unitary, so
        the inverse is the conjugate transpose, written out C-contiguous.
        """
        g = np.asarray(g, dtype=np.complex128)
        out = g ** self.spec.n if self.spec.family == "u1power" else g  # z -> z^n on 1 x 1 elements
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
        return np.eye(self.dim, dtype=np.complex128)


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


def _rep_dim(spec: GroupSpec) -> int:
    """Size of the defining matrices: 2N for Sp(N), 7 for G2, 1 for a U(1) character, else N."""
    return {"sp": 2 * spec.n, "g2": 7, "u1power": 1}.get(spec.family, spec.n)


def kappa_coefficient(family: str) -> float:
    """Scale ``c`` in the family's invariant form ``kappa = -c * tr(XY)``."""
    return 0.5 if family in ("so", "sp") else 1.0


def symplectic_form(n: int) -> np.ndarray:
    """The real 2N x 2N matrix J = [[0, I], [-I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


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


def _algebra(d: int, kappa_coef: float, *conditions) -> np.ndarray:
    """Orthonormal basis, under ``kappa = kappa_coef * tr(X^dagger Y)``, of the
    skew-Hermitian d x d matrices that every condition maps to zero.

    A condition is a real-linear map on a ``(k, d, d)`` complex stack.  The
    conditions and ``X + X^dagger`` are stacked over the real coordinates
    ``(Re X, Im X)``; the null space comes from one ``eigh`` of their Gram
    matrix.  The projections of ``E_ij`` and then ``i E_ij`` onto it are
    Gram-Schmidt orthonormalized in that order, dependent ones skipped, so the
    basis does not hang on which null vectors LAPACK returns.
    """
    eye = np.eye(d * d).reshape(d * d, d, d)
    coords = np.concatenate([eye, 1j * eye])  # E_ij, then i E_ij
    images = [x.reshape(2 * d * d, -1) for x in
              [coords + np.conj(np.swapaxes(coords, 1, 2))] + [c(coords) for c in conditions]]
    w, v = np.linalg.eigh(sum(np.real(x @ x.conj().T) for x in images))
    null = v[:, w < 1e-9 * w[-1]]
    q = np.zeros((0, null.shape[1]))
    for p in null:  # row k: the projection of coordinate k, in null-space coordinates
        for _ in range(2):  # one re-orthogonalization pass for stability
            p = p - (q @ p) @ q
        norm = np.linalg.norm(p)
        if norm > 1e-8:
            q = np.vstack([q, p / norm])
    x = q @ null.T
    x /= np.sqrt(kappa_coef * np.sum(x * x, axis=1, keepdims=True))
    return (x[:, :d * d] + 1j * x[:, d * d:]).reshape(-1, d, d)


@lru_cache(maxsize=None)
def build_representation(spec: GroupSpec) -> RepData:
    """RepData for a group spec from closed forms alone (cached; RepData is immutable).

    The generator basis is built on first read of ``RepData.generators``.
    """
    constants = ({"J": symplectic_form(spec.n)} if spec.family == "sp"
                 else {"psi": octonion_psi()} if spec.family == "g2" else {})
    return RepData(spec=spec, dim=_rep_dim(spec), lam=casimir_eigenvalue(spec), constants=constants)


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
    eye = np.eye(_rep_dim(spec))
    k = np.zeros(eye.shape * 2, dtype=np.complex128)
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
    res = np.linalg.norm(g.conj().T @ g - np.eye(rep.dim))
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
