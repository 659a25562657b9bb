"""Catalog tests: bases, completeness relations, Casimir data, G2 construction."""

import numpy as np
import pytest

from lgm.catalog import (GroupSpec, _algebra, algebra_dimension, build_representation,
                         casimir_eigenvalue, closed_form_completeness, group_residual,
                         kappa_coefficient, octonion_psi, split_casimir, symplectic_form)
from lgm.sampling import RngSpec, brownian_path_batch, haar_sample

ALL_SPECS = (
    [GroupSpec("so", n) for n in range(2, 7)]
    + [GroupSpec("sp", n) for n in range(1, 7)]
    + [GroupSpec("u", n) for n in range(1, 7)]
    + [GroupSpec("su", n) for n in range(2, 7)]
    + [GroupSpec("g2"), GroupSpec("u1power", 1), GroupSpec("u1power", 3),
       GroupSpec("u1power", -2), GroupSpec("u1power", 0)]
)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_completeness_relation(spec):
    rep = build_representation(spec)
    k_sum = split_casimir(rep).k
    k_closed = closed_form_completeness(spec).k
    assert np.max(np.abs(k_sum - k_closed)) <= 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_generator_count_and_casimir(spec):
    rep = build_representation(spec)
    assert rep.algebra_dim == algebra_dimension(spec)
    lam = casimir_eigenvalue(spec)
    assert abs(rep.lam - lam) <= 1e-12
    eye = np.eye(rep.dim)
    assert np.max(np.abs(rep.casimir - lam * eye)) <= 1e-12 * max(1.0, abs(lam))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_generators_skew_hermitian(spec):
    rep = build_representation(spec)
    for xi in rep.generators:
        assert np.linalg.norm(xi + xi.conj().T) <= 1e-12


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.family != "u1power"],
                         ids=lambda s: s.label())
def test_orthonormal_under_family_kappa(spec):
    rep = build_representation(spec)
    gens = rep.generators
    gram = kappa_coefficient(spec.family) * np.einsum("aij,bij->ab", np.conj(gens), gens)
    assert np.linalg.norm(gram - np.eye(rep.algebra_dim)) <= 1e-12 * rep.algebra_dim


@pytest.mark.parametrize("family,n", [("su", 3), ("so", 4), ("g2", 0)])
def test_traceless_families(family, n):
    rep = build_representation(GroupSpec(family, n))
    for xi in rep.generators:
        assert abs(np.trace(xi)) <= 1e-12


def test_sp_preserves_symplectic_form():
    rep = build_representation(GroupSpec("sp", 3))
    j = rep.constants["J"]
    assert np.array_equal(j, symplectic_form(3))
    for xi in rep.generators:
        assert np.linalg.norm(xi.T @ j + j @ xi) <= 1e-12


def g2_derivation_defect(x):
    """``psi_ijk X_lk - X_mi psi_mjl - X_mj psi_iml`` on a stack: zero iff each X derives the octonions."""
    psi = octonion_psi()
    return (np.einsum("ijk,alk->aijl", psi, x) - np.einsum("ami,mjl->aijl", x, psi)
            - np.einsum("amj,iml->aijl", x, psi))


def sp_defect(n):
    j = symplectic_form(n)
    return lambda x: np.swapaxes(x, 1, 2) @ j + j @ x


def real_defect(x):
    return x.imag


def trace_defect(x):
    return np.trace(x, axis1=1, axis2=2)


# each family's defining conditions, beyond skew-Hermitian
CONDITIONS = (
    [(GroupSpec("so", n), (real_defect,)) for n in range(2, 9)]
    + [(GroupSpec("su", n), (trace_defect,)) for n in range(2, 7)]
    + [(GroupSpec("u", n), ()) for n in range(1, 7)]
    + [(GroupSpec("sp", n), (sp_defect(n),)) for n in range(1, 5)]
    + [(GroupSpec("g2"), (real_defect, g2_derivation_defect))]
)


def by_label(cases):
    return [pytest.param(spec, conditions, id=spec.label()) for spec, conditions in cases]


@pytest.mark.parametrize("spec,conditions", by_label(CONDITIONS))
def test_generators_satisfy_the_defining_conditions(spec, conditions):
    gens = build_representation(spec).generators
    assert gens.shape[0] == algebra_dimension(spec)
    for condition in conditions:
        assert np.max(np.abs(condition(gens)), initial=0.0) <= 1e-12


@pytest.mark.parametrize("spec,conditions", by_label(c for c in CONDITIONS if c[1]))
def test_algebra_basis_does_not_hang_on_the_null_vectors(spec, conditions):
    # a repeated or rescaled condition changes the Gram matrix, and so the null
    # vectors LAPACK returns, but not the basis
    rep = build_representation(spec)
    d, c = rep.dim, kappa_coefficient(spec.family)
    first, last = conditions[0], conditions[-1]
    for variant in ((first,) + conditions, conditions[:-1] + (lambda x: 3.0 * last(x),)):
        assert np.max(np.abs(_algebra(d, c, *variant) - rep.generators)) <= 1e-12


def test_casimir_eigenvalue_closed_forms():
    assert casimir_eigenvalue(GroupSpec("so", 5)) == -4.0
    assert casimir_eigenvalue(GroupSpec("sp", 2)) == -5.0
    assert casimir_eigenvalue(GroupSpec("u", 4)) == -4.0
    assert casimir_eigenvalue(GroupSpec("su", 2)) == pytest.approx(-1.5, abs=0)
    assert casimir_eigenvalue(GroupSpec("u1power", 3)) == -9.0


def test_g2_lambda_matches_contraction_oracle():
    # contract K_ikkj of the closed completeness relation; the printed
    # sources do not state this number
    k = closed_form_completeness(GroupSpec("g2")).k
    contraction = np.einsum("ikkj->ij", k)
    lam = casimir_eigenvalue(GroupSpec("g2"))
    assert np.max(np.abs(contraction - lam * np.eye(7))) <= 1e-12


def test_lambda_negative_for_nontrivial_and_zero_for_trivial_character():
    for spec in ALL_SPECS:
        lam = casimir_eigenvalue(spec)
        if spec.family == "u1power" and spec.n == 0:
            assert lam == 0.0
        else:
            assert lam < 0.0


def test_basis_independence_of_split_casimir():
    rng = np.random.default_rng(10)
    for spec in (GroupSpec("su", 3), GroupSpec("so", 4), GroupSpec("sp", 2)):
        rep = build_representation(spec)
        k = split_casimir(rep).k
        mix = np.linalg.qr(rng.standard_normal((rep.algebra_dim, rep.algebra_dim)))[0]
        mixed = np.einsum("ab,bij->aij", mix, rep.generators)
        k_mixed = np.einsum("aij,akl->ijkl", mixed, mixed)
        assert np.max(np.abs(k - k_mixed)) <= 1e-12


def test_split_casimir_symmetries():
    for spec in (GroupSpec("su", 3), GroupSpec("sp", 2), GroupSpec("g2")):
        k = split_casimir(build_representation(spec)).k
        assert np.max(np.abs(k - np.conj(k.transpose(1, 0, 3, 2)))) <= 1e-12
        assert np.max(np.abs(k - k.transpose(2, 3, 0, 1))) <= 1e-12


@pytest.mark.parametrize("spec", [GroupSpec("su", 2), GroupSpec("so", 3),
                                  GroupSpec("sp", 1), GroupSpec("u", 3), GroupSpec("g2")],
                         ids=lambda s: s.label())
def test_ad_invariance_of_split_casimir(spec):
    rep = build_representation(spec)
    k = split_casimir(rep).k
    if spec.family == "g2":
        g = brownian_path_batch(rep, 5.0, 200, RngSpec(1), 1)[0]
    else:
        g = haar_sample(rep, RngSpec(1))
    ginv = np.conj(g).T
    conj_k = np.einsum("ia,abcd,bj,kc,dl->ijkl", g, k, ginv, g, ginv)
    assert np.max(np.abs(conj_k - k)) <= 1e-10


def test_group_residual_at_identity():
    for spec in (GroupSpec("su", 2), GroupSpec("so", 3), GroupSpec("sp", 2), GroupSpec("g2")):
        rep = build_representation(spec)
        assert group_residual(rep, rep.identity()) <= 1e-14


def test_octonion_psi_symbol():
    psi = octonion_psi()
    # totally antisymmetric
    assert np.max(np.abs(psi + psi.transpose(1, 0, 2))) == 0
    assert np.max(np.abs(psi + psi.transpose(0, 2, 1))) == 0
    for (i, j, k) in ((1, 2, 3), (1, 4, 7), (1, 6, 5), (2, 4, 6), (2, 5, 7),
                      (3, 5, 4), (3, 6, 7)):
        assert psi[i - 1, j - 1, k - 1] == 1.0
    # each index sits in exactly three triples: psi_irs psi_jrs = 6 delta_ij
    assert np.allclose(np.einsum("irs,jrs->ij", psi, psi), 6.0 * np.eye(7))


def test_g2_generators_orthonormal_and_real():
    rep = build_representation(GroupSpec("g2"))
    gens = rep.generators
    assert np.max(np.abs(gens.imag)) == 0.0
    gram = np.einsum("aij,bij->ab", np.conj(gens), gens)
    assert np.linalg.norm(gram - np.eye(14)) <= 1e-12 * 14


def test_u1power_data():
    rep = build_representation(GroupSpec("u1power", 3))
    assert rep.dim == 1
    assert rep.generators[0, 0, 0] == 3j
    assert rep.casimir[0, 0] == pytest.approx(-9.0)
    assert rep.sampling_generators[0, 0, 0] == 1j
    z = np.array([[np.exp(0.4j)]])
    assert rep.rho(z)[0, 0] == pytest.approx(np.exp(1.2j))
    assert rep.rho(z, -1)[0, 0] == pytest.approx(np.exp(-1.2j))


def test_groupspec_validation():
    with pytest.raises(ValueError):
        GroupSpec("so", 1)
    with pytest.raises(ValueError):
        GroupSpec("su", 1)
    with pytest.raises(ValueError):
        GroupSpec("sp", 0)
    with pytest.raises(ValueError):
        GroupSpec("e8", 8)
    GroupSpec("u1power", -5)  # any integer exponent is fine


def test_closed_form_u1power():
    k = closed_form_completeness(GroupSpec("u1power", -2)).k
    assert k.shape == (1, 1, 1, 1)
    assert k[0, 0, 0, 0] == -4.0
