"""Loop calculus tests: evaluation, merging, twisting, flattening, JSON.

The per-family merge/twist tables here (tr-combinations of C, D, g and the
psi matrices for G2) are the closed completeness-relation forms; checking
them against the production merge/twist, and those against the sum over
generator insertions, is the table-consistency check.
"""

import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lgm.catalog import GroupSpec, build_representation, octonion_psi
from lgm.loops import (LoopPair, LoopSum, conjugate_loop, insert_generator, laplacian,
                       linear_loop, loop, loop_from_json, loop_to_json, loops_to_tensor,
                       loopsum_from_json, loopsum_to_json, merge_at, total_merge, twist_at)
from lgm.sampling import RngSpec, brownian_path_batch, haar_sample, haar_sample_batch

REP = {
    "u2": build_representation(GroupSpec("u", 2)),
    "u3": build_representation(GroupSpec("u", 3)),
    "su2": build_representation(GroupSpec("su", 2)),
    "su4": build_representation(GroupSpec("su", 4)),
    "so2": build_representation(GroupSpec("so", 2)),
    "so3": build_representation(GroupSpec("so", 3)),
    "so4": build_representation(GroupSpec("so", 4)),
    "sp1": build_representation(GroupSpec("sp", 1)),
    "sp2": build_representation(GroupSpec("sp", 2)),
    "g2": build_representation(GroupSpec("g2")),
}


def sample(rep, seed):
    if rep.spec.family == "g2":
        return brownian_path_batch(rep, 5.0, 100, RngSpec(seed), 1)[0]
    return haar_sample(rep, RngSpec(seed))


def rand_coeff(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rand_loop(rng, rep, max_slots=3):
    r = int(rng.integers(1, max_slots + 1))
    coeffs = [rand_coeff(rng, rep.dim) for _ in range(r)]
    signs = [int(s) for s in rng.choice([1, -1], size=r)]
    scale = complex(*rng.standard_normal(2))
    return loop(rep, coeffs, signs, scale)


class TestEvaluate:
    def test_trace_at_identity(self):
        rep = REP["u3"]
        w = linear_loop(rep, np.eye(3))
        assert w.evaluate(np.eye(3)) == pytest.approx(3.0)

    def test_u1_character(self):
        rep = build_representation(GroupSpec("u1power", 5))
        c = 1.2 - 0.7j
        w = linear_loop(rep, np.array([[c]]))
        theta = 0.9
        got = w.evaluate(np.array([[np.exp(1j * theta)]]))
        assert got == pytest.approx(c * np.exp(5j * theta))

    def test_against_direct_product(self):
        rng = np.random.default_rng(0)
        rep = REP["su2"]
        g = sample(rep, 3)
        a, b = rand_coeff(rng, 2), rand_coeff(rng, 2)
        w = loop(rep, [a, b], [1, -1])
        direct = np.trace(a @ g @ b @ np.conj(g).T)
        assert abs(w.evaluate(g) - direct) <= 1e-13

    def test_value_at_identity_is_scaled_trace(self):
        rng = np.random.default_rng(1)
        rep = REP["so3"]
        coeffs = [rand_coeff(rng, 3) for _ in range(3)]
        w = loop(rep, coeffs, [1, -1, 1], scale=0.3 + 2.0j)
        want = (0.3 + 2.0j) * np.trace(coeffs[0] @ coeffs[1] @ coeffs[2])
        assert abs(w.evaluate(np.eye(3)) - want) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10))
    def test_cyclic_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        rep = REP["u2"]
        w = rand_loop(rng, rep, max_slots=4)
        g = sample(rep, seed % 17)
        assert abs(w.evaluate(g) - w.rotated(shift).evaluate(g)) <= 1e-13 * (1 + abs(w.evaluate(g)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match rep dim"):
            linear_loop(REP["u3"], np.eye(2))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        rep = REP["sp2"]
        w = rand_loop(rng, rep)
        gs = np.stack([sample(rep, s) for s in range(4)])
        batch = w.evaluate_batch(gs)
        for k, g in enumerate(gs):
            assert abs(batch[k] - w.evaluate(g)) <= 1e-13 * (1 + abs(batch[k]))


BATCH_REPS = {
    "u3": REP["u3"], "su2": REP["su2"], "so4": REP["so4"], "sp2": REP["sp2"], "g2": REP["g2"],
    **{f"u1^{k}": build_representation(GroupSpec("u1power", k)) for k in (-2, 1, 3)},
}


def _draws(rep, count):
    if rep.spec.family == "g2":  # group elements only; their law does not matter here
        return brownian_path_batch(rep, 2.0, 10, RngSpec(5), count)
    return haar_sample_batch(rep, RngSpec(5), count)


def _explicit_values(w, gs):
    """``scale * tr(c_1 rho(g^{s_1}) ... c_r rho(g^{s_r}))`` per draw, by definition:
    the representation matrix written out, ``g^{-1}`` by inversion."""
    if w.rep.spec.family == "u1power":
        mats = gs[:, :1, :1] ** w.rep.spec.n
    else:
        mats = gs
    acc = np.broadcast_to(np.eye(w.rep.dim), mats.shape)
    for c, s in w.factors:
        acc = acc @ c @ (mats if s == 1 else np.linalg.inv(mats))
    return w.scale * np.trace(acc, axis1=1, axis2=2)


@pytest.mark.parametrize("key", list(BATCH_REPS))
@pytest.mark.parametrize("count", [1, 4000])
def test_evaluate_batch_matches_explicit_trace(key, count):
    # every sign pattern of 1-4 slots, against the trace written out per draw
    rep = BATCH_REPS[key]
    rng = np.random.default_rng(count)
    gs = _draws(rep, count)
    for r in range(1, 5):
        for signs in itertools.product((1, -1), repeat=r):
            coeffs = [rand_coeff(rng, rep.dim) for _ in range(r)]
            w = loop(rep, coeffs, signs, complex(*rng.standard_normal(2)))
            got = w.evaluate_batch(gs)
            bound = abs(w.scale) * rep.dim * np.prod([np.linalg.norm(c, 2) for c in coeffs])
            assert got.shape == (count,)
            assert np.max(np.abs(got - _explicit_values(w, gs))) <= 1e-12 * bound, (key, signs)


class TestMergeTables:
    """Printed closed-form merge rules for linear loops with group coefficients."""

    def _cd(self, rep, s1, s2):
        c, d = sample(rep, 11), sample(rep, 12)
        g = sample(rep, 13)
        got = merge_at(linear_loop(rep, c, s1), 1, linear_loop(rep, d, s2), 1).evaluate(g)
        return c, d, g, got

    @pytest.mark.parametrize("key", ["so3", "so4", "sp1", "sp2"])
    def test_orthogonal_and_symplectic(self, key):
        rep = REP[key]
        inv = lambda m: np.conj(m).T
        tr = np.trace
        c, d, g, got = self._cd(rep, 1, 1)
        assert got == pytest.approx(tr(c @ inv(d)) - tr(c @ g @ d @ g), abs=1e-11)
        c, d, g, got = self._cd(rep, 1, -1)
        assert got == pytest.approx(tr(c @ d) - tr(c @ g @ inv(d) @ g), abs=1e-11)
        c, d, g, got = self._cd(rep, -1, 1)
        assert got == pytest.approx(tr(c @ d) - tr(c @ inv(g) @ inv(d) @ inv(g)), abs=1e-11)
        c, d, g, got = self._cd(rep, -1, -1)
        assert got == pytest.approx(tr(inv(c) @ d) - tr(c @ inv(g) @ d @ inv(g)), abs=1e-11)

    def test_unitary(self):
        rep = REP["u3"]
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._cd(rep, 1, 1)
        assert got == pytest.approx(-tr(c @ g @ d @ g), abs=1e-11)
        c, d, g, got = self._cd(rep, 1, -1)
        assert got == pytest.approx(tr(c @ d), abs=1e-11)
        c, d, g, got = self._cd(rep, -1, 1)
        assert got == pytest.approx(tr(c @ d), abs=1e-11)
        c, d, g, got = self._cd(rep, -1, -1)
        assert got == pytest.approx(-tr(c @ inv(g) @ d @ inv(g)), abs=1e-11)

    def test_special_unitary(self):
        rep = REP["su4"]
        n = 4.0
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._cd(rep, 1, 1)
        want = -tr(c @ g @ d @ g) + tr(c @ g) * tr(d @ g) / n
        assert got == pytest.approx(want, abs=1e-11)
        c, d, g, got = self._cd(rep, 1, -1)
        want = tr(c @ d) - tr(c @ g) * tr(d @ inv(g)) / n
        assert got == pytest.approx(want, abs=1e-11)
        c, d, g, got = self._cd(rep, -1, -1)
        want = -tr(inv(g) @ c @ inv(g) @ d) + tr(c @ inv(g)) * tr(d @ inv(g)) / n
        assert got == pytest.approx(want, abs=1e-11)

    def test_g2(self):
        # The psi-term carries the case sign s1*s2 like every other K-driven
        # term, so the mixed-sign cases come out with +1/6.
        rep = REP["g2"]
        psi = octonion_psi()
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._cd(rep, 1, 1)
        psi_term = sum(tr(c @ g @ psi[r]) * tr(d @ g @ psi[r]) for r in range(7))
        want = 0.5 * (tr(c @ inv(d)) - tr(c @ g @ d @ g)) - psi_term / 6.0
        assert got == pytest.approx(want, abs=1e-10)
        c, d, g, got = self._cd(rep, -1, 1)
        psi_term = sum(tr(c @ psi[r] @ inv(g)) * tr(d @ g @ psi[r]) for r in range(7))
        want = 0.5 * (tr(c @ d) - tr(c @ inv(g) @ inv(d) @ inv(g))) + psi_term / 6.0
        assert got == pytest.approx(want, abs=1e-10)
        c, d, g, got = self._cd(rep, -1, -1)
        psi_term = sum(tr(c @ psi[r] @ inv(g)) * tr(d @ psi[r] @ inv(g)) for r in range(7))
        want = 0.5 * (tr(inv(c) @ d) - tr(c @ inv(g) @ d @ inv(g))) - psi_term / 6.0
        assert got == pytest.approx(want, abs=1e-10)


class TestTwistTables:
    """Printed closed-form twist rules for tr(C g^s D g^t) with group coefficients."""

    def _twist(self, rep, s1, s2):
        c, d = sample(rep, 21), sample(rep, 22)
        g = sample(rep, 23)
        got = twist_at(loop(rep, [c, d], [s1, s2]), 1, 2).evaluate(g)
        return c, d, g, got

    def test_orthogonal(self):
        rep = REP["so4"]
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._twist(rep, 1, 1)
        assert got == pytest.approx(tr(c @ inv(d)) - tr(c @ g) * tr(d @ g), abs=1e-11)
        c, d, g, got = self._twist(rep, 1, -1)
        assert got == pytest.approx(-tr(inv(g) @ c @ g @ inv(d)) + tr(c) * tr(d), abs=1e-11)
        c, d, g, got = self._twist(rep, -1, 1)
        assert got == pytest.approx(-tr(c @ inv(g) @ inv(d) @ g) + tr(c) * tr(d), abs=1e-11)
        c, d, g, got = self._twist(rep, -1, -1)
        assert got == pytest.approx(tr(c @ inv(d)) - tr(inv(g) @ c) * tr(inv(g) @ d), abs=1e-11)

    def test_symplectic_differs_by_single_signs(self):
        rep = REP["sp2"]
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._twist(rep, 1, 1)
        assert got == pytest.approx(-tr(c @ inv(d)) - tr(c @ g) * tr(d @ g), abs=1e-11)
        c, d, g, got = self._twist(rep, 1, -1)
        assert got == pytest.approx(tr(c @ g @ inv(d) @ inv(g)) + tr(c) * tr(d), abs=1e-11)
        c, d, g, got = self._twist(rep, -1, -1)
        assert got == pytest.approx(-tr(c @ inv(d)) - tr(c @ inv(g)) * tr(d @ inv(g)), abs=1e-11)

    def test_unitary(self):
        rep = REP["u2"]
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._twist(rep, 1, 1)
        assert got == pytest.approx(-tr(c @ g) * tr(d @ g), abs=1e-12)
        c, d, g, got = self._twist(rep, 1, -1)
        assert got == pytest.approx(tr(c) * tr(d), abs=1e-12)
        c, d, g, got = self._twist(rep, -1, 1)
        assert got == pytest.approx(tr(c) * tr(d), abs=1e-12)

    def test_special_unitary(self):
        rep = REP["su2"]
        n = 2.0
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._twist(rep, 1, 1)
        assert got == pytest.approx(-tr(c @ g) * tr(d @ g) + tr(c @ g @ d @ g) / n, abs=1e-12)
        c, d, g, got = self._twist(rep, 1, -1)
        assert got == pytest.approx(tr(c) * tr(d) - tr(c @ g @ d @ inv(g)) / n, abs=1e-12)

    def test_g2(self):
        # Unlike merging, twisting keeps one trace: inserting the psi-part of
        # the completeness relation into tr(C g xi D g xi) leaves the single
        # trace tr(Psi_r C g Psi_r D g), not a product of two traces.
        rep = REP["g2"]
        psi = octonion_psi()
        tr, inv = np.trace, lambda m: np.conj(m).T
        c, d, g, got = self._twist(rep, 1, 1)
        psi_term = sum(tr(psi[r] @ c @ g @ psi[r] @ d @ g) for r in range(7))
        want = 0.5 * (tr(c @ inv(d)) - tr(c @ g) * tr(d @ g)) - psi_term / 6.0
        assert got == pytest.approx(want, abs=1e-10)
        c, d, g, got = self._twist(rep, 1, -1)
        psi_term = sum(tr(psi[r] @ inv(g) @ c @ g @ psi[r] @ d) for r in range(7))
        want = 0.5 * (-tr(inv(g) @ c @ g @ inv(d)) + tr(c) * tr(d)) + psi_term / 6.0
        assert got == pytest.approx(want, abs=1e-10)
        c, d, g, got = self._twist(rep, -1, -1)
        psi_term = sum(tr(psi[r] @ inv(g) @ c @ psi[r] @ inv(g) @ d) for r in range(7))
        want = 0.5 * (tr(c @ inv(d)) - tr(inv(g) @ c) * tr(inv(g) @ d)) - psi_term / 6.0
        assert got == pytest.approx(want, abs=1e-10)


class TestU1Merging:
    def test_merger_is_single_character_loop(self):
        n, m = 4, -3
        c, d = 0.8 + 0.1j, -1.1 + 0.6j
        wn = linear_loop(build_representation(GroupSpec("u1power", n)), np.array([[c]]))
        wm = linear_loop(build_representation(GroupSpec("u1power", m)), np.array([[d]]))
        merged = total_merge(wn, wm)
        z = np.array([[np.exp(0.31j)]])
        want = -c * d * n * m * np.exp(0.31j) ** (n + m)
        assert merged.evaluate(z) == pytest.approx(want, abs=1e-12)

    def test_laplacian_of_character(self):
        n, c = 5, 2.0 - 1.0j
        w = linear_loop(build_representation(GroupSpec("u1power", n)), np.array([[c]]))
        z = np.array([[np.exp(1.7j)]])
        assert laplacian(w).evaluate(z) == pytest.approx(-n ** 2 * w.evaluate(z), abs=1e-12)


def generator_merge(w1, j, w2, j2, g):
    """Oracle: the merge as the sum over generator insertions at ``g``."""
    sgn = w1.signs[j - 1] * w2.signs[j2 - 1]
    return sgn * sum(insert_generator(w1, j, x1).evaluate(g) * insert_generator(w2, j2, x2).evaluate(g)
                     for x1, x2 in zip(w1.rep.generators, w2.rep.generators))


def generator_twist(w, j, j2, g):
    """Oracle: the twist as the sum over generator insertions at ``g``."""
    sgn = w.signs[j - 1] * w.signs[j2 - 1]
    return sgn * sum(insert_generator(insert_generator(w, j, x), j2, x).evaluate(g)
                     for x in w.rep.generators)


@pytest.mark.parametrize("key", ["so2", "so4", "sp1", "sp2", "u2", "u3", "su2", "su4", "g2", "u1mixed"])
def test_closed_form_matches_generator_sum(key):
    """50 random (loop, g) instances per family: the production merge/twist,
    read from the completeness table, equal the generator-insertion sums."""
    u1 = [build_representation(GroupSpec("u1power", n)) for n in (-2, 1, 3)]
    rep = u1[0] if key == "u1mixed" else REP[key]
    rng = np.random.default_rng(sum(map(ord, key)))
    for trial in range(50):
        w1 = rand_loop(rng, u1[trial % 3] if key == "u1mixed" else rep)
        w2 = rand_loop(rng, u1[(trial + 1) % 3] if key == "u1mixed" else rep)
        g = sample(rep, trial % 7)
        j, j2 = int(rng.integers(1, w1.n_slots + 1)), int(rng.integers(1, w2.n_slots + 1))
        got = merge_at(w1, j, w2, j2).evaluate(g)
        want = generator_merge(w1, j, w2, j2, g)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want))
        if w1.n_slots >= 2:
            spots = rng.choice(np.arange(1, w1.n_slots + 1), size=2, replace=False)
            ja, jb = int(spots[0]), int(spots[1])
            got = twist_at(w1, ja, jb).evaluate(g)
            want = generator_twist(w1, ja, jb, g)
            assert abs(got - want) <= 1e-11 * (1.0 + abs(want))


@pytest.mark.parametrize("spec, count", [
    (GroupSpec("u", 3), 1), (GroupSpec("u1power", 2), 1), (GroupSpec("su", 3), 2),
    (GroupSpec("so", 4), 2), (GroupSpec("sp", 2), 2), (GroupSpec("g2"), 9),
])
def test_merge_term_count(spec, count):
    """One term per completeness term, not one per generator."""
    rep = build_representation(spec)
    w = linear_loop(rep, np.eye(rep.dim))
    assert len(merge_at(w, 1, w, 1).terms) == count


def dirderiv(w, g, xi, h=1e-5):
    plus = w.evaluate(g @ scipy.linalg.expm(h * xi))
    minus = w.evaluate(g @ scipy.linalg.expm(-h * xi))
    return (plus - minus) / (2.0 * h)


class TestDifferentialOracles:
    @pytest.mark.parametrize("key", ["su2", "so3", "sp1"])
    def test_total_merge_is_gradient_pairing(self, key):
        rep = REP[key]
        rng = np.random.default_rng(30)
        w1, w2 = rand_loop(rng, rep, 2), rand_loop(rng, rep, 2)
        g = sample(rep, 31)
        got = total_merge(w1, w2).evaluate(g)
        want = sum(dirderiv(w1, g, xi) * dirderiv(w2, g, xi) for xi in rep.generators)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(got))

    def test_merging_symmetry(self):
        rep = REP["u2"]
        rng = np.random.default_rng(32)
        w1, w2 = rand_loop(rng, rep, 3), rand_loop(rng, rep, 3)
        g = sample(rep, 33)
        a = total_merge(w1, w2).evaluate(g)
        b = total_merge(w2, w1).evaluate(g)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))

    def test_linear_loop_laplacian_has_no_twist(self):
        rep = REP["su2"]
        w = linear_loop(rep, np.array([[1.0, 2.0], [0.0, 1.0]]))
        lap = laplacian(w)
        assert len(lap.terms) == 1
        g = sample(rep, 34)
        assert lap.evaluate(g) == pytest.approx(rep.lam * w.evaluate(g), abs=1e-12)

    def test_laplacian_second_difference(self):
        rep = REP["so3"]
        rng = np.random.default_rng(35)
        w = loop(rep, [rand_coeff(rng, 3), rand_coeff(rng, 3)],
                 [1, int(rng.choice([1, -1]))])
        g = sample(rep, 36)
        h = 1e-4
        fd = sum(
            (w.evaluate(g @ scipy.linalg.expm(h * xi)) - 2.0 * w.evaluate(g)
             + w.evaluate(g @ scipy.linalg.expm(-h * xi))) / h ** 2
            for xi in rep.generators
        )
        assert abs(laplacian(w).evaluate(g) - fd) <= 1e-7 * (1.0 + abs(fd))


class TestSlotBookkeeping:
    def test_insert_generator_positions(self):
        rep = REP["u2"]
        rng = np.random.default_rng(40)
        a, b = rand_coeff(rng, 2), rand_coeff(rng, 2)
        xi = rep.generators[0]
        g = sample(rep, 41)
        w = loop(rep, [a, b], [1, -1])
        # + slot 1: xi lands after the g, i.e. left of b
        got = insert_generator(w, 1, xi).evaluate(g)
        want = np.trace(a @ g @ xi @ b @ np.conj(g).T)
        assert abs(got - want) <= 1e-13
        # - slot 2: xi lands before the g^{-1}, i.e. right of b
        got = insert_generator(w, 2, xi).evaluate(g)
        want = np.trace(a @ g @ b @ xi @ np.conj(g).T)
        assert abs(got - want) <= 1e-13

    def test_position_validation(self):
        rep = REP["u2"]
        w = linear_loop(rep, np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            merge_at(w, 2, w, 1)
        with pytest.raises(ValueError, match="distinct"):
            twist_at(loop(rep, [np.eye(2)] * 2, [1, 1]), 1, 1)
        with pytest.raises(ValueError, match="different groups"):
            merge_at(w, 1, linear_loop(REP["u3"], np.eye(3)), 1)


def slot_matrices(rep, g, pattern):
    """Per-slot matrices whose full contraction with the coefficient tensor
    reproduces the loop product at ``g``."""
    gp = rep.rho(g, 1)
    gm_t = rep.rho(g, -1).T  # [i', j'] entry equals rho(g^{-1})_{j' i'}
    return [gp if s == 1 else gm_t for s in pattern]


def contract_with_slots(a, mats):
    args = []
    for s, m in enumerate(mats):
        args.extend([m, [2 * s, 2 * s + 1]])
    args.extend([a, list(range(2 * len(mats)))])
    args.append([])
    return complex(np.einsum(*args))


class TestLoopsToTensor:
    def test_single_loop_is_transposed_coefficient(self):
        rep = REP["u3"]
        rng = np.random.default_rng(50)
        c = rand_coeff(rng, 3)
        a, pattern = loops_to_tensor([linear_loop(rep, c)])
        assert pattern == (1,)
        assert np.allclose(a, c.T)

    def test_abs_trace_squared_pattern(self):
        rep = REP["u2"]
        a, pattern = loops_to_tensor([linear_loop(rep, np.eye(2)),
                                      linear_loop(rep, np.eye(2), -1)])
        assert pattern == (1, -1)
        g = sample(rep, 51)
        val = contract_with_slots(a, slot_matrices(rep, g, pattern))
        assert val == pytest.approx(abs(np.trace(g)) ** 2, abs=1e-12)

    def test_against_evaluate_on_random_elements(self):
        rep = REP["su2"]
        rng = np.random.default_rng(52)
        loops = [rand_loop(rng, rep, 2) for _ in range(3)]
        a, pattern = loops_to_tensor(loops)
        for seed in range(20):
            g = sample(rep, 100 + seed)
            want = np.prod([w.evaluate(g) for w in loops])
            got = contract_with_slots(a, slot_matrices(rep, g, pattern))
            assert abs(got - want) <= 1e-11 * (1.0 + abs(want))

    def test_mixed_reps_rejected(self):
        with pytest.raises(ValueError, match="different groups"):
            loops_to_tensor([linear_loop(REP["u2"], np.eye(2)),
                             linear_loop(REP["u3"], np.eye(3))])


class TestConjugateLoop:
    @pytest.mark.parametrize("key", ["u2", "so3", "sp1"])
    def test_pointwise_conjugation(self, key):
        rep = REP[key]
        rng = np.random.default_rng(60)
        w = rand_loop(rng, rep, 3)
        g = sample(rep, 61)
        assert conjugate_loop(w).evaluate(g) == pytest.approx(np.conj(w.evaluate(g)), abs=1e-12)


class TestJson:
    def test_loop_round_trip(self):
        rep = REP["su2"]
        rng = np.random.default_rng(70)
        w = rand_loop(rng, rep, 3)
        back = loop_from_json(json.loads(json.dumps(loop_to_json(w))))
        assert back.rep.spec == w.rep.spec
        assert back.scale == w.scale
        for (c1, s1), (c2, s2) in zip(w.factors, back.factors):
            assert s1 == s2
            assert np.array_equal(c1, c2)

    def test_loopsum_round_trip_with_pairs(self):
        rep = REP["u2"]
        rng = np.random.default_rng(71)
        s = LoopSum((rand_loop(rng, rep, 2),
                     LoopPair(rand_loop(rng, rep, 1), rand_loop(rng, rep, 2))))
        back = loopsum_from_json(json.loads(json.dumps(loopsum_to_json(s))))
        g = sample(rep, 72)
        assert back.evaluate(g) == pytest.approx(s.evaluate(g), abs=1e-13)

    def test_empty_sum_evaluates_to_zero(self):
        assert LoopSum().evaluate(np.eye(2)) == 0.0
