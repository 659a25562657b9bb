"""Moment-operator tests: tensor Casimir, projectors, Weingarten, expectations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgm import moments
from lgm.catalog import GroupSpec, RepData, build_representation
from lgm.loops import LoopPair, LoopSum, linear_loop, loop, loops_to_tensor, total_merge
from lgm.moments import (BudgetError, MeasureSpec, SpectralGapError, brownian_moment,
                         expect_product, haar_moment, moment_operator, spanning_set,
                         tensor_casimir, weingarten)
from lgm.sampling import RngSpec, brownian_path_batch, haar_sample

U2 = build_representation(GroupSpec("u", 2))
U3 = build_representation(GroupSpec("u", 3))
SU2 = build_representation(GroupSpec("su", 2))
SO3 = build_representation(GroupSpec("so", 3))
SP1 = build_representation(GroupSpec("sp", 1))
G2 = build_representation(GroupSpec("g2"))
U1_2 = build_representation(GroupSpec("u1power", 2))


def brute_tensor_casimir(rep, n, nprime):
    """Independent oracle: sum over a of the squared generator action."""
    d, m = rep.dim, n + nprime
    total = np.zeros((d ** m, d ** m), dtype=complex)
    for xi in rep.generators:
        op = np.zeros((d ** m, d ** m), dtype=complex)
        for r in range(m):
            mats = [np.eye(d, dtype=complex)] * m
            mats[r] = xi if r < n else -xi.T
            acc = mats[0]
            for piece in mats[1:]:
                acc = np.kron(acc, piece)
            op += acc
        total += op @ op
    return total


def tensor_rep_matrix(rep, g, n, nprime):
    acc = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        acc = np.kron(acc, rep.rho(g))
    for _ in range(nprime):
        acc = np.kron(acc, np.conj(rep.rho(g)))
    return acc


def sample(rep, seed):
    if rep.spec.family == "g2":
        return brownian_path_batch(rep, 5.0, 100, RngSpec(seed), 1)[0]
    return haar_sample(rep, RngSpec(seed))


class TestTensorCasimir:
    def test_single_factor_is_lambda(self):
        for rep in (U2, SO3, G2):
            c = tensor_casimir(rep, 1, 0)
            assert np.allclose(c, rep.lam * np.eye(rep.dim), atol=1e-12)

    def test_u1_square_of_character(self):
        rep = build_representation(GroupSpec("u1power", 1))
        assert tensor_casimir(rep, 2, 0)[0, 0] == pytest.approx(-4.0, abs=1e-13)

    def test_su2_mixed_spectrum(self):
        w = np.linalg.eigvalsh(tensor_casimir(SU2, 1, 1))
        assert np.allclose(np.sort(w), [-4.0, -4.0, -4.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("rep,n,nprime", [
        (SU2, 1, 1), (SU2, 2, 1), (SO3, 2, 0), (U2, 2, 1), (SP1, 1, 1), (G2, 2, 0),
    ], ids=["su2-11", "su2-21", "so3-20", "u2-21", "sp1-11", "g2-20"])
    def test_against_generator_action_oracle(self, rep, n, nprime):
        got = tensor_casimir(rep, n, nprime)
        want = brute_tensor_casimir(rep, n, nprime)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_hermitian_and_nonpositive(self):
        c = tensor_casimir(U3, 2, 1)
        assert np.linalg.norm(c - c.conj().T) <= 1e-11 * np.linalg.norm(c)
        assert np.max(np.linalg.eigvalsh(0.5 * (c + c.conj().T))) <= 1e-8

    def test_budget_guard(self):
        rep = build_representation(GroupSpec("u", 4))
        with pytest.raises(BudgetError) as err:
            tensor_casimir(rep, 4, 3)
        assert err.value.required == 4 ** 7
        assert "16384" in str(err.value)


class TestHaarMoment:
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_unitary_first_moment_pair(self, n_dim):
        rep = build_representation(GroupSpec("u", n_dim))
        t = haar_moment(rep, 1, 1).matrix.reshape((n_dim,) * 4)
        ref = np.einsum("ab,cd->abcd", np.eye(n_dim), np.eye(n_dim)) / n_dim
        assert np.max(np.abs(t - ref)) <= 1e-10

    def test_g2_second_moment(self):
        t = haar_moment(G2, 2, 0).matrix.reshape(7, 7, 7, 7)
        ref = np.einsum("ab,cd->abcd", np.eye(7), np.eye(7)) / 7.0
        assert np.max(np.abs(t - ref)) <= 1e-9

    @pytest.mark.parametrize("rep", [U2, SU2, SO3, SP1, G2],
                             ids=lambda r: r.spec.label())
    def test_first_moment_vanishes(self, rep):
        assert np.linalg.norm(haar_moment(rep, 1, 0).matrix) <= 1e-10

    def test_projector_properties(self):
        sp2 = build_representation(GroupSpec("sp", 2))
        su3 = build_representation(GroupSpec("su", 3))
        u4 = build_representation(GroupSpec("u", 4))
        so4 = build_representation(GroupSpec("so", 4))
        cases = ((U2, 2, 2), (SO3, 2, 0), (SO3, 2, 2), (SP1, 1, 1), (SP1, 2, 2),
                 (sp2, 2, 0), (su3, 1, 1), (su3, 2, 0), (u4, 1, 1), (so4, 2, 0),
                 (G2, 2, 0))
        for rep, n, nprime in cases:
            p = haar_moment(rep, n, nprime).matrix
            assert np.linalg.norm(p @ p - p) <= 1e-10 * max(1.0, np.linalg.norm(p))
            assert np.linalg.norm(p - p.conj().T) <= 1e-10
            eigs = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
            assert np.all((np.abs(eigs) <= 1e-8) | (np.abs(eigs - 1.0) <= 1e-8))

    def test_nullspace_dimension_equals_invariant_count(self):
        for rep, n, nprime in ((U3, 2, 2), (SO3, 2, 0), (G2, 2, 0)):
            ss = spanning_set(rep, n, nprime, "nullspace")
            assert ss.vectors.shape[0] == haar_moment(rep, n, nprime).rank

    def test_commutes_with_tensor_representation(self):
        op = haar_moment(U2, 1, 1)
        for seed in range(10):
            g = sample(U2, seed)
            rg = tensor_rep_matrix(U2, g, 1, 1)
            assert np.linalg.norm(op.matrix @ rg - rg @ op.matrix) <= 1e-9

    def test_rank_counts_invariants(self):
        assert haar_moment(U3, 2, 2).rank == 2
        assert haar_moment(G2, 2, 0).rank == 1
        assert haar_moment(U2, 1, 0).rank == 0

    def test_spectral_gap_guard(self):
        # a synthetic 1-dim rep whose Casimir sits inside the guard band
        a = np.sqrt(5e-8)
        fake = RepData(spec=GroupSpec("u1power", 1), dim=1,
                       generators=np.array([[[1j * a]]]),
                       casimir=np.array([[-(a ** 2)]]), lam=-(a ** 2))
        with pytest.raises(SpectralGapError):
            haar_moment(fake, 1, 0)


class TestBrownianMoment:
    def test_short_time_is_identity(self):
        b = brownian_moment(SU2, 1, 1, 1e-12).matrix
        assert np.linalg.norm(b - np.eye(4)) <= 1e-9

    def test_u1_character_decay(self):
        for n, t in ((1, 1.0), (3, 0.4)):
            rep = build_representation(GroupSpec("u1power", n))
            b = brownian_moment(rep, 1, 0, t).matrix
            assert b[0, 0] == pytest.approx(np.exp(-0.5 * n * n * t), abs=1e-13)

    def test_semigroup(self):
        for rep, n, nprime in ((SU2, 1, 1), (U2, 2, 0)):
            b1 = brownian_moment(rep, n, nprime, 0.6).matrix
            b2 = brownian_moment(rep, n, nprime, 1.3).matrix
            b3 = brownian_moment(rep, n, nprime, 1.9).matrix
            assert np.linalg.norm(b1 @ b2 - b3) <= 1e-10

    def test_long_time_limit_is_haar(self):
        for rep in (SU2, U2):
            for n, nprime in ((1, 1), (2, 1), (3, 0)):
                b = brownian_moment(rep, n, nprime, 50.0).matrix
                h = haar_moment(rep, n, nprime).matrix
                assert np.max(np.abs(b - h)) <= 1e-8

    def test_eigenvalues_in_unit_interval_and_monotone(self):
        w1 = np.linalg.eigvalsh(brownian_moment(SU2, 1, 1, 0.5).matrix)
        w2 = np.linalg.eigvalsh(brownian_moment(SU2, 1, 1, 1.5).matrix)
        for w in (w1, w2):
            assert np.all(w > 0.0) and np.all(w <= 1.0 + 1e-12)
        assert np.all(w2 <= w1 + 1e-12)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            brownian_moment(SU2, 1, 0, 0.0)


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
    return cycles


def compose(p, q):
    """(p o q)(k) = p[q[k]]."""
    return tuple(p[q[k]] for k in range(len(p)))


def invert(p):
    out = [0] * len(p)
    for k, v in enumerate(p):
        out[v] = k
    return tuple(out)


# partition data for n <= 3: (eigenvalue product over cells, multiplicity)
def partition_eigen(n, n_dim):
    if n == 2:
        return [(n_dim * (n_dim + 1), 1), (n_dim * (n_dim - 1), 1)]
    if n == 3:
        return [
            (n_dim * (n_dim + 1) * (n_dim + 2), 1),
            ((n_dim - 1) * n_dim * (n_dim + 1), 4),
            ((n_dim - 2) * (n_dim - 1) * n_dim, 1),
        ]
    raise ValueError(n)


class TestSpanningSetsAndWeingarten:
    def test_identity_permutation_vector(self):
        ss = spanning_set(U3, 1, 1, "permutations")
        assert ss.labels == ((0,),)
        assert np.allclose(ss.vectors[0].reshape(3, 3), np.eye(3))

    def test_two_permutations_for_n2(self):
        ss = spanning_set(U3, 2, 2, "permutations")
        assert set(ss.labels) == {(0, 1), (1, 0)}

    def test_all_vectors_annihilated_by_casimir(self):
        for rep, n, nprime, source in (
            (U3, 2, 2, "permutations"),
            (SO3, 2, 2, "pairings"),
            (SP1, 1, 1, "pairings"),
            (SP1, 2, 0, "pairings"),
            (G2, 2, 0, "g2u"),
            (SU2, 2, 2, "nullspace"),
        ):
            ss = spanning_set(rep, n, nprime, source)
            c = tensor_casimir(rep, n, nprime)
            for v in ss.vectors:
                assert np.linalg.norm(c @ v) <= 1e-9 * np.linalg.norm(v)

    def test_source_compatibility(self):
        with pytest.raises(ValueError):
            spanning_set(SO3, 1, 1, "permutations")  # U and SU families only
        with pytest.raises(ValueError):
            spanning_set(U3, 2, 1, "permutations")  # needs n = n'
        with pytest.raises(ValueError):
            spanning_set(G2, 3, 0, "g2u")
        with pytest.raises(ValueError):
            spanning_set(SO3, 2, 1, "pairings")  # odd slot count

    def test_g2_weingarten_is_one_seventh(self):
        wm = weingarten(spanning_set(G2, 2, 0, "g2u"))
        assert wm.gram.shape == (1, 1)
        assert abs(wm.gram[0, 0] - 7.0) <= 1e-12
        assert abs(wm.wg[0, 0] - 1.0 / 7.0) <= 1e-12
        assert np.max(np.abs(wm.moment_matrix() - haar_moment(G2, 2, 0).matrix)) <= 1e-9

    def test_u_n1_gram(self):
        for n_dim in (2, 5):
            rep = build_representation(GroupSpec("u", n_dim))
            wm = weingarten(spanning_set(rep, 1, 1, "permutations"))
            assert abs(wm.gram[0, 0] - n_dim) <= 1e-12
            assert abs(wm.wg[0, 0] - 1.0 / n_dim) <= 1e-12
            assert np.max(np.abs(wm.moment_matrix() - haar_moment(rep, 1, 1).matrix)) <= 1e-9

    def test_u3_n2_gram_and_wg_entries(self):
        wm = weingarten(spanning_set(U3, 2, 2, "permutations"))
        idx = {lab: k for k, lab in enumerate(wm.spanning.labels)}
        e, swap = idx[(0, 1)], idx[(1, 0)]
        assert wm.gram[e, e] == pytest.approx(9.0, abs=1e-12)
        assert wm.gram[e, swap] == pytest.approx(3.0, abs=1e-12)
        assert wm.wg[e, e] == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert wm.wg[e, swap] == pytest.approx(-1.0 / 24.0, abs=1e-12)

    def test_gram_entries_count_cycles(self):
        ss = spanning_set(U3, 3, 3, "permutations")
        wm = weingarten(ss)
        for a, sa in enumerate(ss.labels):
            for b, sb in enumerate(ss.labels):
                k = cycle_count(compose(invert(sb), sa))
                assert wm.gram[a, b] == pytest.approx(3.0 ** k, abs=1e-10)

    @pytest.mark.parametrize("n_dim,n", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_weingarten_reconstructs_haar(self, n_dim, n):
        rep = build_representation(GroupSpec("u", n_dim))
        wm = weingarten(spanning_set(rep, n, n, "permutations"))
        h = haar_moment(rep, n, n).matrix
        assert np.max(np.abs(wm.moment_matrix() - h)) <= 1e-9

    def test_rank_deficient_gram_still_reconstructs(self):
        rep = build_representation(GroupSpec("u", 2))
        wm = weingarten(spanning_set(rep, 3, 3, "permutations"))
        gram_eigs = np.linalg.eigvalsh(wm.gram)
        assert np.min(np.abs(gram_eigs)) <= 1e-9  # N < n forces rank deficiency
        h = haar_moment(rep, 3, 3).matrix
        assert np.max(np.abs(wm.moment_matrix() - h)) <= 1e-9

    @pytest.mark.parametrize("n_dim,n", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_gram_eigenvalues_match_partition_products(self, n_dim, n):
        rep = build_representation(GroupSpec("u", n_dim))
        wm = weingarten(spanning_set(rep, n, n, "permutations"))
        got = np.sort(np.linalg.eigvalsh(wm.gram))
        want = np.sort([v for v, mult in partition_eigen(n, n_dim) for _ in range(mult)])
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_moore_penrose_properties_of_wg(self):
        wm = weingarten(spanning_set(U2, 3, 3, "permutations"))
        g, w = wm.gram, wm.wg
        scale = max(np.linalg.norm(g), 1.0)
        assert np.linalg.norm(g @ w @ g - g) <= 1e-9 * scale
        assert np.linalg.norm(w @ g @ w - w) <= 1e-9 * scale
        assert np.linalg.norm((w.conj().T @ g) - (g @ w)) <= 1e-9 * scale
        assert np.linalg.norm((g @ w.conj().T) - (w @ g)) <= 1e-9 * scale

    def test_nullspace_matches_pairings_span(self):
        ss = spanning_set(SO3, 2, 2, "pairings")
        assert haar_moment(SO3, 2, 2).rank == 3
        wm = weingarten(ss)
        assert np.max(np.abs(wm.moment_matrix() - haar_moment(SO3, 2, 2).matrix)) <= 1e-9


class TestExpectProduct:
    def test_abs_trace_squared(self):
        for n_dim in (2, 3, 4):
            rep = build_representation(GroupSpec("u", n_dim))
            val = expect_product(
                [linear_loop(rep, np.eye(n_dim)), linear_loop(rep, np.eye(n_dim), -1)],
                MeasureSpec.haar())
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_single_trace_vanishes(self):
        val = expect_product([linear_loop(SU2, np.eye(2))], MeasureSpec.haar())
        assert abs(val) <= 1e-12

    def test_u1_fourier_pairing(self):
        rng = np.random.default_rng(17)
        exps = [-3, -1, 0, 2, 4]
        c1 = {n: complex(*rng.standard_normal(2)) for n in exps}
        c2 = {n: complex(*rng.standard_normal(2)) for n in exps + [1, 3]}
        mk = lambda coeffs: LoopSum(tuple(
            linear_loop(build_representation(GroupSpec("u1power", n)),
                        np.array([[c]])) for n, c in coeffs.items()))
        got = expect_product([mk(c1), mk(c2)], MeasureSpec.haar())
        want = sum(c1[n] * c2[-n] for n in c1 if -n in c2)
        assert abs(got - want) <= 1e-12

    def test_u1_brownian_products(self):
        rep2 = build_representation(GroupSpec("u1power", 2))
        rep3 = build_representation(GroupSpec("u1power", -3))
        w2 = linear_loop(rep2, np.array([[1.5]]))
        w3 = linear_loop(rep3, np.array([[0.5 - 1.0j]]))
        got = expect_product([w2, w3], MeasureSpec.brownian(0.8))
        want = 1.5 * (0.5 - 1.0j) * np.exp(-0.5 * 0.8 * (2 - 3) ** 2)
        assert abs(got - want) <= 1e-12

    def test_off_balance_unitary_moments_vanish(self):
        for n, nprime in ((1, 0), (2, 1)):
            for n_dim in (2, 3):
                rep = build_representation(GroupSpec("u", n_dim))
                assert np.linalg.norm(haar_moment(rep, n, nprime).matrix) <= 1e-10

    def test_merge_sum_expectation(self):
        # E[M(W1, W2)] under Haar is computable both as a LoopSum expectation
        # and term by term
        rng = np.random.default_rng(18)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w1, w2 = linear_loop(SU2, a), linear_loop(SU2, b, -1)
        ms = total_merge(w1, w2)
        got = expect_product([ms], MeasureSpec.haar())
        want = sum(expect_product([t.left, t.right] if isinstance(t, LoopPair) else [t],
                                  MeasureSpec.haar()) for t in ms.terms)
        assert abs(got - want) <= 1e-12

    def test_mixed_matrix_reps_rejected(self):
        with pytest.raises(ValueError, match="different groups"):
            expect_product([linear_loop(U2, np.eye(2)), linear_loop(U3, np.eye(3))],
                           MeasureSpec.haar())

    def test_wilson_requires_samples(self):
        meas = MeasureSpec.wilson(0.1, [linear_loop(U2, np.eye(2))])
        with pytest.raises(ValueError, match="sample count"):
            expect_product([linear_loop(U2, np.eye(2))], meas)


class TestMeasureSpec:
    def test_parse(self):
        assert MeasureSpec.parse("haar").kind == "haar"
        m = MeasureSpec.parse("brownian:t=1.5")
        assert (m.kind, m.t) == ("brownian", 1.5)
        w = MeasureSpec.parse("wilson:beta=0.25", plaquettes=[linear_loop(U2, np.eye(2))])
        assert (w.kind, w.beta, len(w.plaquettes)) == ("wilson", 0.25, 1)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            MeasureSpec.parse("brownian")
        with pytest.raises(ValueError):
            MeasureSpec.parse("gibbs:beta=1")

    def test_validation(self):
        with pytest.raises(ValueError, match="t > 0"):
            MeasureSpec.brownian(-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                MeasureSpec.brownian(bad)
            with pytest.raises(ValueError, match="finite"):
                MeasureSpec.wilson(bad, [linear_loop(U2, np.eye(2))])
        with pytest.raises(ValueError, match="finite"):
            MeasureSpec.parse("wilson:beta=nan")
        with pytest.raises(ValueError, match="linear"):
            MeasureSpec.wilson(0.1, [loop(U2, [np.eye(2), np.eye(2)], [1, 1])])

    @pytest.mark.parametrize("t", [float("inf"), float("nan"), 0.0])
    def test_brownian_moment_needs_finite_positive_t(self, t):
        with pytest.raises(ValueError, match="finite t > 0"):
            brownian_moment(SU2, 1, 1, t)


class TestBudgetAndCaches:
    def test_budget_checked_on_cache_hit(self):
        haar = MeasureSpec.haar()
        op = moment_operator(U2, 3, 2, haar, budget=64)
        assert op.matrix.shape == (32, 32)
        with pytest.raises(BudgetError) as err:
            moment_operator(U2, 3, 2, haar, budget=16)
        assert err.value.required == 32
        with pytest.raises(BudgetError):
            haar_moment(U2, 3, 2, budget=16)

    def test_one_cache_entry_per_operator(self):
        haar = MeasureSpec.haar()
        moment_operator(U2, 3, 2, haar, budget=64)
        moment_operator(U2, 3, 2, haar, budget=4096)
        assert sum(1 for key in moments._MOMENT_CACHE if key[:3] == (U2, 3, 2)) == 1

    @pytest.mark.parametrize("rep,n,nprime,source", [
        (U2, 2, 2, "permutations"), (SU2, 1, 1, "permutations"), (SO3, 2, 2, "pairings"),
        (SP1, 1, 1, "pairings"), (G2, 2, 0, "g2u"), (U1_2, 1, 1, "nullspace"),
    ], ids=["u2-22", "su2-11", "so3-22", "sp1-11", "g2-20", "u1^2-11"])
    def test_invariant_layer_is_float64(self, rep, n, nprime, source):
        # one shape per family: every completeness relation is real, so is every array
        assert tensor_casimir(rep, n, nprime).dtype == np.float64
        assert moments._spectral(rep, n, nprime, 4096)[1].dtype == np.float64
        assert haar_moment(rep, n, nprime).matrix.dtype == np.float64
        assert brownian_moment(rep, n, nprime, 0.5).matrix.dtype == np.float64
        for src in {source, "nullspace"}:
            wm = weingarten(spanning_set(rep, n, nprime, src))
            for a in (wm.spanning.vectors, wm.gram, wm.wg, wm.moment_matrix()):
                assert a.dtype == np.float64
        if source in ("permutations", "pairings"):
            assert moments._route_wg(rep, n, nprime, source).dtype == np.float64

    @pytest.mark.parametrize("rep,n,nprime", [
        (U2, 2, 1), (SU2, 2, 2), (SO3, 3, 0), (SP1, 1, 2), (G2, 2, 0),
    ], ids=["u2-21", "su2-22", "so3-30", "sp1-12", "g2-20"])
    def test_matrix_free_casimir_matches_assembled(self, rep, n, nprime):
        rng = np.random.default_rng(5)
        dim = rep.dim ** (n + nprime)
        vecs = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
        want = vecs @ tensor_casimir(rep, n, nprime).T
        got = moments._apply_casimir(rep, n, nprime, vecs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_invariance_check_refuses_a_perturbed_vector(self, monkeypatch):
        real = moments._label_vectors

        def perturbed(*args):
            labels, vecs = real(*args)
            vecs = vecs.copy()
            vecs[1, 0] += 1e-3
            return labels, vecs

        monkeypatch.setattr(moments, "_label_vectors", perturbed)
        with pytest.raises(RuntimeError, match="not invariant"):
            spanning_set(U3, 2, 2, "permutations")

    def test_permutation_spanning_set_needs_no_spectrum(self):
        u4 = build_representation(GroupSpec("u", 4))
        saved = dict(moments._SPECTRAL_CACHE)
        moments._SPECTRAL_CACHE.clear()
        try:
            weingarten(spanning_set(u4, 3, 3, "permutations"))
            assert not moments._SPECTRAL_CACHE
        finally:
            moments._SPECTRAL_CACHE.update(saved)


SO4 = build_representation(GroupSpec("so", 4))
SO5 = build_representation(GroupSpec("so", 5))
SU3 = build_representation(GroupSpec("su", 3))
SP2 = build_representation(GroupSpec("sp", 2))
U6 = build_representation(GroupSpec("u", 6))

# every (rep, n, n') whose Casimir route runs with D <= 729
ROUTE_SHAPES = [(rep, n, m - n) for rep in (U2, U3, SU2, SU3, SO3, SO4, SO5, SP1, SP2, G2, U1_2)
                for m in range(1, 10) for n in range(m + 1)
                if rep.dim ** m <= 729 and m <= (4 if rep is U1_2 else 9)]


def casimir_route_value(flat):
    """Oracle: the loop tensor contracted with the tensor-Casimir null-space projector."""
    a, pattern = loops_to_tensor(flat)
    n = pattern.count(1)
    m = len(pattern)
    t = haar_moment(flat[0].rep, n, m - n).as_tensor()
    subs: list[int] = []
    for s in range(m):
        subs.extend([s, m + s])
    return complex(np.einsum(a, subs, t, list(range(2 * m)), []))


def random_product(rng, rep, n, nprime):
    """Random loops carrying n + slots and n' - slots, in random order and grouping."""
    signs = list(rng.permutation([1] * n + [-1] * nprime))
    flat = []
    while signs:
        k = int(rng.integers(1, len(signs) + 1))
        coeffs = [rng.standard_normal((rep.dim,) * 2) + 1j * rng.standard_normal((rep.dim,) * 2)
                  for _ in range(k)]
        flat.append(loop(rep, coeffs, [int(s) for s in signs[:k]], complex(*rng.standard_normal(2))))
        signs = signs[k:]
    bound = np.prod([abs(w.scale) * np.prod([np.linalg.norm(c) for c, _ in w.factors]) for w in flat])
    return flat, bound


class TestExpectationRoutes:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ROUTE_SHAPES), st.integers(0, 2 ** 32 - 1))
    @example((SO3, 3, 0), 1)  # the Casimir-route fallbacks
    @example((SO4, 2, 2), 2)
    @example((SU3, 3, 0), 3)
    @example((U3, 2, 1), 4)  # exact zeros
    @example((SU3, 2, 1), 5)
    @example((SO4, 2, 1), 6)
    @example((SP1, 2, 1), 7)
    def test_routes_agree_with_casimir_route(self, shape, seed):
        rep, n, nprime = shape
        flat, bound = random_product(np.random.default_rng(seed), rep, n, nprime)
        got = expect_product(flat, MeasureSpec.haar())
        assert abs(got - casimir_route_value(flat)) <= 1e-10 * max(1.0, bound)

    @pytest.mark.parametrize("rep,n,nprime,route", [
        (U3, 2, 2, "weingarten:permutations"), (U3, 2, 1, "zero"),
        (SU3, 2, 2, "weingarten:permutations"), (SU3, 2, 1, "zero"), (SU3, 3, 0, "casimir"),
        (SU2, 2, 0, "casimir"), (SP2, 2, 2, "weingarten:pairings"), (SP1, 2, 1, "zero"),
        (SO3, 2, 0, "weingarten:pairings"), (SO3, 3, 0, "casimir"), (SO3, 4, 1, "casimir"),
        (SO4, 2, 2, "casimir"), (SO4, 2, 1, "zero"), (SO5, 4, 0, "weingarten:pairings"),
        (G2, 2, 0, "casimir"), (U1_2, 2, 1, "characters"),
        (U2, 5, 5, "casimir"),  # 120 permutations: L**2 over the budget, D = 1024 fits
    ], ids=lambda x: x.spec.label() if isinstance(x, RepData) else str(x))
    def test_route_decisions(self, rep, n, nprime, route):
        assert moments._route(rep, n, nprime, MeasureSpec.haar()) == route

    def test_brownian_takes_the_casimir_route(self):
        assert moments._route(U3, 1, 1, MeasureSpec.brownian(0.5)) == "casimir"

    def test_neither_route_fits(self):
        with pytest.raises(BudgetError):
            moments._route(U3, 5, 5, MeasureSpec.haar())

    @pytest.mark.parametrize("rep,n,nprime,source", [
        (U3, 2, 2, "permutations"), (U3, 3, 3, "permutations"), (SU3, 2, 2, "permutations"),
        (SP2, 2, 2, "pairings"), (SO5, 4, 0, "pairings"),
    ], ids=["u3-22", "u3-33", "su3-22", "sp2-22", "so5-40"])
    def test_route_wg_matches_weingarten_map(self, rep, n, nprime, source):
        want = weingarten(spanning_set(rep, n, nprime, source)).wg
        assert np.max(np.abs(moments._route_wg(rep, n, nprime, source) - want)) <= 1e-12

    def test_u6_eighth_moment_at_default_budget(self):
        before = (len(moments._SPECTRAL_CACHE), len(moments._MOMENT_CACHE))
        chars = [linear_loop(U6, np.eye(6))] * 4 + [linear_loop(U6, np.eye(6), -1)] * 4
        assert abs(expect_product(chars, MeasureSpec.haar()) - 24.0) <= 1e-9
        assert (len(moments._SPECTRAL_CACHE), len(moments._MOMENT_CACHE)) == before

    def test_u2_sixth_moment_with_rank_deficient_gram(self):
        chars = [linear_loop(U2, np.eye(2))] * 3 + [linear_loop(U2, np.eye(2), -1)] * 3
        assert abs(expect_product(chars, MeasureSpec.haar()) - 5.0) <= 1e-10
