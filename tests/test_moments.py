"""Moment-operator tests: tensor Casimir, projectors, Weingarten, expectations."""

import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgm import cli, moments
from lgm.catalog import GroupSpec, RepData, build_representation
from lgm.loops import LoopPair, LoopSum, linear_loop, loop, total_merge
from lgm.moments import (DEFAULT_BUDGET, BudgetError, MeasureSpec, SpectralGapError,
                         brownian_moment, expect_product, haar_moment, moment_operator,
                         spanning_set, weingarten)
from lgm.sampling import RngSpec, brownian_path_batch, haar_sample
from test_loops import loops_to_tensor

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


def tensor_casimir(rep, n, nprime, budget=DEFAULT_BUDGET):
    """Dense oracle: the Casimir of ``rho^{(x)n,(x)n'}`` as a ``(D, D)`` real symmetric matrix.

    ``(n+n') lambda`` on the diagonal plus every pair term of
    `moments._pair_terms`, each added in place through a strided view of
    the entries it touches.
    """
    dim_v = moments._check_budget(rep, n, nprime, budget)
    d, m = rep.dim, n + nprime
    c = np.zeros((dim_v, dim_v))
    c.flat[::dim_v + 1] = m * rep.lam
    full = c.reshape((d,) * (2 * m))
    st = full.strides
    for coef, kernel, p, q in moments._pair_terms(moments._kernels(rep), n, nprime):
        rest = [s for s in range(m) if s not in (p, q)]
        # axes i_p, j_p, i_q, j_q, then one shared row/column index per other slot
        view = np.lib.stride_tricks.as_strided(
            full, shape=(d,) * (m + 2),
            strides=(st[p], st[m + p], st[q], st[m + q]) + tuple(st[s] + st[m + s] for s in rest),
            writeable=True)
        view += coef * kernel.reshape(kernel.shape + (1,) * len(rest))
    assert np.linalg.norm(c - c.T) <= 1e-11 * max(1.0, np.linalg.norm(c))
    return c


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

    @pytest.mark.parametrize("rep,n,nprime", [(U3, 2, 2), (SO3, 2, 2), (G2, 3, 0), (SU2, 3, 1)],
                             ids=["u3-22", "so3-22", "g2-30", "su2-31"])
    def test_matrix_reads_the_stored_null_space(self, rep, n, nprime, monkeypatch):
        # the construction Brownian keeps: null rows mapped out of the weight basis again
        (k, z, c), = moments._kept(rep, n, nprime, MeasureSpec.haar())
        v = moments._from_weight_basis(rep, n + nprime, moments._weight_blocks(rep, n, nprime)[k], z)
        v = v * np.sqrt(moments._weights(MeasureSpec.haar(), c)[0])[:, None]
        want = v.T @ v

        def refuse(*args):
            raise AssertionError("the Haar matrix left the weight basis again")

        monkeypatch.setattr(moments, "_from_weight_basis", refuse)
        got = haar_moment(rep, n, nprime).matrix
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_spectral_gap_guard(self, monkeypatch, capsys):
        # a synthetic 1-dim rep whose Casimir sits inside the guard band
        a = np.sqrt(5e-8)
        fake = RepData(spec=GroupSpec("u1power", 1), dim=1,
                       generators=np.array([[[1j * a]]]),
                       casimir=np.array([[-(a ** 2)]]), lam=-(a ** 2))
        with pytest.raises(SpectralGapError):
            haar_moment(fake, 1, 0)
        with pytest.raises(SpectralGapError):
            spanning_set(fake, 1, 0, "nullspace")
        monkeypatch.setattr(cli, "build_representation", lambda spec: fake)
        code = cli.main(["weingarten", "--family", "u1power", "--n", "1", "--order", "1",
                         "--dual-order", "0", "--source", "nullspace", "--out", "json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SpectralGapError"


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

    @pytest.mark.parametrize("n,nprime,rank", [(1, 1, 1), (2, 1, 0)])
    def test_rank_is_the_haar_rank(self, n, nprime, rank):
        # the rank counts invariants whatever the measure
        assert haar_moment(U2, n, nprime).rank == rank
        for t in (0.1, 2.0):
            assert moment_operator(U2, n, nprime, MeasureSpec.brownian(t)).rank == rank


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

    @pytest.mark.parametrize("rep,n,nprime,source,labels", [
        (SP1, 12, 0, "pairings", 10395), (SP1, 6, 6, "pairings", 10395), (U2, 5, 5, "permutations", 120),
        (build_representation(GroupSpec("so", 2)), 12, 0, "pairings", 10395),
    ], ids=["sp1-12-0", "sp1-6-6", "u2-5-5", "so2-12-0"])
    def test_label_sets_capped_by_l_squared(self, rep, n, nprime, source, labels, monkeypatch):
        # D fits the default budget, L**2 does not: refused before any label vector is formed
        monkeypatch.setattr(moments, "_label_vectors", None)
        with pytest.raises(BudgetError, match="L\\*\\*2") as err:
            spanning_set(rep, n, nprime, source)
        assert err.value.required == labels ** 2 and str(labels ** 2) in str(err.value)

    def test_label_set_at_its_l_squared(self):
        ss = spanning_set(U2, 5, 5, "permutations", budget=120 ** 2)
        assert len(ss.labels) == 120

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
        # exact only: a Wilson estimate needs samples, which only mc_expect takes
        meas = MeasureSpec.wilson(0.1, [linear_loop(U2, np.eye(2))])
        with pytest.raises(ValueError, match="mc_expect"):
            expect_product([linear_loop(U2, np.eye(2))], meas)

    @pytest.mark.parametrize("measure", [MeasureSpec.haar(), MeasureSpec.brownian(0.5)],
                             ids=["haar", "brownian"])
    def test_empty_product_is_refused(self, measure):
        with pytest.raises(ValueError, match="need at least one loop"):
            expect_product([], measure)


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

    @pytest.mark.parametrize("text,match", [
        ("brownian:t=0.5,tt=9", "no parameter 'tt'"), ("haar:t=3", "no parameter 't'"),
        ("wilson:beta=0.5,t=1", "no parameter 't'"), ("brownian:t=1,", "no parameter ''"),
        ("brownian:t", "parameter 't' needs a number"), ("brownian:t=", "parameter 't' needs a number"),
        ("wilson:beta=x", "parameter 'beta' needs a number"),
    ])
    def test_parse_refuses_what_the_measure_does_not_read(self, text, match):
        plaquettes = [linear_loop(U2, np.eye(2))] if text.startswith("wilson") else []
        with pytest.raises(ValueError, match=match):
            MeasureSpec.parse(text, plaquettes)

    @pytest.mark.parametrize("text,key", [("brownian:t=1,t=2", "t"), ("brownian:t=1, t=1", "t"),
                                          ("wilson:beta=0.5,beta=0.5", "beta")])
    def test_parse_refuses_repeated_keys(self, text, key):
        plaquettes = [linear_loop(U2, np.eye(2))] if text.startswith("wilson") else None
        with pytest.raises(ValueError, match=f"parameter '{key}' is given twice"):
            MeasureSpec.parse(text, plaquettes)

    @pytest.mark.parametrize("text", ["haar", "brownian:t=0.5"])
    def test_parse_refuses_plaquettes_outside_wilson(self, text):
        for plaquettes in ([linear_loop(U2, np.eye(2))], []):
            with pytest.raises(ValueError, match="reads no plaquettes"):
                MeasureSpec.parse(text, plaquettes)

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

    def test_wilson_needs_plaquettes(self):
        with pytest.raises(ValueError, match="plaquette"):
            MeasureSpec.wilson(0.5, [])
        with pytest.raises(ValueError, match="plaquette"):
            MeasureSpec.parse("wilson:beta=0.5")

    @pytest.mark.parametrize("t", [float("inf"), float("nan"), 0.0])
    def test_brownian_moment_needs_finite_positive_t(self, t):
        with pytest.raises(ValueError, match="finite t > 0"):
            brownian_moment(SU2, 1, 1, t)


class TestBudgetAndCaches:
    def test_budget_checked_before_the_spectrum_cache(self):
        haar = MeasureSpec.haar()
        caches = (moments._null_space, moments._block_eigh)  # the Haar null space, its block
        op = moment_operator(U2, 3, 2, haar, budget=64)
        assert op.matrix.shape == (32, 32)
        cached = [c.cache_info() for c in caches]
        moment_operator(U2, 3, 2, haar, budget=64)
        for cache, before, reads in zip(caches, cached, (1, 0)):  # the warm guard reads no block
            assert cache.cache_info().hits == before.hits + reads
            assert cache.cache_info().misses == before.misses
        cached = [c.cache_info() for c in caches]
        with pytest.raises(BudgetError) as err:
            moment_operator(U2, 3, 2, haar, budget=16)
        assert err.value.required == 32
        with pytest.raises(BudgetError):
            haar_moment(U2, 3, 2, budget=16)
        with pytest.raises(BudgetError):
            brownian_moment(U2, 3, 2, 0.5, budget=16)
        assert [c.cache_info() for c in caches] == cached  # refused before the lookups

    def test_spectrum_forms_no_moment_matrix(self):
        # T is formed on first read of `matrix`, and `lgm moment` reads the spectrum first,
        # so the spectrum's eigh temporaries never sit on top of T
        u5 = build_representation(GroupSpec("u", 5))
        tracemalloc.start()
        try:
            op = haar_moment(u5, 2, 2)
            op.spectrum
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 625 ** 2 * 8  # less than one D x D float64 array
        assert np.trace(op.matrix) == pytest.approx(op.rank)

    def test_brownian_u4_sixth_moment_stays_below_two_casimirs(self):
        # E|tr g|^6 = 3! on U(4) far into the Haar limit; D = 4096 and no D x D array is formed
        u4 = build_representation(GroupSpec("u", 4))
        chars = [linear_loop(u4, np.eye(4))] * 3 + [linear_loop(u4, np.eye(4), -1)] * 3
        tracemalloc.start()
        try:
            got = expect_product(chars, MeasureSpec.brownian(50.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - 6.0) <= 1e-8
        assert peak < 2 * 4096 ** 2 * 8

    def test_brownian_expectations_keep_nothing_per_t(self):
        rng = np.random.default_rng(11)
        coeffs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
        word = [loop(U3, coeffs, [1, -1, 1, -1])]
        expect_product(word, MeasureSpec.brownian(0.05))  # the spectrum and the path are cached once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(20):
                expect_product(word, MeasureSpec.brownian(0.1 + 0.05 * k))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 81 * 81 * 8  # less than one D x D float64 matrix

    @pytest.mark.parametrize("rep,n,nprime,source", [
        (U2, 2, 2, "permutations"), (SU2, 1, 1, "permutations"), (SO3, 2, 2, "pairings"),
        (SP1, 1, 1, "pairings"), (G2, 2, 0, "g2u"), (U1_2, 1, 1, "nullspace"),
    ], ids=["u2-22", "su2-11", "so3-22", "sp1-11", "g2-20", "u1^2-11"])
    def test_invariant_layer_is_float64(self, rep, n, nprime, source):
        # one shape per family: every completeness relation is real, so is every array
        assert tensor_casimir(rep, n, nprime).dtype == np.float64
        w, u = block_spectrum(rep, n, nprime)
        assert w.dtype == u.dtype == np.float64
        assert moments._null_space(rep, n, nprime).dtype == np.float64
        for op in (haar_moment(rep, n, nprime), brownian_moment(rep, n, nprime, 0.5)):
            assert op.matrix.dtype == op.spectrum.dtype == np.float64
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

    def test_permutation_spanning_set_needs_no_spectrum(self, monkeypatch):
        u4 = build_representation(GroupSpec("u", 4))
        caches = (moments._null_space, moments._block_eigh, moments._weight_blocks)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(moments, "_decompose_block", None)  # no block decomposed past the cache
        weingarten(spanning_set(u4, 3, 3, "permutations"))
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize == 0 and info.hits == info.misses == 0  # not even looked up


SO4 = build_representation(GroupSpec("so", 4))
SO5 = build_representation(GroupSpec("so", 5))
SU3 = build_representation(GroupSpec("su", 3))
SP2 = build_representation(GroupSpec("sp", 2))
U6 = build_representation(GroupSpec("u", 6))

# every (rep, n, n') whose Casimir route runs with D <= 729
ROUTE_SHAPES = [(rep, n, m - n) for rep in (U2, U3, SU2, SU3, SO3, SO4, SO5, SP1, SP2, G2, U1_2)
                for m in range(1, 10) for n in range(m + 1)
                if rep.dim ** m <= 729 and m <= (4 if rep is U1_2 else 9)]


@lru_cache(maxsize=8)
def dense_spectrum(rep, n, nprime):
    """``eigh`` of the dense `tensor_casimir`."""
    return np.linalg.eigh(tensor_casimir(rep, n, nprime))


def moment_value(flat, matrix):
    """The loop tensor of a product contracted with a D x D moment matrix."""
    a, pattern = loops_to_tensor(flat)
    m = len(pattern)
    t = matrix.reshape((flat[0].rep.dim,) * (2 * m))
    subs: list[int] = []
    for s in range(m):
        subs.extend([s, m + s])
    return complex(np.einsum(a, subs, t, list(range(2 * m)), []))


def casimir_route_value(flat, measure):
    """Oracle: the loop tensor contracted with the D x D moment matrix of the measure,
    from the dense tensor Casimir: its null projector under Haar, ``exp(t/2 C)`` under
    Brownian(t)."""
    pattern = [s for w in flat for s in w.signs]
    n = pattern.count(1)
    w, v = dense_spectrum(flat[0].rep, n, len(pattern) - n)
    f = (np.abs(w) < 1e-6).astype(float) if measure.kind == "haar" else np.exp(0.5 * measure.t * w)
    return moment_value(flat, (v * f) @ v.T)


@lru_cache(maxsize=8)
def dense_weingarten(rep, n, nprime, source):
    """``tau o Wg o tau*`` of the dense `WeingartenMap` of a label set."""
    return weingarten(spanning_set(rep, n, nprime, source)).moment_matrix()


def route_oracle_value(flat, measure):
    """Oracle of a product on its route: the dense Weingarten map on a Weingarten route,
    the dense tensor Casimir on every other."""
    route, n, nprime = moments._product_route(flat, measure, DEFAULT_BUDGET)
    if route.startswith("weingarten:"):
        return moment_value(flat, dense_weingarten(flat[0].rep, n, nprime, route.partition(":")[2]))
    return casimir_route_value(flat, measure)


def same_shape_product(rng, flat):
    """A product of the shape of ``flat`` with fresh coefficients and scales, and its size bound."""
    out = [loop(w.rep, [rng.standard_normal((w.rep.dim,) * 2) + 1j * rng.standard_normal((w.rep.dim,) * 2)
                        for _ in w.signs], list(w.signs), complex(*rng.standard_normal(2))) for w in flat]
    return out, np.prod([abs(w.scale) * np.prod([np.linalg.norm(c) for c, _ in w.factors]) for w in out])


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


HAAR = MeasureSpec.haar()
MEASURES = st.just(HAAR) | st.floats(0.1, 2.0).map(MeasureSpec.brownian)
BATCH_SHAPES = [s for s in ROUTE_SHAPES if s[0].dim ** (s[1] + s[2]) <= 256]  # small dense oracles


class TestExpectationRoutes:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ROUTE_SHAPES), st.integers(0, 2 ** 32 - 1), MEASURES)
    @example((SO3, 3, 0), 1, HAAR)  # the Casimir-route fallbacks
    @example((SO4, 2, 2), 2, HAAR)
    @example((SU3, 3, 0), 3, HAAR)
    @example((U3, 2, 1), 4, HAAR)  # exact zeros
    @example((SU3, 2, 1), 5, HAAR)
    @example((SO4, 2, 1), 6, HAAR)
    @example((SP1, 2, 1), 7, HAAR)
    @example((G2, 1, 0), 8, HAAR)  # empty null basis
    @example((G2, 1, 0), 9, MeasureSpec.brownian(0.3))
    @example((SO4, 2, 2), 10, MeasureSpec.brownian(1.7))
    @example((SU3, 3, 0), 11, MeasureSpec.brownian(0.9))
    @example((SU2, 2, 2), 12, MeasureSpec.brownian(0.1))
    def test_routes_agree_with_casimir_route(self, shape, seed, measure):
        rep, n, nprime = shape
        flat, bound = random_product(np.random.default_rng(seed), rep, n, nprime)
        got = expect_product(flat, measure)
        assert abs(got - casimir_route_value(flat, measure)) <= 1e-10 * max(1.0, bound)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(BATCH_SHAPES), st.integers(0, 2 ** 32 - 1), st.integers(1, 3)),
                    min_size=1, max_size=4), MEASURES)
    @example([((U3, 2, 2), 1, 3), ((SP2, 1, 1), 2, 2), ((SO3, 3, 0), 3, 2), ((U3, 2, 1), 4, 1),
              ((U1_2, 2, 1), 5, 2), ((SO4, 2, 0), 6, 2)], HAAR)  # every route in one batch
    @example([((SU2, 3, 1), 7, 3), ((U1_2, 1, 1), 8, 2), ((G2, 2, 0), 9, 2)], MeasureSpec.brownian(0.7))
    def test_batch_matches_each_product_on_its_oracle(self, draws, measure):
        # products of one shape are contracted together; each still equals its own oracle
        flats, bounds = [], []
        for shape, seed, copies in draws:
            rng = np.random.default_rng(seed)
            flat, bound = random_product(rng, *shape)
            for _ in range(copies):
                flats.append(flat)
                bounds.append(bound)
                flat, bound = same_shape_product(rng, flat)
        order = np.random.default_rng(len(flats)).permutation(len(flats))  # groups interleaved
        got = moments._expect_products([flats[i] for i in order], measure, DEFAULT_BUDGET)
        assert got.shape == (len(flats), 2)
        for value, i in zip(got[:, 0], order):
            assert abs(value - route_oracle_value(flats[i], measure)) <= 1e-10 * max(1.0, bounds[i])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BATCH_SHAPES), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 3.0))
    @example((U1_2, 2, 1), 1, 0.4)  # the character route
    @example((SO4, 2, 2), 2, 1.7)
    def test_generator_is_the_casimir_weighted_sum(self, shape, seed, t):
        # Brownian: sum c e^{tc/2} v_c against the dense tensor Casimir; Haar: exactly 0 on every route
        rep, n, nprime = shape
        flat, bound = random_product(np.random.default_rng(seed), rep, n, nprime)
        c, v = dense_spectrum(rep, n, nprime)
        got = moments._expect_products([flat], MeasureSpec.brownian(t), DEFAULT_BUDGET)[0, 1]
        assert abs(got - moment_value(flat, (v * c * np.exp(0.5 * t * c)) @ v.T)) <= 1e-10 * max(1.0, bound)
        assert moments._expect_products([flat], HAAR, DEFAULT_BUDGET)[0, 1] == 0

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

    def test_casimir_route_has_no_slot_limit(self):
        # 26 slots, 52 ends: the block contraction puts no bound on the number of slots
        u1 = build_representation(GroupSpec("u", 1))
        chars = [linear_loop(u1, np.eye(1))] * 13 + [linear_loop(u1, np.eye(1), -1)] * 13
        assert moments._route(u1, 13, 13, MeasureSpec.brownian(0.5)) == "casimir"
        assert abs(expect_product(chars, MeasureSpec.brownian(0.5)) - 1.0) <= 1e-12

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

    def test_u6_eighth_moment_at_default_budget(self, monkeypatch):
        caches = (moments._null_space, moments._block_eigh, moments._weight_blocks)
        monkeypatch.setattr(moments, "_decompose_block", None)  # no block decomposed past the cache
        before = [c.cache_info() for c in caches]
        chars = [linear_loop(U6, np.eye(6))] * 4 + [linear_loop(U6, np.eye(6), -1)] * 4
        assert abs(expect_product(chars, MeasureSpec.haar()) - 24.0) <= 1e-9
        assert [c.cache_info() for c in caches] == before

    def test_u2_sixth_moment_with_rank_deficient_gram(self):
        chars = [linear_loop(U2, np.eye(2))] * 3 + [linear_loop(U2, np.eye(2), -1)] * 3
        assert abs(expect_product(chars, MeasureSpec.haar()) - 5.0) <= 1e-10


# the Haar shapes above that take the Casimir route, and a Brownian shape per family
HAAR_CASIMIR_SHAPES = [s for s in ROUTE_SHAPES if moments._route(*s, HAAR) == "casimir"]
BLOCK_SHAPES = HAAR_CASIMIR_SHAPES + [(U3, 2, 2), (SU3, 2, 1), (SO5, 2, 2), (SP2, 2, 1), (G2, 2, 1),
                                      (U1_2, 2, 1)]


def block_spectrum(rep, n, nprime):
    """Every weight block's eigenpairs in D space: eigenvalues ascending, eigenvectors as columns."""
    blocks = moments._weight_blocks(rep, n, nprime)
    pairs = [moments._block_eigh(rep, n, nprime, k)[:2] for k in range(len(blocks))]
    w = np.concatenate([wb for wb, _ in pairs])
    u = np.vstack([moments._from_weight_basis(rep, n + nprime, flat, z)
                   for flat, (_, z) in zip(blocks, pairs)]).T
    order = np.argsort(w, kind="stable")
    return w[order], u[:, order]


def rotated_kernels(rep):
    """Oracle for `moments._weight_kernels`: each of the three kernels rotated on its own."""
    u = moments._weight_basis(rep)[0]
    out = []
    for kernel in moments._kernels(rep):
        t = kernel
        for mat in (u.conj(), u, u.conj(), u):  # each index in turn, appended last
            t = np.tensordot(t, mat, axes=([0], [0]))
        out.append(t.transpose(0, 2, 1, 3).reshape(rep.dim ** 2, rep.dim ** 2))
    return out


class TestWeightBlocks:
    @pytest.mark.parametrize("rep", [U2, U3, SU2, SU3, SO3, SO4, SO5, SP1, SP2, G2, U1_2],
                             ids=lambda r: r.spec.label())
    def test_weight_kernels_match_three_rotations(self, rep):
        for got, want in zip(moments._weight_kernels(rep), rotated_kernels(rep)):
            assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("rep,n,nprime", BLOCK_SHAPES,
                             ids=[f"{r.spec.family}{r.spec.n}-{n}{m}" for r, n, m in BLOCK_SHAPES])
    def test_blocks_match_the_dense_casimir(self, rep, n, nprime):
        c = tensor_casimir(rep, n, nprime)
        blocks = moments._weight_blocks(rep, n, nprime)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(len(c)))  # a partition
        place = rep.dim ** np.arange(n + nprime - 1, -1, -1)
        for k, flat in enumerate(blocks):  # each block's digits are its index tuples
            assert np.array_equal(place @ moments._block_eigh(rep, n, nprime, k)[2], flat)
        w, u = block_spectrum(rep, n, nprime)
        assert np.max(np.abs(w - np.linalg.eigvalsh(c))) <= 1e-10
        assert u.dtype == np.float64
        assert np.max(np.abs(u.T @ u - np.eye(len(c)))) <= 1e-12
        assert np.max(np.abs((u * w) @ u.T - c)) <= 1e-10 * max(1.0, np.max(np.abs(c)))
        # the Haar projector from the zero-weight block alone, against the dense null space
        wd, ud = np.linalg.eigh(c)
        dense = ud[:, np.abs(wd) < 1e-8 * max(1.0, abs(rep.lam) * (n + nprime))]
        null = moments._null_space(rep, n, nprime)
        assert null.dtype == np.float64 and null.shape == dense.shape
        assert np.max(np.abs(null @ null.T - dense @ dense.T), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("measure", [HAAR, MeasureSpec.brownian(0.5)], ids=["haar", "brownian"])
    @pytest.mark.parametrize("rep,n,nprime", [(SU2, 1, 1), (G2, 2, 0), (SP1, 2, 1), (U3, 2, 1), (SO4, 2, 2)],
                             ids=["su2-11", "g2-20", "sp1-21", "u3-21", "so4-22"])
    def test_moment_operator_spectrum_is_the_dense_casimir_spectrum(self, rep, n, nprime, measure):
        got = moment_operator(rep, n, nprime, measure).spectrum
        want = np.linalg.eigvalsh(tensor_casimir(rep, n, nprime))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_moment_operator_decomposes_each_block_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(len(a)) or eigh(a, *args))
        moments._weight_basis(U3)  # its own eigh, once per representation
        blocks = len(moments._weight_blocks(U3, 2, 2))
        for measure, guard, kept in ((MeasureSpec.brownian(0.5), 0, blocks), (HAAR, 1, 1)):
            moments._block_eigh.cache_clear()
            moments._null_space.cache_clear()
            calls.clear()
            op = moment_operator(U3, 2, 2, measure)
            assert len(calls) == guard  # Haar's gap guard reads block 0
            assert len(op.spectrum) == 81 and len(calls) == blocks  # every block, once each
            assert np.trace(op.matrix) > 0 and len(calls) == blocks  # T reads the cached kept blocks
            assert moments._block_eigh.cache_info().currsize == kept  # only the kept blocks are cached

    def test_residual_check_runs_before_any_haar_result(self, monkeypatch):
        monkeypatch.setattr(moments, "_apply_casimir", lambda rep, n, nprime, vecs: vecs)  # C u = u
        moments._null_space.cache_clear()
        chars = [linear_loop(SO4, np.eye(4), s) for s in (1, 1, -1, -1)]  # an epsilon-type invariant
        for compute in (lambda: moment_operator(SO4, 2, 2, HAAR), lambda: expect_product(chars, HAAR)):
            with pytest.raises(RuntimeError, match="not annihilated"):
                compute()

    @pytest.mark.parametrize("rep,n,nprime", [(SO5, 4, 0), (U3, 3, 3), (SU2, 4, 4), (U2, 5, 5)],
                             ids=["so5-40", "u3-33", "su2-44", "u2-55"])
    def test_cold_brownian_moment_peak(self, rep, n, nprime):
        # v and T = v^T v are D x D each; the chunk temporaries and the cached blocks come on top
        blocks = moments._weight_blocks(rep, n, nprime)
        moments._weight_kernels(rep)
        moments._block_eigh.cache_clear()
        tracemalloc.start()
        try:
            moment_operator(rep, n, nprime, MeasureSpec.brownian(0.5)).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = rep.dim ** (n + nprime)
        assert peak <= 2.25 * dim ** 2 * 8 + sum(len(b) ** 2 for b in blocks) * 16

    def test_zero_block_holds_the_weight_zero_tuples(self):
        # G2 (4,0): weights of the defining rep are 0 and +-a, +-b, +-(a+b)
        blocks = moments._weight_blocks(G2, 4, 0)
        assert len(blocks[0]) == 175 and sum(map(len, blocks)) == 7 ** 4

    @pytest.mark.parametrize("k,want", [(2, 1.0), (3, 1.0), (4, 4.0)])
    def test_g2_character_moments(self, k, want):
        # E[(tr g)^k] counts the invariants of the k-th tensor power of G2's 7-dim rep
        got = expect_product([linear_loop(G2, np.eye(7))] * k, HAAR)
        assert abs(got - want) <= 1e-10

    def test_a_singular_weight_element_merges_weights(self):
        # SO(4) with only the so(3) generators on the first three coordinates: X has a
        # two-dimensional kernel, so its weights are coarser, but C still blocks by them
        sub = SO4.generators[[not np.any(x[3]) and not np.any(x[:, 3]) for x in SO4.generators]]
        fake = RepData(spec=SO4.spec, dim=4, generators=sub, casimir=SO4.casimir, lam=SO4.lam)
        assert len(sub) == 3 and np.count_nonzero(moments._weight_basis(fake)[1] == 0) == 2
        assert len(moments._weight_blocks(fake, 2, 2)[0]) > len(moments._weight_blocks(SO4, 2, 2)[0])
        for n, nprime in ((2, 2), (2, 1)):
            c = tensor_casimir(SO4, n, nprime)
            w, u = block_spectrum(fake, n, nprime)
            assert np.max(np.abs((u * w) @ u.T - c)) <= 1e-10 * np.max(np.abs(c))
        null, want = moments._null_space(fake, 2, 2), moments._null_space(SO4, 2, 2)
        assert np.max(np.abs(null @ null.T - want @ want.T)) <= 1e-12

    def test_weight_element_must_lie_in_the_algebra(self):
        # adding a real symmetric matrix to a purely imaginary generator puts its real part
        # outside the algebra (a real generator would span its own perturbed real part)
        gens = SU2.generators.copy()
        a = next(a for a, xi in enumerate(gens) if not np.any(xi.real))
        gens[a] = gens[a] + 1e-3 * np.diag([1.0, -1.0])
        fake = RepData(spec=SU2.spec, dim=2, generators=gens, casimir=SU2.casimir, lam=SU2.lam)
        with pytest.raises(RuntimeError, match="not in the Lie algebra"):
            haar_moment(fake, 2, 0)
        assert moments._weight_basis(SU2)[0].shape == (2, 2)  # the true generators pass


def walk_wiring(source, shape, twisted):
    """Oracle for `moments._wiring`: walk the cycles of every label pair, one at a time."""
    def label_pairs(label):  # sigma joins + slot sigma[k] to - slot k
        if source == "permutations":
            return tuple((p, n + k) for k, p in enumerate(label))
        return label

    n, ends = moments._coefficient_ends(shape)
    m = len(ends)
    coef_edge: dict[int, tuple[int, int]] = {}
    for k, (a, b) in enumerate(ends):
        coef_edge[a] = (k, b)
        coef_edge[b] = (m + k, a)
    n_forms = 3 if twisted else 1
    labels = moments._labels(source, n, m - n)
    edges = []
    for label in labels:
        rows, cols = {}, {}
        for p, q in label_pairs(label):
            like = twisted and (p < n) == (q < n)
            rows[2 * p], rows[2 * q] = (2 * q, 1 if like else 0), (2 * p, 2 if like else 0)
            cols[2 * p + 1], cols[2 * q + 1] = (2 * q + 1, 1 if like else 0), (2 * p + 1, 2 if like else 0)
        edges.append((rows, cols))
    words = []
    for rows, _ in edges:
        for _, cols in edges:
            form = {**rows, **cols}
            seen: set[int] = set()
            cycles = []
            for e0 in range(2 * m):
                if e0 in seen:
                    continue
                word, e = [], e0
                while True:
                    letter, other = coef_edge[e]
                    seen.update((e, other))
                    e, fid = form[other]
                    word.append(letter * n_forms + fid)
                    if e == e0:
                        break
                cycles.append(word)
            words.append(cycles)
    every = [word for cycles in words for word in cycles]
    by_length = sorted(range(len(every)), key=lambda c: -len(every[c]))
    steps = tuple(np.array([every[c][t] for c in by_length if len(every[c]) > t], dtype=np.intp)
                  for t in range(len(every[by_length[0]])))
    order = np.argsort(by_length)
    starts = np.cumsum([0] + [len(cycles) for cycles in words[:-1]])
    return steps, order, starts, len(labels)


@st.composite
def wiring_shapes(draw):
    """A label source and a loop shape it wires: at most 8 slots in shuffled sign
    order, cut into loops of 1..m slots."""
    source = draw(st.sampled_from(["permutations", "pairings"]))
    if source == "permutations":
        n = draw(st.integers(1, 4))
        signs = [1] * n + [-1] * n
    else:
        k = draw(st.integers(1, 4))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=2 * k, max_size=2 * k))
    signs = draw(st.permutations(signs))
    cuts = sorted(draw(st.sets(st.integers(1, len(signs) - 1)))) if len(signs) > 1 else []
    bounds = [0, *cuts, len(signs)]
    return source, tuple(tuple(signs[a:b]) for a, b in zip(bounds, bounds[1:]))


class TestWiring:
    @settings(max_examples=120, deadline=None)
    @given(wiring_shapes(), st.booleans())
    @example(("pairings", ((1, -1, 1, 1, -1, -1, 1, 1),)), True)  # one loop of 8 slots
    @example(("pairings", ((1,),) * 4 + ((-1,),) * 4), True)  # 105 labels, loops of 1 slot
    @example(("permutations", ((1,), (-1,))), False)  # one label
    @example(("permutations", ((-1, 1, 1), (-1, 1, -1, 1, -1))), True)
    def test_matches_the_cycle_walk(self, source_shape, twisted):
        source, shape = source_shape
        moments._wiring.cache_clear()
        moments._label_table.cache_clear()
        steps, order, starts, n_labels = moments._wiring.__wrapped__(source, shape, twisted)
        want_steps, want_order, want_starts, want_labels = walk_wiring(source, shape, twisted)
        assert n_labels == want_labels
        assert len(steps) == len(want_steps)
        for got, want in zip(steps, want_steps):
            assert np.array_equal(got, want)
        assert np.array_equal(order, want_order)
        assert np.array_equal(starts, want_starts)
