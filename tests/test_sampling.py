"""Sampler and Monte-Carlo oracle tests.

MC assertions run at fixed seeds, so they are deterministic; targets marked
"exact" are derived from the moment-operator module, which keeps the two
routes (exact contraction vs sampling) independent.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgm import loops, moments, sampling
from lgm.catalog import GroupSpec, build_representation, group_residual
from lgm.loops import Loop, conjugate_loop, linear_loop, loop, merge_at, total_merge, total_twist
from lgm.moments import MeasureSpec, expect_product
from lgm.sampling import (BrownianPathSpec, RngSpec, _action_loops, _laplacian_terms, _theorem_a_plan,
                          brownian_path, brownian_path_batch, haar_sample, haar_sample_batch,
                          mc_expect, verify_theorem_a)
from test_moments import dense_spectrum, moment_value
from test_tensor import expm_skew_eigh

U2 = build_representation(GroupSpec("u", 2))
U3 = build_representation(GroupSpec("u", 3))
SU2 = build_representation(GroupSpec("su", 2))
SU4 = build_representation(GroupSpec("su", 4))
SO2 = build_representation(GroupSpec("so", 2))
SO3 = build_representation(GroupSpec("so", 3))
SO4 = build_representation(GroupSpec("so", 4))
SO7 = build_representation(GroupSpec("so", 7))
SP1 = build_representation(GroupSpec("sp", 1))
SP2 = build_representation(GroupSpec("sp", 2))
U1 = build_representation(GroupSpec("u1power", 1))
SU3 = build_representation(GroupSpec("su", 3))
U1_2 = build_representation(GroupSpec("u1power", 2))
U1_INV = build_representation(GroupSpec("u1power", -1))
G2 = build_representation(GroupSpec("g2"))


@pytest.mark.parametrize("rep_a,rep_b,same", [(SU2, SU3, False), (U1, U1_2, True)],
                         ids=["su2-su3", "u1^1-u1^2"])
def test_one_group_rule(rep_a, rep_b, same):
    # U(1) characters of any powers represent one group; SU(2) and SU(3) do not
    wa, wb = linear_loop(rep_a, np.eye(rep_a.dim)), linear_loop(rep_b, np.eye(rep_b.dim), -1)
    calls = [
        lambda: merge_at(wa, 1, wb, 1),
        lambda: expect_product([wa, wb], MeasureSpec.haar()),
        lambda: mc_expect([wa, wb], MeasureSpec.haar(), 100, RngSpec(0)),
        lambda: mc_expect([wa], MeasureSpec.wilson(0.1, [wb]), 100, RngSpec(0)),
        lambda: MeasureSpec.wilson(0.1, [wa, wb]),
    ]
    for call in calls:
        if same:
            call()
        else:
            with pytest.raises(ValueError, match="loops live on different groups: SU\\(2\\), SU\\(3\\)"):
                call()


class _Patched:
    """``module`` with some names replaced: set on one module, it patches
    those names there and nowhere else."""

    def __init__(self, module, **names):
        self._module, self._names = module, names

    def __getattr__(self, name):
        return self._names[name] if name in self._names else getattr(self._module, name)


class TestHaarSamplers:
    @pytest.mark.parametrize("rep", [U2, U3, SU2, SO3, SO4, SP1, SP2, U1],
                             ids=lambda r: r.spec.label())
    def test_constraint_residuals(self, rep):
        gs = haar_sample_batch(rep, RngSpec(3), 64)
        assert max(group_residual(rep, g) for g in gs) <= 1e-12

    def test_reproducibility_bit_exact(self):
        a = haar_sample_batch(U2, RngSpec(7, 1), 16)
        b = haar_sample_batch(U2, RngSpec(7, 1), 16)
        c = haar_sample_batch(U2, RngSpec(7, 2), 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("family,n", [("u", n) for n in range(1, 7)]
                             + [(f, n) for f in ("su", "so") for n in range(2, 7)])
    def test_matches_lapack_qr(self, family, n):
        # the same Ginibre draws through LAPACK QR, R's diagonal made positive
        rng = RngSpec(15, n)
        gen = rng.generator()
        if family == "so":
            z = gen.standard_normal((500, n, n))
        else:
            z = (gen.standard_normal((500, n, n)) + 1j * gen.standard_normal((500, n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        q = q * (d / np.abs(d))[:, None, :]
        if family == "su":
            q[:, :, -1] *= np.conj(np.linalg.det(q))[:, None]
        if family == "so":
            q[np.linalg.det(q) < 0, :, -1] *= -1.0
        got = haar_sample_batch(build_representation(GroupSpec(family, n)), rng, 500)
        assert np.max(np.abs(got - q)) <= 1e-12

    @pytest.mark.parametrize("rep", [SU2, SU3, SO2, SO3], ids=lambda r: r.spec.label())
    def test_closed_form_draws_take_no_determinant(self, rep, monkeypatch):
        # N <= 3: Gram-Schmidt runs on N - 1 columns and the last is computed, with no det
        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form draw formed a determinant")

        columns, orthonormal_column = [], sampling._orthonormal_column

        def counting(v, cols):
            columns.append(len(cols))
            return orthonormal_column(v, cols)

        monkeypatch.setattr(sampling, "np", _Patched(np, linalg=_Patched(np.linalg, det=refuse)))
        monkeypatch.setattr(sampling, "_orthonormal_column", counting)
        gs = haar_sample_batch(rep, RngSpec(4), 64)
        assert columns == list(range(rep.dim - 1))
        assert max(group_residual(rep, g) for g in gs) <= 1e-12
        with pytest.raises(AssertionError, match="formed a determinant"):  # the patch reaches the N >= 4 path
            haar_sample_batch(SU4, RngSpec(4), 4)

    @pytest.mark.parametrize("rep,power,target", [(SO2, 2, 2.0), (SO3, 3, 1.0), (SU2, 2, 1.0)],
                             ids=["so2", "so3", "su2"])
    def test_epsilon_invariants(self, rep, power, target):
        # E[(tr g)^k] that O(N) or U(N) lack: a completion with the wrong sign or conjugation fails
        exact = expect_product([linear_loop(rep, np.eye(rep.dim))] * power, MeasureSpec.haar())
        assert abs(exact - target) <= 1e-10
        vals = np.trace(haar_sample_batch(rep, RngSpec(21), 100_000), axis1=1, axis2=2) ** power
        stderr = np.std(vals) / np.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 3.0 * stderr

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_su_first_columns_are_the_u_draw(self, n):
        # one Ginibre matrix per RngSpec: SU(N) changes only the last column of the U(N) draw
        rng = RngSpec(19, n)
        u = haar_sample_batch(build_representation(GroupSpec("u", n)), rng, 500)
        su = haar_sample_batch(build_representation(GroupSpec("su", n)), rng, 500)
        assert np.max(np.abs(su[:, :, :-1] - u[:, :, :-1])) <= 1e-13

    @pytest.mark.parametrize("rep", [SU2, SU3, SO2, SO3], ids=lambda r: r.spec.label())
    def test_completion_commutes_with_left_multiplication(self, rep):
        # complete(V q) = V complete(q): the completed law is left-invariant, hence Haar
        vq = haar_sample(rep, RngSpec(8)) @ haar_sample_batch(rep, RngSpec(9), 256)
        if rep.spec.family == "so":
            vq = vq.real
        cols = [np.ascontiguousarray(vq[:, :, k].T) for k in range(rep.dim - 1)]
        assert np.max(np.abs(sampling._last_column(cols).T - vq[:, :, -1])) <= 1e-14

    def test_su3_trace_cubed(self):
        # the epsilon invariant gives SU(3) E[(tr g)^3] = 1; under U(3) it is 0
        target = expect_product([linear_loop(SU3, np.eye(3))] * 3, MeasureSpec.haar())
        assert abs(target - 1.0) <= 1e-10
        vals = np.trace(haar_sample_batch(SU3, RngSpec(12), 100_000), axis1=1, axis2=2) ** 3
        stderr = np.std(vals) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3.0 * stderr

    def test_single_sample_is_first_of_batch(self):
        assert np.array_equal(haar_sample(SO3, RngSpec(9)),
                              haar_sample_batch(SO3, RngSpec(9), 4)[0])

    def test_u2_entry_mean_is_zero(self):
        gs = haar_sample_batch(U2, RngSpec(11), 100_000)
        entries = gs[:, 0, 0]
        target = expect_product([linear_loop(U2, np.array([[1, 0], [0, 0]]))],
                                MeasureSpec.haar())
        assert abs(target) <= 1e-12
        stderr = np.std(entries, ddof=1) / np.sqrt(entries.size)
        assert abs(entries.mean() - target) <= 3 * stderr

    def test_so4_trace_squared(self):
        target = expect_product([linear_loop(SO4, np.eye(4))] * 2, MeasureSpec.haar())
        assert target == pytest.approx(1.0, abs=1e-10)
        gs = haar_sample_batch(SO4, RngSpec(12), 100_000)
        vals = np.trace(gs, axis1=1, axis2=2).real ** 2
        stderr = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * stderr

    @pytest.mark.parametrize("rep", [U2, U3], ids=lambda r: r.spec.label())
    def test_abs_trace_squared(self, rep):
        target = expect_product(
            [linear_loop(rep, np.eye(rep.dim)), linear_loop(rep, np.eye(rep.dim), -1)],
            MeasureSpec.haar())
        assert target == pytest.approx(1.0, abs=1e-10)
        gs = haar_sample_batch(rep, RngSpec(13), 100_000)
        vals = np.abs(np.trace(gs, axis1=1, axis2=2)) ** 2
        stderr = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3 * stderr

    def test_left_invariance(self):
        h = haar_sample(SU2, RngSpec(99))
        gs = haar_sample_batch(SU2, RngSpec(14), 100_000)
        shifted = h @ gs
        for stat in (lambda m: np.trace(m, axis1=1, axis2=2).real,
                     lambda m: np.abs(np.trace(m, axis1=1, axis2=2)) ** 2):
            x, y = stat(gs), stat(shifted)
            se = np.sqrt(np.var(x, ddof=1) / x.size + np.var(y, ddof=1) / y.size)
            assert abs(x.mean() - y.mean()) <= 3 * se

    def test_g2_draws_lie_on_the_group(self):
        gs = haar_sample_batch(G2, RngSpec(5), 10_000)
        assert gs.dtype == np.complex128 and not np.any(gs.imag)
        assert max(group_residual(G2, g) for g in gs) <= 1e-12

    def test_g2_single_sample_is_first_of_batch(self):
        assert np.array_equal(haar_sample(G2, RngSpec(9)),
                              haar_sample_batch(G2, RngSpec(9), 4)[0])

    def test_g2_draws_take_no_brownian_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a G2 Haar draw ran a Brownian path")

        monkeypatch.setattr(sampling, "brownian_path_batch", refuse)
        haar_sample(G2, RngSpec(1))
        haar_sample_batch(G2, RngSpec(1), 8)

    @pytest.mark.parametrize("rep", [SO3, SO7, G2], ids=lambda r: r.spec.label())
    def test_real_draws_match_the_conjugating_gram_schmidt(self, rep, monkeypatch):
        # real columns skip np.conj, which only copies them: the draws stay bit-identical
        def conjugating(v, cols):
            for _ in range(2):
                for c in cols:
                    v = v - np.sum(np.conj(c) * v, axis=0) * c
            return v / np.sqrt(np.sum((np.conj(v) * v).real, axis=0))

        got = haar_sample_batch(rep, RngSpec(17, 3), 64)
        monkeypatch.setattr(sampling, "_orthonormal_column", conjugating)
        assert np.array_equal(got, haar_sample_batch(rep, RngSpec(17, 3), 64))

    @pytest.mark.parametrize("rep", [U2, SU2, SO3, SP1, U1, G2], ids=lambda r: r.spec.label())
    def test_count_zero_and_negative(self, rep):
        d = rep.dim
        assert haar_sample_batch(rep, RngSpec(0), 0).shape == (0, d, d)
        with pytest.raises(ValueError, match="count must be non-negative, got count=-1"):
            haar_sample_batch(rep, RngSpec(0), -1)

    @pytest.mark.parametrize("count", [2.5, 2.0, True], ids=repr)
    def test_non_integer_count_refused(self, count):
        with pytest.raises(ValueError, match="count must be an integer, got count="):
            haar_sample_batch(SU2, RngSpec(0), count)

    def test_numpy_integer_count_accepted(self):
        assert np.array_equal(haar_sample_batch(SU2, RngSpec(6), np.int64(3)),
                              haar_sample_batch(SU2, RngSpec(6), 3))


class TestG2HaarLaw:
    """1e5 G2 draws against exact Haar moments: ``E[g_ij g_kl] = delta_ik delta_jl / 7``,
    ``E[g_ia g_jb g_kc] = psi_ijk psi_abc / 42`` (the one invariant of the third
    power; zero under SO(7)), and 4-loop products against `expect_product`."""

    SAMPLES = 100_000

    @pytest.fixture(scope="class")
    def draws(self):
        return haar_sample_batch(G2, RngSpec(21), self.SAMPLES)

    @staticmethod
    def _within_3_sigma(vals, target):
        stderr = np.std(vals) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3.0 * stderr, (vals.mean(), target, stderr)

    @pytest.mark.parametrize("seed", range(3))
    def test_second_moment(self, draws, seed):
        a, b = np.random.default_rng(seed).standard_normal((2, 7, 7))
        vals = np.einsum("bij,ij->b", draws.real, a) * np.einsum("bij,ij->b", draws.real, b)
        self._within_3_sigma(vals, np.sum(a * b) / 7.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_third_moment(self, draws, seed):
        a, b, c = np.random.default_rng(seed).standard_normal((3, 7, 7))
        psi = G2.constants["psi"]
        target = np.einsum("ijk,abc,ia,jb,kc->", psi, psi, a, b, c) / 42.0
        assert abs(target) >= 0.1  # far from the SO(7) value 0
        vals = np.prod([np.einsum("bij,ij->b", draws.real, m) for m in (a, b, c)], axis=0)
        self._within_3_sigma(vals, target)

    @pytest.mark.parametrize("slots", [(1, 1, 1, 1), (2, 1, 1), (3, 1), (4,)], ids=str)
    def test_four_slot_products(self, draws, slots):
        gen = np.random.default_rng(sum(slots) * len(slots))
        loops = [loop(G2, list(gen.standard_normal((k, 7, 7)) + 1j * gen.standard_normal((k, 7, 7))), [1] * k)
                 for k in slots]
        target = expect_product(loops, MeasureSpec.haar())
        self._within_3_sigma(np.prod([w.evaluate_batch(draws) for w in loops], axis=0), target)


def brownian_path_eigh(rep, t, steps, rng, count):
    """Oracle for `brownian_path_batch`: the geodesic Euler scheme one step at
    a time, each step drawing its own normals and exponentiating by `eigh`."""
    gen = rng.generator()
    xis = rep.sampling_generators
    g = np.broadcast_to(rep.identity(), (count,) + rep.identity().shape).copy()
    for _ in range(steps):
        z = gen.standard_normal((count, xis.shape[0]))
        g = g @ expm_skew_eigh(np.sqrt(t / steps) * np.einsum("ba,aij->bij", z, xis))
    return g


class TestBrownianPath:
    @pytest.mark.parametrize("rep", [SU2, SO3, SP1, U2, U3, SP2, G2, U1_2], ids=lambda r: r.spec.label())
    @pytest.mark.parametrize("count", [0, 1, 100])
    def test_matches_per_step_eigh_integrator(self, rep, count):
        # 37 steps is prime: a part block is left over wherever blocks hold
        # several steps, and one part block is all there is where they hold more
        got = brownian_path_batch(rep, 1.3, 37, RngSpec(4, 1), count)
        want = brownian_path_eigh(rep, 1.3, 37, RngSpec(4, 1), count)
        d = rep.dim
        assert got.shape == (count, d, d) and got.dtype == np.complex128
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
        if rep.spec.family in ("so", "g2"):
            assert not np.any(got.imag)

    @pytest.mark.parametrize("rep", [SU2, SO3, SP1], ids=lambda r: r.spec.label())
    def test_large_steps_match_per_step_eigh_integrator(self, rep):
        # t = 50 in 10 steps: increments of norm 2 to 4, where the closed
        # form is as exact as at small ones and no squaring is needed
        got = brownian_path_batch(rep, 50.0, 10, RngSpec(8), 100)
        want = brownian_path_eigh(rep, 50.0, 10, RngSpec(8), 100)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("rep,lam", [(SU2, 0.5), (SO3, 1.0), (SP1, 1.0)], ids=["SU(2)", "SO(3)", "Sp(1)"])
    def test_rank_one_algebras_have_a_table(self, rep, lam):
        table, got = sampling._rank_one_table(rep)
        xis = sampling._walk_generators(rep)
        g, d = xis.shape[0], xis.shape[-1]
        assert got == pytest.approx(lam, rel=1e-12)
        assert table.shape == (1 + g + g * g, d * d)
        # the cubic X^3 = -lam |c|^2 X the closed form rests on, at a random c
        c = np.random.default_rng(3).standard_normal(g)
        x = np.einsum("a,aij->ij", c, xis)
        assert np.max(np.abs(x @ x @ x + lam * (c @ c) * x)) <= 1e-12

    @pytest.mark.parametrize("rep", [U2, SU3, SO4, SP2, G2], ids=lambda r: r.spec.label())
    def test_higher_rank_algebras_have_no_table(self, rep):
        assert sampling._rank_one_table(rep) is None

    def test_rank_one_paths_take_no_taylor_kernel(self, monkeypatch):
        def refuse(x):
            raise AssertionError("the path ran the Taylor kernel")

        monkeypatch.setattr(sampling.tensor, "expm_skew_batch", refuse)
        for rep in (SU2, SO3, SP1):
            brownian_path_batch(rep, 1.0, 20, RngSpec(0), 10)
        with pytest.raises(AssertionError, match="Taylor kernel"):
            brownian_path_batch(U3, 1.0, 20, RngSpec(0), 10)

    def test_u1_characters_walk_as_the_real_rotation_generator(self, monkeypatch):
        u1_3 = build_representation(GroupSpec("u1power", 3))
        xis = sampling._walk_generators(u1_3)
        assert xis.dtype == np.float64 and xis.shape == (1, 2, 2)
        assert np.array_equal(xis[0], [[0.0, 1.0], [-1.0, 0.0]])  # the interleaved form of [[i]]

        def refuse(x):
            raise AssertionError("the path ran the Taylor kernel")

        monkeypatch.setattr(sampling.tensor, "expm_skew_batch", refuse)
        got = brownian_path_batch(u1_3, 1.3, 37, RngSpec(4, 1), 100)
        assert got.shape == (100, 1, 1) and got.dtype == np.complex128
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("steps", [2.5, 3.0, np.float64(2.0), True], ids=repr)
    def test_non_integer_steps_refused(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer, got steps="):
            BrownianPathSpec(t=1.0, steps=steps, rng=RngSpec(0))
        with pytest.raises(ValueError, match="steps must be an integer, got steps="):
            brownian_path_batch(SU2, 1.0, steps, RngSpec(0), 2)

    @pytest.mark.parametrize("count", [2.5, 2.0, True], ids=repr)
    def test_non_integer_count_refused(self, count):
        with pytest.raises(ValueError, match="count must be an integer, got count="):
            brownian_path_batch(SU2, 1.0, 3, RngSpec(0), count)

    def test_numpy_integers_accepted(self):
        got = brownian_path_batch(SU2, 1.0, np.int64(3), RngSpec(5), np.int32(2))
        assert np.array_equal(got, brownian_path_batch(SU2, 1.0, 3, RngSpec(5), 2))
        spec = BrownianPathSpec(t=1.0, steps=np.int64(3), rng=RngSpec(5))
        assert np.array_equal(brownian_path(SU2, spec), brownian_path_batch(SU2, 1.0, 3, RngSpec(5), 1)[0])

    @pytest.mark.parametrize("rep", [SU2, U1], ids=lambda r: r.spec.label())
    def test_negative_count_refused(self, rep):
        with pytest.raises(ValueError, match="count must be non-negative, got count=-3"):
            brownian_path_batch(rep, 1.0, 10, RngSpec(0), -3)

    def test_single_step_short_time_near_identity(self):
        g = brownian_path(SU2, BrownianPathSpec(t=1e-12, steps=1, rng=RngSpec(1)))
        assert np.linalg.norm(g - np.eye(2)) <= 1e-5  # O(sqrt(t))

    def test_stays_on_group(self):
        for rep in (SU2, SO3, SP1):
            gs = brownian_path_batch(rep, 2.0, 100, RngSpec(2), 8)
            assert max(group_residual(rep, g) for g in gs) <= 100 * 1e-13

    def test_pathspec_validation(self):
        with pytest.raises(ValueError):
            BrownianPathSpec(t=0.0, steps=10, rng=RngSpec(0))
        with pytest.raises(ValueError):
            BrownianPathSpec(t=1.0, steps=0, rng=RngSpec(0))

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_time_refused(self, t):
        with pytest.raises(ValueError, match="finite"):
            BrownianPathSpec(t=t, steps=10, rng=RngSpec(0))
        with pytest.raises(ValueError, match="finite"):
            brownian_path_batch(SU2, t, 2, RngSpec(0), 1)

    def test_u1_exact_law(self):
        # abelian case: the integrator telescopes, so any step count is exact
        t = 1.0
        gs = brownian_path_batch(U1, t, 4, RngSpec(3), 100_000)
        vals = gs[:, 0, 0]
        stderr = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - np.exp(-t / 2.0)) <= 3 * stderr

    def test_long_time_moments_match_haar(self):
        # mixing: MC trace moments at t=50 agree with Haar contractions
        gs = brownian_path_batch(SU2, 50.0, 100, RngSpec(19), 20_000)
        tr = np.trace(gs, axis1=1, axis2=2)
        for vals, target_loops in (
            (tr.real, [linear_loop(SU2, np.eye(2))]),
            (np.abs(tr) ** 2, [linear_loop(SU2, np.eye(2)), linear_loop(SU2, np.eye(2), -1)]),
        ):
            target = expect_product(target_loops, MeasureSpec.haar()).real
            stderr = np.std(vals, ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - target) <= 3 * stderr

    def test_su2_weak_error_decreases_linearly(self):
        # couple coarse and fine paths through one increment stream, so the
        # discretization biases separate cleanly from the shared noise: a
        # coarse increment sums its fine ones.  Steps are formed by the
        # walk's own step function, as brownian_path_batch forms them, a
        # chunk of paths at a time; the chunks read the same stream as one
        # draw for all 40,000 paths.
        b, fine, t, chunk = 40_000, 128, 1.0, 512
        gen = np.random.default_rng((21, 0))
        sums = dict.fromkeys((8, 16, 32, 128), 0.0)
        for start in range(0, b, chunk):
            c = min(chunk, b - start)
            z = np.ascontiguousarray(gen.standard_normal((c, fine, 3)).transpose(1, 0, 2))  # (fine, c, 3)
            for steps in sums:
                inc = z.reshape(steps, fine // steps, c, 3).sum(axis=1).reshape(steps * c, 3)
                g = np.broadcast_to(np.eye(4), (c, 4, 4)).copy()
                for e in sampling._walk_steps(SU2, inc, np.sqrt(t / fine)).reshape(steps, c, 4, 4):
                    g = g @ e
                sums[steps] += 0.5 * np.trace(g, axis1=1, axis2=2).sum()  # Re tr of the complex g
        vals = {steps: total / b for steps, total in sums.items()}
        exact = 2.0 * np.exp(SU2.lam * t / 2.0)
        assert abs(vals[128] - exact) <= 0.02
        d8, d16, d32 = (vals[s] - vals[128] for s in (8, 16, 32))
        assert np.sign(d8) == np.sign(d16) == np.sign(d32)
        assert abs(d8) > abs(d16) > abs(d32)
        assert 2.5 <= abs(d8) / abs(d32) <= 8.0  # h-linear predicts ~4.9


class TestMcExpect:
    def test_haar_trace_consistent_with_zero(self):
        est = mc_expect([linear_loop(SU2, np.eye(2))], MeasureSpec.haar(),
                        100_000, RngSpec(4))
        assert abs(est.value) <= 3 * est.stderr
        assert est.samples == 100_000

    def test_each_distinct_item_is_evaluated_once(self, monkeypatch):
        w = linear_loop(U2, np.eye(2))
        calls = []
        evaluate = Loop.evaluate_batch
        monkeypatch.setattr(Loop, "evaluate_batch", lambda self, gs: calls.append(self) or evaluate(self, gs))
        est = mc_expect([w, w, w], MeasureSpec.haar(), 200, RngSpec(3))
        assert len(calls) == 1 and calls[0] is w
        vals = evaluate(w, haar_sample_batch(U2, RngSpec(3), 200))
        assert abs(est.value - np.mean(vals * vals * vals)) <= 1e-14 * max(1.0, abs(est.value))

    def test_estimates_are_reproducible(self):
        args = ([linear_loop(U2, np.eye(2))], MeasureSpec.haar(), 5000, RngSpec(5))
        assert mc_expect(*args) == mc_expect(*args)

    def test_wilson_beta_zero_equals_haar_stream(self):
        loops = [linear_loop(U2, np.eye(2)), linear_loop(U2, np.eye(2), -1)]
        plaq = [linear_loop(U2, np.eye(2))]
        haar_est = mc_expect(loops, MeasureSpec.haar(), 5000, RngSpec(6))
        wilson_est = mc_expect(loops, MeasureSpec.wilson(0.0, plaq), 5000, RngSpec(6))
        assert wilson_est.value == haar_est.value  # identical weights, same draws

    def test_brownian_u1_vs_exact(self):
        from lgm.loops import LoopSum, conjugate_loop

        u1cube = build_representation(GroupSpec("u1power", 3))
        w = LoopSum((linear_loop(U1, np.array([[0.7 - 0.4j]])),
                     linear_loop(u1cube, np.array([[0.2 + 0.9j]]))))
        wbar = LoopSum(tuple(conjugate_loop(t) for t in w.terms))
        exact = expect_product([w, wbar], MeasureSpec.brownian(1.0))
        est = mc_expect([w, wbar], MeasureSpec.brownian(1.0), 100_000, RngSpec(7), steps=10)
        assert est.stderr > 1e-6  # the estimator genuinely fluctuates
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_wilson_weights(self):
        # a positive-coefficient action shifts E[Re tr g] upward
        plaq = [linear_loop(U2, 0.5 * np.eye(2)), linear_loop(U2, 0.5 * np.eye(2), -1)]
        w = linear_loop(U2, np.eye(2))
        est0 = mc_expect([w], MeasureSpec.haar(), 50_000, RngSpec(8))
        est1 = mc_expect([w], MeasureSpec.wilson(2.0, plaq), 50_000, RngSpec(8))
        assert est1.value.real > est0.value.real + 3 * (est0.stderr + est1.stderr)
        assert est1.imag_discarded <= 1e-12  # Hermitian action combination

    def test_wilson_reports_discarded_imaginary_part(self):
        est = mc_expect([linear_loop(U2, np.eye(2))],
                        MeasureSpec.wilson(0.3, [linear_loop(U2, np.eye(2))]),
                        1000, RngSpec(9))
        assert est.imag_discarded > 0.0

    @pytest.mark.parametrize("measure", [MeasureSpec.haar(), MeasureSpec.brownian(0.8)],
                             ids=["haar", "brownian"])
    def test_unweighted_measures_take_the_plain_mean(self, measure):
        rng = np.random.default_rng(12)
        items = rand_loops(SU3, rng)
        est = mc_expect(items, measure, 400, RngSpec(13), steps=20)
        if measure.kind == "haar":
            gs = haar_sample_batch(SU3, RngSpec(13), 400)
        else:
            gs = brownian_path_batch(SU3, 0.8, 20, RngSpec(13), 400)
        vals = items[0].evaluate_batch(gs) * items[1].evaluate_batch(gs)
        mean = np.mean(vals)
        assert abs(est.value - mean) <= 1e-14 * max(1.0, abs(mean))
        # the plug-in standard error: sqrt((B - 1) / B) times the ddof=1 one
        assert est.stderr == pytest.approx(np.sqrt(np.sum(np.abs(vals - mean) ** 2)) / 400, rel=1e-12)
        assert est.imag_discarded == 0.0

    def test_sample_count_guard(self):
        with pytest.raises(ValueError, match="100"):
            mc_expect([linear_loop(U2, np.eye(2))], MeasureSpec.haar(), 10, RngSpec(0))

    @pytest.mark.parametrize("samples", [200.0, 150.5, True], ids=repr)
    def test_non_integer_samples_refused(self, samples):
        w = linear_loop(U2, np.eye(2))
        with pytest.raises(ValueError, match="samples must be an integer, got samples="):
            mc_expect([w], MeasureSpec.haar(), samples, RngSpec(0))
        with pytest.raises(ValueError, match="samples must be an integer, got samples="):
            verify_theorem_a([w], MeasureSpec.wilson(0.5, [w]), samples=samples)

    def test_numpy_integer_samples_accepted(self):
        w = linear_loop(U2, np.eye(2))
        got = mc_expect([w], MeasureSpec.haar(), np.int64(200), RngSpec(3))
        assert got == mc_expect([w], MeasureSpec.haar(), 200, RngSpec(3))

    def test_one_sample_floor_for_every_estimate(self):
        # a missing count and too few Wilson draws meet the same floor
        w = linear_loop(U2, np.eye(2))
        with pytest.raises(ValueError, match="100"):
            mc_expect([w], MeasureSpec.haar(), None, RngSpec(0))
        with pytest.raises(ValueError, match="100"):
            verify_theorem_a([w], MeasureSpec.wilson(0.5, [w]), samples=10)

    @pytest.mark.parametrize("measure", [MeasureSpec.haar(), MeasureSpec.brownian(0.5),
                                         MeasureSpec.wilson(0.5, [linear_loop(U2, np.eye(2))])],
                             ids=["haar", "brownian", "wilson"])
    def test_empty_product_is_refused(self, measure):
        # the plaquettes are no loop of the product
        with pytest.raises(ValueError, match="need at least one loop"):
            mc_expect([], measure, 200, RngSpec(0))
        with pytest.raises(ValueError, match="need at least one loop"):
            verify_theorem_a([], measure, samples=200)

    def test_wilson_needs_plaquettes(self):
        with pytest.raises(ValueError, match="plaquette"):
            mc_expect([linear_loop(U2, np.eye(2))], MeasureSpec.wilson(0.1, []),
                      1000, RngSpec(0))

    def test_zero_effective_sample_size(self):
        loops = [linear_loop(U2, np.eye(2))]
        plaq = [linear_loop(U2, 1e3 * np.eye(2)), linear_loop(U2, 1e3 * np.eye(2), -1)]
        with pytest.raises(RuntimeError, match="effective sample size"):
            mc_expect(loops, MeasureSpec.wilson(-1e3, plaq), 1000, RngSpec(10))

    def test_collapsed_weights_refused_by_ess(self):
        # 40 SU(3) plaquettes at beta = 6: exp(beta * Re S) overflows unshifted,
        # and after the shift one draw carries almost all the weight
        su3 = build_representation(GroupSpec("su", 3))
        plaq = [linear_loop(su3, np.eye(3))] * 40
        with pytest.raises(RuntimeError, match=r"effective sample size 1(\.\d+)? of 5000 draws"):
            mc_expect([linear_loop(su3, np.eye(3))], MeasureSpec.wilson(6.0, plaq), 5000,
                      RngSpec(11))


def rand_loops(rep, rng, count=2, max_slots=2):
    out = []
    for _ in range(count):
        r = int(rng.integers(1, max_slots + 1))
        coeffs = [rng.standard_normal((rep.dim, rep.dim))
                  + 1j * rng.standard_normal((rep.dim, rep.dim)) for _ in range(r)]
        signs = [int(s) for s in rng.choice([1, -1], size=r)]
        out.append(loop(rep, coeffs, signs, complex(*rng.standard_normal(2))))
    return out


class TestTheoremA:
    @pytest.mark.parametrize("rep", [SO3, U2, SU2, SP1], ids=lambda r: r.spec.label())
    def test_haar_exact(self, rep):
        rng = np.random.default_rng(hash(rep.spec.family) % 2 ** 32)
        for _ in range(3):
            report = verify_theorem_a(rand_loops(rep, rng), MeasureSpec.haar())
            assert report.passed, f"residual {report.residual} > {report.tolerance}"

    def test_haar_contracts_each_shape_once(self, monkeypatch):
        # G2 (+,+)(+): the Laplacian's terms expand into 37 plain products of 5 shapes,
        # all on the Casimir route, and each shape is contracted by one call
        calls = []
        contraction = moments._block_contraction
        monkeypatch.setattr(moments, "_block_contraction",
                            lambda *args: calls.append(len(args[-1])) or contraction(*args))
        rng = np.random.default_rng(41)
        loops = [loop(G2, [rng.standard_normal((7, 7)) for _ in signs], signs) for signs in ([1, 1], [1])]
        report = verify_theorem_a(loops, MeasureSpec.haar())
        assert report.passed, f"residual {report.residual} > {report.tolerance}"
        assert len(calls) == 5 and sum(calls) == 37

    def test_haar_single_linear_loop(self):
        report = verify_theorem_a([linear_loop(SU2, np.eye(2))], MeasureSpec.haar())
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_brownian_ode(self):
        rng = np.random.default_rng(31)
        report = verify_theorem_a(rand_loops(SU2, rng), MeasureSpec.brownian(1.0))
        assert report.kind == "brownian"
        assert report.passed, f"residual {report.residual} > {report.tolerance}"

    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_brownian_lhs_is_the_time_derivative(self, t):
        # 2 d/dt E_t = sum c e^{tc/2} v_c over the dense tensor Casimir, not the Haar left-hand side
        w = linear_loop(U2, haar_sample(U2, RngSpec(34)) + np.diag([0.5, -1j]))
        loops = [w, conjugate_loop(w)]
        report = verify_theorem_a(loops, MeasureSpec.brownian(t))
        c, v = dense_spectrum(U2, 1, 1)
        exact = moment_value(loops, (v * c * np.exp(0.5 * t * c)) @ v.T)
        assert abs(report.lhs - exact) <= 1e-12 * max(1.0, abs(exact))
        h = 1e-4  # a central difference agrees to its O(h^2) error
        fd = (expect_product(loops, MeasureSpec.brownian(t + h))
              - expect_product(loops, MeasureSpec.brownian(t - h))) / h
        assert abs(report.lhs - fd) <= 1e-7 * max(1.0, abs(fd))
        haar_lhs = verify_theorem_a(loops, MeasureSpec.haar()).lhs
        assert abs(report.lhs - haar_lhs) > 0.1 * max(1.0, abs(haar_lhs))
        assert report.passed, f"residual {report.residual} > {report.tolerance}"

    def test_brownian_ode_below_the_default_step(self):
        # t = 5e-5, below the 1e-4 step a central difference would take: the exact generator needs no step
        w = linear_loop(SU2, haar_sample(SU2, RngSpec(32)))
        report = verify_theorem_a([w, conjugate_loop(w)], MeasureSpec.brownian(5e-5))
        assert report.passed, f"residual {report.residual} > {report.tolerance}"

    @pytest.mark.parametrize("t", [5e-5, 0.7, 2.0])
    def test_brownian_is_one_contraction(self, t, monkeypatch):
        # SU(2) (+,-,+)(-): both sides of the heat equation come from one contraction per
        # product shape, at t alone
        calls = []
        contraction = moments._block_contraction
        monkeypatch.setattr(moments, "_block_contraction",
                            lambda *args: calls.append(args[3]) or contraction(*args))
        rng = np.random.default_rng(7)
        loops = [loop(SU2, [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in s], s)
                 for s in ([1, -1, 1], [-1])]
        shapes = {tuple(w.signs for w in flat)
                  for _, items in _laplacian_terms(loops) for flat in moments._expand_items(items)}
        report = verify_theorem_a(loops, MeasureSpec.brownian(t))
        assert calls == [MeasureSpec.brownian(t)] * len(shapes)
        assert report.residual <= 1e-12 * (1.0 + abs(report.rhs))

    def test_brownian_tolerance_follows_the_terms(self):
        # Sp(2) at t = 20: the Laplacian's terms, about 1e6 in size, cancel to a rhs of about 1e-7,
        # which carries their rounding; a tolerance on |rhs| alone would refuse a correct identity
        rng = np.random.default_rng(4)
        loops = [loop(SP2, [10 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) for _ in s], s)
                 for s in ([1, -1], [1, 1])]
        report = verify_theorem_a(loops, MeasureSpec.brownian(20.0))
        assert report.residual > 1e-10 * (1.0 + abs(report.rhs))
        assert report.passed, f"residual {report.residual} > {report.tolerance}"

    def test_wilson_z_score(self):
        plaq = [linear_loop(U2, np.eye(2))]
        w = linear_loop(U2, haar_sample(U2, RngSpec(40)))
        report = verify_theorem_a([w], MeasureSpec.wilson(0.2, plaq),
                                  samples=40_000, rng=RngSpec(41))
        assert report.kind == "wilson"
        assert report.z_score is not None and report.z_score <= 3.0

    def test_wilson_builds_each_draw_real_form_once(self, monkeypatch):
        # SU(3) (+,-,+)(-): loops of 3 or more slots multiply by the real form of rho(g^{+-1});
        # the estimate builds it once for each sign, and an estimate whose loops all have at
        # most 2 slots builds none
        samples, built = 2000, []
        real_form = loops._interleaved_form

        def recording(x):
            if len(x) == samples:  # a draw stack, not a loop's few coefficients
                built.append(x)
            return real_form(x)

        monkeypatch.setattr(loops, "_interleaved_form", recording)
        rng = np.random.default_rng(7)
        coeff = lambda: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        words = [loop(SU3, [coeff() for _ in s], s) for s in ([1, -1, 1], [-1])]
        wilson = MeasureSpec.wilson(0.5, [linear_loop(SU3, np.eye(3))])
        report = verify_theorem_a(words, wilson, samples=samples, rng=RngSpec(21))
        assert report.z_score <= 3.0
        gs = haar_sample_batch(SU3, RngSpec(21), samples)
        signs = [1 if np.array_equal(x, gs) else -1 if np.array_equal(x, np.conj(gs.transpose(0, 2, 1))) else 0
                 for x in built]
        assert sorted(signs) == [-1, 1]
        built.clear()
        two = loop(SU3, [coeff(), coeff()], [1, -1])
        mc_expect([words[1], two, total_merge(words[1], words[1])], wilson, samples, RngSpec(22))
        assert built == []

    def test_wilson_beta_zero_is_exact(self):
        plaq = [linear_loop(U2, np.eye(2))]
        w = linear_loop(U2, haar_sample(U2, RngSpec(42)))
        report = verify_theorem_a([w], MeasureSpec.wilson(0.0, plaq))
        assert report.z_score is None
        assert report.residual <= 1e-9 * (1.0 + abs(report.lhs))

    def test_u1_character_pair(self):
        # loops in different characters: per-loop Casimir weights
        wa = linear_loop(build_representation(GroupSpec("u1power", 2)), np.array([[1.5]]))
        wb = linear_loop(build_representation(GroupSpec("u1power", -2)), np.array([[0.5j]]))
        report = verify_theorem_a([wa, wb], MeasureSpec.haar())
        assert report.passed
        assert abs(report.lhs) > 1e-3  # nonvanishing product expectation


#: each family with the most slots a product of its loops may carry here (D = d**m stays small)
PLAN_FAMILIES = {"u2": ([U2], 6), "su2": ([SU2], 6), "su3": ([SU3], 5), "so3": ([SO3], 5), "so4": ([SO4], 4),
                 "sp1": ([SP1], 6), "sp2": ([SP2], 4), "g2": ([G2], 3), "u1-mixed": ([U1, U1_2, U1_INV], 9)}


def plan_loops(key, sizes, seed):
    """Loops of up to three slots, at most the family's slot count in all, with random slot
    signs, complex coefficients and scales; U(1) loops each in a random character."""
    reps, most = PLAN_FAMILIES[key]
    rng = np.random.default_rng(seed)
    loops, room = [], most
    for size in sizes:
        size = min(size, room)
        if size < 1:
            break
        room -= size
        rep = reps[int(rng.integers(len(reps)))]
        d = rep.dim
        loops.append(loop(rep, [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(size)],
                          [int(x) for x in rng.choice([1, -1], size=size)], complex(*rng.standard_normal(2))))
    return loops


def expect_terms(terms, measure, budget=moments.DEFAULT_BUDGET):
    """``coef * E[prod items]``, and ``coef`` times its generator, for each term of a loop
    polynomial (Haar or Brownian): the Loop-level oracle of the Theorem-A plans.

    Every term is expanded once, and the plain products of all the terms are
    contracted together by one ``moments._expect_products`` call.
    """
    flats, owner = [], []
    for t, (_, items) in enumerate(terms):
        expanded = moments._expand_items(items)
        flats += expanded
        owner += [t] * len(expanded)
    sums = np.zeros((len(terms), 2), dtype=np.complex128)
    np.add.at(sums, np.array(owner, dtype=np.intp), moments._expect_products(flats, measure, budget))
    return np.array([coef for coef, _ in terms])[:, None] * sums


class TestTheoremAPlan:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(PLAN_FAMILIES)), st.lists(st.integers(1, 3), min_size=1, max_size=3),
           st.integers(0, 2 ** 32 - 1), st.just(MeasureSpec.haar()) | st.floats(0.05, 3.0).map(MeasureSpec.brownian))
    @example("g2", [2, 1], 1, MeasureSpec.haar())  # seven insert terms
    @example("u1-mixed", [3, 1, 2], 2, MeasureSpec.brownian(0.8))
    @example("sp2", [2, 2], 3, MeasureSpec.haar())
    @example("so4", [1, 1, 2], 4, MeasureSpec.brownian(1.3))
    @example("su2", [3, 3], 5, MeasureSpec.brownian(0.2))  # twists with a slot-free piece
    def test_plan_matches_loop_surgery(self, key, sizes, seed, measure):
        # the plan's values against the Loop-level surgery and expansion, term by term
        loops = plan_loops(key, sizes, seed)
        got = _theorem_a_plan(tuple((w.rep, w.signs) for w in loops)).values(loops, measure, moments.DEFAULT_BUDGET)
        want = expect_terms([(1.0, loops)] + _laplacian_terms(loops), measure)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("measure", [MeasureSpec.haar(), MeasureSpec.brownian(0.6)], ids=["haar", "brownian"])
    def test_cached_shape_builds_no_loop(self, measure, monkeypatch):
        # G2 (+,+)(+): once its plan is cached, a check on new coefficients builds no Loop
        rng = np.random.default_rng(43)
        first, fresh = ([loop(G2, [rng.standard_normal((7, 7)) for _ in s], s, complex(*rng.standard_normal(2)))
                         for s in ([1, 1], [1])] for _ in range(2))
        assert verify_theorem_a(first, measure).passed
        built = []
        derived, post_init = Loop._derived.__func__, Loop.__post_init__
        monkeypatch.setattr(Loop, "_derived", classmethod(lambda cls, *args: built.append(args) or derived(cls, *args)))
        monkeypatch.setattr(Loop, "__post_init__", lambda self: built.append(self) or post_init(self))
        report = verify_theorem_a(fresh, measure)
        assert report.passed, f"residual {report.residual} > {report.tolerance}"
        assert built == []
        total_merge(*fresh)  # the Loop-level surgery is counted
        assert built

    def test_words_are_multiplied_out_by_one_loop(self, monkeypatch):
        # a Weingarten contraction's diagram words and a plan's recipes both go through
        # moments._word_products; warm caches first, so each call below runs it exactly once
        rng = np.random.default_rng(44)
        coeff = lambda d: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pair = [linear_loop(U2, coeff(2), 1), linear_loop(U2, coeff(2), -1)]
        words = [loop(SU2, [coeff(2) for _ in s], s) for s in ([1, -1, 1], [-1])]
        brownian = MeasureSpec.brownian(0.7)  # every shape on the Casimir route: no diagram words
        expect_product(pair, MeasureSpec.haar())
        verify_theorem_a(words, brownian)
        calls = []
        word_products = moments._word_products

        def counting(letters, steps):
            calls.append(len(steps))
            return word_products(letters, steps)

        for module in (moments, sampling):
            monkeypatch.setattr(module, "_word_products", counting)
        expect_product(pair, MeasureSpec.haar())
        assert len(calls) == 1
        calls.clear()
        assert verify_theorem_a(words, brownian).passed
        assert len(calls) == 1


def _mixed_plaquettes(reps, rng, count):
    """Linear plaquettes cycling through ``reps``, with alternating slot signs
    and complex scales."""
    return [linear_loop(reps[k % len(reps)],
                        0.3 * (rng.standard_normal((reps[0].dim,) * 2)
                               + 1j * rng.standard_normal((reps[0].dim,) * 2)),
                        (-1) ** k, complex(*rng.standard_normal(2)))
            for k in range(count)]


def _per_plaquette_estimate(beta, plaquettes, gs, vals):
    """Self-normalized importance sampling with the action summed plaquette by plaquette."""
    action = sum(p.evaluate_batch(gs) for p in plaquettes)
    log_w = beta * action.real
    w = np.exp(log_w - np.max(log_w))
    value = np.sum(w * vals) / np.sum(w)
    stderr = np.sqrt(np.sum(w ** 2 * np.abs(vals - value) ** 2)) / np.sum(w)
    return value, stderr, float(np.max(np.abs(beta * action.imag)))


WILSON_REPS = {"u3": [U3], "u1-mixed": [U1, U1_2, U1_INV]}


@pytest.mark.parametrize("key", list(WILSON_REPS))
def test_summed_action_matches_per_plaquette_weights(key):
    reps = WILSON_REPS[key]
    rng = np.random.default_rng(52)
    plaq = _mixed_plaquettes(reps, rng, 7)
    assert len(_action_loops(plaq)) == 2 * len(reps)  # one loop per (rep, sign)
    items = [linear_loop(reps[0], np.eye(reps[0].dim)), linear_loop(reps[0], np.eye(reps[0].dim), -1)]
    est = mc_expect(items, MeasureSpec.wilson(0.4, plaq), 2000, RngSpec(53))
    gs = haar_sample_batch(reps[0], RngSpec(53), 2000)
    vals = items[0].evaluate_batch(gs) * items[1].evaluate_batch(gs)
    value, stderr, imag = _per_plaquette_estimate(0.4, plaq, gs, vals)
    assert abs(est.value - value) <= 1e-10 * stderr
    assert est.stderr == pytest.approx(stderr, rel=1e-10)
    assert imag > 0.0
    assert est.imag_discarded == pytest.approx(imag, rel=1e-10)


def _theorem_a_per_plaquette(loops, measure, samples, rng):
    """The Wilson Theorem-A estimate with every effective plaquette
    (1/2)(W_p + conj W_p) kept apart: (2P)^2 merges for the beta^2 term."""
    gs = haar_sample_batch(loops[0].rep, rng, samples)
    vals = [w.evaluate_batch(gs) for w in loops]
    prod = np.prod(vals, axis=0)
    y = sum(w.rep.lam * w.n_slots for w in loops) * prod
    for r, s in itertools.combinations(range(len(loops)), 2):
        rest = np.prod([vals[k] for k in range(len(loops)) if k not in (r, s)], axis=0)
        y = y + 2.0 * total_merge(loops[r], loops[s]).evaluate_batch(gs) * rest
    for r, w in enumerate(loops):
        if w.n_slots >= 2:
            rest = np.prod([vals[k] for k in range(len(loops)) if k != r], axis=0)
            y = y + total_twist(w).evaluate_batch(gs) * rest
    effective = [q for p in measure.plaquettes for q in (p.scaled(0.5), conjugate_loop(p).scaled(0.5))]
    for p in effective:
        y = y - measure.beta * p.rep.lam * p.evaluate_batch(gs) * prod
    for p, p2 in itertools.product(effective, repeat=2):
        y = y - measure.beta ** 2 * total_merge(p, p2).evaluate_batch(gs) * prod
    value, stderr, _ = _per_plaquette_estimate(measure.beta, measure.plaquettes, gs, y)
    return value, stderr


@pytest.mark.parametrize("key", list(WILSON_REPS))
def test_wilson_theorem_a_matches_per_plaquette_merges(key):
    reps = WILSON_REPS[key]
    rng = np.random.default_rng(54)
    plaq = _mixed_plaquettes(reps, rng, 5)
    loops = rand_loops(reps[0], rng)
    measure = MeasureSpec.wilson(0.3, plaq)
    report = verify_theorem_a(loops, measure, samples=2000, rng=RngSpec(55))
    value, stderr = _theorem_a_per_plaquette(loops, measure, 2000, RngSpec(55))
    assert abs(report.lhs - value) <= 1e-10 * stderr
    assert report.stderr == pytest.approx(stderr, rel=1e-10)
