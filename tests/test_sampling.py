"""Sampler and Monte-Carlo oracle tests.

MC assertions run at fixed seeds, so they are deterministic; targets marked
"exact" are derived from the moment-operator module, which keeps the two
routes (exact contraction vs sampling) independent.
"""

import itertools

import numpy as np
import pytest

from lgm.catalog import GroupSpec, build_representation, group_residual
from lgm.loops import conjugate_loop, linear_loop, loop, merge_at, total_merge, total_twist
from lgm.moments import MeasureSpec, expect_product
from lgm.sampling import (BrownianPathSpec, RngSpec, _action_loops, brownian_path,
                          brownian_path_batch, haar_sample, haar_sample_batch,
                          mc_expect, verify_theorem_a)
from lgm.tensor import expm_skew_batch

U2 = build_representation(GroupSpec("u", 2))
U3 = build_representation(GroupSpec("u", 3))
SU2 = build_representation(GroupSpec("su", 2))
SO3 = build_representation(GroupSpec("so", 3))
SO4 = build_representation(GroupSpec("so", 4))
SP1 = build_representation(GroupSpec("sp", 1))
SP2 = build_representation(GroupSpec("sp", 2))
U1 = build_representation(GroupSpec("u1power", 1))
SU3 = build_representation(GroupSpec("su", 3))
U1_2 = build_representation(GroupSpec("u1power", 2))
U1_INV = build_representation(GroupSpec("u1power", -1))


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
            q = q * np.exp(-np.log(np.linalg.det(q)) / n)[:, None, None]
        if family == "so":
            q[np.linalg.det(q) < 0, :, -1] *= -1.0
        got = haar_sample_batch(build_representation(GroupSpec(family, n)), rng, 500)
        assert np.max(np.abs(got - q)) <= 1e-12

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

    def test_g2_brownian_mixing_is_nearly_haar(self):
        rep = build_representation(GroupSpec("g2"))
        g = haar_sample(rep, RngSpec(5))  # t=50, 5000 steps under the hood
        assert group_residual(rep, g) <= 1e-6


class TestBrownianPath:
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
        # discretization biases separate cleanly from the shared noise
        b, fine, t = 40_000, 128, 1.0
        z = np.random.default_rng((21, 0)).standard_normal((b, fine, 3))
        xis = SU2.generators
        vals = {}
        for steps in (8, 16, 32, 128):
            ratio = fine // steps
            zc = z.reshape(b, steps, ratio, 3).sum(axis=2) / np.sqrt(ratio)
            h = t / steps
            g = np.broadcast_to(np.eye(2, dtype=complex), (b, 2, 2)).copy()
            for k in range(steps):
                g = g @ expm_skew_batch(np.sqrt(h) * np.einsum("ba,aij->bij", zc[:, k], xis))
            vals[steps] = np.trace(g, axis1=1, axis2=2).real.mean()
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

    def test_sample_count_guard(self):
        with pytest.raises(ValueError, match="100"):
            mc_expect([linear_loop(U2, np.eye(2))], MeasureSpec.haar(), 10, RngSpec(0))

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

    def test_haar_single_linear_loop(self):
        report = verify_theorem_a([linear_loop(SU2, np.eye(2))], MeasureSpec.haar())
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_brownian_ode(self):
        rng = np.random.default_rng(31)
        report = verify_theorem_a(rand_loops(SU2, rng), MeasureSpec.brownian(1.0))
        assert report.kind == "brownian"
        assert report.passed, f"residual {report.residual} > {report.tolerance}"

    def test_brownian_ode_below_the_default_step(self):
        # t = 5e-5 < 1e-4: the central-difference step shrinks to t/2
        w = linear_loop(SU2, haar_sample(SU2, RngSpec(32)))
        report = verify_theorem_a([w, conjugate_loop(w)], MeasureSpec.brownian(5e-5))
        assert report.passed, f"residual {report.residual} > {report.tolerance}"

    def test_wilson_z_score(self):
        plaq = [linear_loop(U2, np.eye(2))]
        w = linear_loop(U2, haar_sample(U2, RngSpec(40)))
        report = verify_theorem_a([w], MeasureSpec.wilson(0.2, plaq),
                                  samples=40_000, rng=RngSpec(41))
        assert report.kind == "wilson"
        assert report.z_score is not None and report.z_score <= 3.0

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
