"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
happen.  Tolerances are fixed here, not configurable.
"""

import numpy as np

from lgm.catalog import (GroupSpec, build_representation,
                         closed_form_completeness, split_casimir)
from lgm.loops import LoopSum, laplacian, linear_loop, loop, total_merge
from lgm.moments import (MeasureSpec, brownian_moment, expect_product, haar_moment,
                         moment_operator, spanning_set, weingarten)
from lgm.sampling import RngSpec, haar_sample, haar_sample_batch, verify_theorem_a

import scipy.linalg


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def rand_loops(rep, rng, count, max_slots=2):
    out = []
    for _ in range(count):
        r = int(rng.integers(1, max_slots + 1))
        coeffs = [rng.standard_normal((rep.dim, rep.dim))
                  + 1j * rng.standard_normal((rep.dim, rep.dim)) for _ in range(r)]
        signs = [int(s) for s in rng.choice([1, -1], size=r)]
        out.append(loop(rep, coeffs, signs, complex(*rng.standard_normal(2))))
    return out


def test_criterion_01_completeness_relations():
    specs = ([GroupSpec("so", n) for n in range(2, 7)]
             + [GroupSpec("sp", n) for n in range(1, 7)]
             + [GroupSpec("u", n) for n in range(1, 7)]
             + [GroupSpec("su", n) for n in range(2, 7)]
             + [GroupSpec("g2")])
    worst = 0.0
    for spec in specs:
        rep = build_representation(spec)
        err = float(np.max(np.abs(split_casimir(rep).k - closed_form_completeness(spec).k)))
        worst = max(worst, err)
    report(1, worst <= 1e-12,
           f"generator-sum K equals closed completeness forms, worst {worst:.2e} <= 1e-12")


def test_criterion_02_casimir_eigenvalues():
    worst = 0.0
    for n in range(2, 7):
        worst = max(worst, abs(build_representation(GroupSpec("so", n)).lam - (1.0 - n)))
        worst = max(worst, abs(build_representation(GroupSpec("su", n)).lam - (-n + 1.0 / n)))
    for n in range(1, 7):
        worst = max(worst, abs(build_representation(GroupSpec("sp", n)).lam - (-(1.0 + 2 * n))))
        worst = max(worst, abs(build_representation(GroupSpec("u", n)).lam - (-float(n))))
    # G2 against the contraction oracle of the closed completeness form
    k = closed_form_completeness(GroupSpec("g2")).k
    lam_oracle = np.einsum("ikkj->ij", k)[0, 0].real
    worst = max(worst, abs(build_representation(GroupSpec("g2")).lam - lam_oracle))
    report(2, worst <= 1e-12, f"Casimir eigenvalues exact, worst deviation {worst:.2e} <= 1e-12")


def test_criterion_03_unitary_first_moment():
    worst = 0.0
    for n in (2, 3, 4):
        rep = build_representation(GroupSpec("u", n))
        t = haar_moment(rep, 1, 1).matrix.reshape((n,) * 4)
        ref = np.einsum("ab,cd->abcd", np.eye(n), np.eye(n)) / n
        worst = max(worst, float(np.max(np.abs(t - ref))))
    report(3, worst <= 1e-10,
           f"U(N) moment T = delta.delta/N for N in 2..4, worst {worst:.2e} <= 1e-10")


def test_criterion_04_g2_second_moment_and_weingarten():
    rep = build_representation(GroupSpec("g2"))
    t = haar_moment(rep, 2, 0).matrix.reshape(7, 7, 7, 7)
    ref = np.einsum("ab,cd->abcd", np.eye(7), np.eye(7)) / 7.0
    moment_err = float(np.max(np.abs(t - ref)))
    wm = weingarten(spanning_set(rep, 2, 0, "g2u"))
    wg_err = abs(wm.wg[0, 0] - 1.0 / 7.0)
    ok = moment_err <= 1e-9 and wg_err <= 1e-12
    report(4, ok, f"G2 second moment (1/7)dd err {moment_err:.2e} <= 1e-9, "
                  f"Wg = 1/7 err {wg_err:.2e} <= 1e-12")


def partition_products(n, n_dim):
    if n == 1:
        return [(float(n_dim), 1)]
    if n == 2:
        return [(float(n_dim * (n_dim + 1)), 1), (float(n_dim * (n_dim - 1)), 1)]
    return [(float(n_dim * (n_dim + 1) * (n_dim + 2)), 1),
            (float((n_dim - 1) * n_dim * (n_dim + 1)), 4),
            (float((n_dim - 2) * (n_dim - 1) * n_dim), 1)]


def test_criterion_05_unitary_weingarten():
    worst_recon, worst_eig, worst_entry = 0.0, 0.0, 0.0
    for n_dim in (3, 4):
        rep = build_representation(GroupSpec("u", n_dim))
        for n in (1, 2, 3):
            wm = weingarten(spanning_set(rep, n, n, "permutations"))
            h = moment_operator(rep, n, n, MeasureSpec.haar()).matrix
            worst_recon = max(worst_recon, float(np.max(np.abs(wm.moment_matrix() - h))))
            got = np.sort(np.linalg.eigvalsh(wm.gram))
            want = np.sort([v for v, m in partition_products(n, n_dim) for _ in range(m)])
            worst_eig = max(worst_eig, float(np.max(np.abs(got - want))))
            if n == 2:
                idx = {lab: k for k, lab in enumerate(wm.spanning.labels)}
                e, swap = idx[(0, 1)], idx[(1, 0)]
                worst_entry = max(
                    worst_entry,
                    abs(wm.wg[e, e] - 1.0 / (n_dim ** 2 - 1)),
                    abs(wm.wg[e, swap] + 1.0 / (n_dim * (n_dim ** 2 - 1))),
                )
    ok = worst_recon <= 1e-9 and worst_eig <= 1e-9 and worst_entry <= 1e-12
    report(5, ok, f"U(N) Weingarten n<=3, N in 3..4: tau.Wg.tau* vs Haar {worst_recon:.2e} "
                f"<= 1e-9, Gram eigenvalues vs hook products {worst_eig:.2e} <= 1e-9, "
                f"n=2 entries {worst_entry:.2e} <= 1e-12")


def test_criterion_06_unitary_off_balance_vanishing():
    worst = 0.0
    for n, nprime in ((1, 0), (2, 1)):
        for n_dim in (2, 3):
            rep = build_representation(GroupSpec("u", n_dim))
            worst = max(worst, float(np.linalg.norm(haar_moment(rep, n, nprime).matrix)))
    report(6, worst <= 1e-10,
           f"U(N) moments vanish for (n,n') in (1,0),(2,1), worst norm {worst:.2e} <= 1e-10")


def test_criterion_07_brownian_semigroup_and_limit():
    worst_semi, worst_limit = 0.0, 0.0
    signatures = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
    for fam, n_dim in (("su", 2), ("u", 2)):
        rep = build_representation(GroupSpec(fam, n_dim))
        for n, nprime in signatures:
            b1 = brownian_moment(rep, n, nprime, 0.7).matrix
            b2 = brownian_moment(rep, n, nprime, 1.1).matrix
            b3 = brownian_moment(rep, n, nprime, 1.8).matrix
            worst_semi = max(worst_semi, float(np.max(np.abs(b1 @ b2 - b3))))
            blim = brownian_moment(rep, n, nprime, 50.0).matrix
            h = haar_moment(rep, n, nprime).matrix
            worst_limit = max(worst_limit, float(np.max(np.abs(blim - h))))
    ok = worst_semi <= 1e-10 and worst_limit <= 1e-8
    report(7, ok, f"Brownian semigroup {worst_semi:.2e} <= 1e-10 and "
                  f"t=50 limit vs Haar {worst_limit:.2e} <= 1e-8 (SU(2), U(2), n+n'<=3)")


def test_criterion_08_u1_worked_example():
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(5):
        exps1 = rng.choice(np.arange(-4, 5), size=4, replace=False)
        exps2 = rng.choice(np.arange(-4, 5), size=5, replace=False)
        c1 = {int(n): complex(*rng.standard_normal(2)) for n in exps1}
        c2 = {int(n): complex(*rng.standard_normal(2)) for n in exps2}
        mk = lambda cs: LoopSum(tuple(
            linear_loop(build_representation(GroupSpec("u1power", n)), np.array([[c]]))
            for n, c in cs.items()))
        got = expect_product([mk(c1), mk(c2)], MeasureSpec.haar())
        want = sum(c1[n] * c2[-n] for n in c1 if -n in c2)
        worst = max(worst, abs(got - want))
    report(8, worst <= 1e-12,
           f"U(1) Fourier pairing sum reproduced, worst {worst:.2e} <= 1e-12")


def test_criterion_09_theorem_a_haar_exact():
    worst_rel = 0.0
    for fam, n_dim in (("so", 3), ("u", 2), ("su", 2), ("sp", 1)):
        rep = build_representation(GroupSpec(fam, n_dim))
        rng = np.random.default_rng(90 + n_dim + hash(fam) % 97)
        for _ in range(25):
            r = verify_theorem_a(rand_loops(rep, rng, 2), MeasureSpec.haar())
            worst_rel = max(worst_rel, r.residual / (1.0 + abs(r.lhs)))
            assert r.passed
    report(9, worst_rel <= 1e-9,
           f"Theorem A exact under Haar, 25 loop pairs x 4 families, "
           f"worst scaled residual {worst_rel:.2e} <= 1e-9")


def test_criterion_10_theorem_a_brownian_ode():
    worst_rel = 0.0
    for fam, n_dim, seed in (("su", 2, 100), ("u", 2, 101)):
        rep = build_representation(GroupSpec(fam, n_dim))
        rng = np.random.default_rng(seed)
        for _ in range(2):
            r = verify_theorem_a(rand_loops(rep, rng, 2), MeasureSpec.brownian(1.0))
            worst_rel = max(worst_rel, r.residual / (1.0 + abs(r.rhs)))
            assert r.passed
    report(10, worst_rel <= 1e-6,
           f"Brownian ODE form of Theorem A at t=1 (central differences, step 1e-4), "
           f"worst scaled residual {worst_rel:.2e} <= 1e-6")


def test_criterion_11_wilson_action_identity():
    rep = build_representation(GroupSpec("u", 2))
    plaquettes = [linear_loop(rep, np.eye(2))]
    loops = [linear_loop(rep, haar_sample(rep, RngSpec(110))),
             loop(rep, [haar_sample(rep, RngSpec(111)), haar_sample(rep, RngSpec(112))],
                  [1, -1])]
    exact0 = verify_theorem_a(loops, MeasureSpec.wilson(0.0, plaquettes))
    worst_z = 0.0
    for beta in (0.1, 0.5):
        r = verify_theorem_a(loops, MeasureSpec.wilson(beta, plaquettes),
                             samples=200_000, rng=RngSpec(113))
        worst_z = max(worst_z, r.z_score)
    ok = exact0.residual <= 1e-9 * (1.0 + abs(exact0.lhs)) and worst_z <= 3.0
    report(11, ok, f"Wilson identity on U(2), one plaquette tr(g): beta=0 exact residual "
                   f"{exact0.residual:.2e}, worst z over beta in (0.1, 0.5) is "
                   f"{worst_z:.2f} <= 3 at 2e5 common samples")


def test_criterion_12_sampler_calibration():
    details = []
    ok = True
    for n_dim in (2, 3):
        rep = build_representation(GroupSpec("u", n_dim))
        target = expect_product(
            [linear_loop(rep, np.eye(n_dim)), linear_loop(rep, np.eye(n_dim), -1)],
            MeasureSpec.haar())
        gs = haar_sample_batch(rep, RngSpec(120 + n_dim), 100_000)
        vals = np.abs(np.trace(gs, axis1=1, axis2=2)) ** 2
        stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size))
        dev = abs(float(vals.mean()) - target.real)
        ok &= dev <= 3 * stderr
        details.append(f"U({n_dim}) dev {dev:.4f} <= 3x{stderr:.4f}")
    rep = build_representation(GroupSpec("so", 4))
    target = expect_product([linear_loop(rep, np.eye(4))] * 2, MeasureSpec.haar())
    gs = haar_sample_batch(rep, RngSpec(125), 100_000)
    vals = np.trace(gs, axis1=1, axis2=2).real ** 2
    stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size))
    dev = abs(float(vals.mean()) - target.real)
    ok &= dev <= 3 * stderr
    details.append(f"SO(4) dev {dev:.4f} <= 3x{stderr:.4f}")
    report(12, ok, "sampler calibration vs exact moments: " + "; ".join(details))


def test_criterion_13_finite_difference_oracles():
    worst = 0.0
    for fam, n_dim, seed in (("su", 2, 130), ("so", 3, 131)):
        rep = build_representation(GroupSpec(fam, n_dim))
        rng = np.random.default_rng(seed)
        g = haar_sample(rep, RngSpec(seed))
        for _ in range(5):
            w1, w2 = rand_loops(rep, rng, 2)
            got = total_merge(w1, w2).evaluate(g)
            h = 1e-5
            want = 0.0
            for xi in rep.generators:
                dp1 = (w1.evaluate(g @ scipy.linalg.expm(h * xi))
                       - w1.evaluate(g @ scipy.linalg.expm(-h * xi))) / (2 * h)
                dp2 = (w2.evaluate(g @ scipy.linalg.expm(h * xi))
                       - w2.evaluate(g @ scipy.linalg.expm(-h * xi))) / (2 * h)
                want += dp1 * dp2
            worst = max(worst, abs(got - want) / (1.0 + abs(got)))

            h2 = 1e-4
            lap_fd = sum(
                (w1.evaluate(g @ scipy.linalg.expm(h2 * xi)) - 2.0 * w1.evaluate(g)
                 + w1.evaluate(g @ scipy.linalg.expm(-h2 * xi))) / h2 ** 2
                for xi in rep.generators)
            got_lap = laplacian(w1).evaluate(g)
            worst = max(worst, abs(got_lap - lap_fd) / (1.0 + abs(got_lap)))
    report(13, worst <= 1e-7,
           f"merging = gradient pairing and Laplacian = second difference on random "
           f"instances, worst scaled deviation {worst:.2e} <= 1e-7")
