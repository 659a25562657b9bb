"""Kernel tests: spectral routines, pseudoinverse, skew exponential, JSON."""

import json

import numpy as np
import pytest

from lgm.tensor import expm_skew_batch, pseudoinverse, tensor_to_json


def faddeev_leverrier(m):
    """Characteristic polynomial coefficients by the trace recursion."""
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    acc = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        acc = m @ acc
        c = -np.trace(acc) / k
        coeffs.append(c)
        acc = acc + c * np.eye(n)
    return np.array(coeffs)


def mp_identities_residual(m, p):
    """Max relative residual of the four Moore-Penrose identities."""
    scale = max(np.linalg.norm(m), np.linalg.norm(p), 1.0)
    return max(
        np.linalg.norm(m @ p @ m - m),
        np.linalg.norm(p @ m @ p - p),
        np.linalg.norm((m @ p).conj().T - m @ p),
        np.linalg.norm((p @ m).conj().T - p @ m),
    ) / scale


class TestPseudoinverse:
    def test_g2_gram_shape(self):
        p = pseudoinverse(np.diag([7.0, 0.0]))
        assert np.allclose(p, np.diag([1.0 / 7.0, 0.0]))

    def test_invertible(self):
        assert np.allclose(pseudoinverse(np.diag([2.0])), np.diag([0.5]))

    def test_rank_one_projector(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v *= 2.0 / np.linalg.norm(v)
        m = np.outer(v, v.conj())
        assert np.linalg.norm(pseudoinverse(m) - m / 16.0) <= 1e-12

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = np.linalg.qr(rng.standard_normal((6, 6))
                             + 1j * rng.standard_normal((6, 6)))[0]
            w = np.array([3.0, -1.5, 0.7, 0.0, 0.0, 2.0])
            m = (u * w) @ u.conj().T
            assert mp_identities_residual(m, pseudoinverse(m)) <= 1e-9

    def test_involution(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = 0.5 * (x + x.conj().T)
        again = pseudoinverse(pseudoinverse(m))
        assert np.linalg.norm(again - m) <= 1e-9 * np.linalg.norm(m)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.eye(2), rel_cutoff=2.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            pseudoinverse(np.zeros((2, 3)))

    def test_zero_matrix(self):
        assert np.array_equal(pseudoinverse(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_symmetrizes_its_input(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (x + x.conj().T)
        assert np.array_equal(pseudoinverse(x), pseudoinverse(h))
        assert pseudoinverse(h.real).dtype == np.float64

    def test_eigenvalues_are_reciprocal_characteristic_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((5, 5))
            m = 0.5 * (x + x.T)
            w = np.linalg.eigvalsh(pseudoinverse(m))
            roots = np.sort(1.0 / np.roots(faddeev_leverrier(m.astype(complex))).real)
            assert np.max(np.abs(w - roots)) <= 1e-10 * np.max(np.abs(roots))


def expm_skew_eigh(x):
    """Oracle for `expm_skew_batch`: ``exp(x) = u diag(exp(-i w)) u^H`` from the
    batched eigendecomposition of the Hermitian ``i x``, always complex."""
    h = 1j * np.asarray(x)
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    w, u = np.linalg.eigh(h)
    return np.einsum("...ik,...k,...jk->...ij", u, np.exp(-1j * w), np.conj(u))


def skew_stack(rng, count, n, norms, complex_=True):
    """``count`` random skew-Hermitian (or real antisymmetric) ``n x n``
    matrices with the given Frobenius norms."""
    x = rng.standard_normal((count, n, n))
    if complex_:
        x = x + 1j * rng.standard_normal((count, n, n))
    x = x - np.conj(np.swapaxes(x, -1, -2))
    return x * (norms / np.linalg.norm(x, axis=(1, 2)))[:, None, None]


class TestExpm:
    """``expm_skew_batch``, the exponential the Brownian integrator uses on algebras of rank two and more."""

    def test_zero(self):
        assert np.array_equal(expm_skew_batch(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = expm_skew_batch(np.diag([1.5j, -0.3j]))
        assert np.allclose(got, np.diag(np.exp([1.5j, -0.3j])), atol=1e-14)

    def test_rotation(self):
        theta = np.pi / 3.0
        got = expm_skew_batch(theta * np.array([[0.0, -1.0], [1.0, 0.0]]))
        want = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.linalg.norm(got - want) <= 1e-14

    def test_group_property(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = 10.0 * x / np.linalg.norm(x)
            a = 0.5 * (a - a.conj().T)  # skew-Hermitian, norm <= 10
            assert np.linalg.norm(expm_skew_batch(a) @ expm_skew_batch(-a) - np.eye(4)) <= 1e-10

    def test_batch_matches_scipy(self):
        import scipy.linalg

        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        a = 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))
        got = expm_skew_batch(a)
        for k in range(3):
            assert np.allclose(got[k], scipy.linalg.expm(a[k]), atol=1e-12)

    def test_real_input_gives_real_output(self):
        x = skew_stack(np.random.default_rng(10), 6, 5, np.full(6, 0.7), complex_=False)
        got = expm_skew_batch(x)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - expm_skew_eigh(x))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_norm_spread_in_one_batch(self, n, complex_):
        # one scaling for the whole batch: the smallest matrices are squared
        # as often as the largest and must stay as accurate
        norms = np.logspace(-8, 1, 40)
        x = skew_stack(np.random.default_rng(11), norms.size, n, norms, complex_)
        got = expm_skew_batch(x)
        assert np.max(np.abs(got - expm_skew_eigh(x))) <= 1e-13
        unit = np.conj(np.swapaxes(got, -1, -2)) @ got - np.eye(n)
        assert np.max(np.abs(unit)) <= 1e-13

    def test_one_by_one_is_exp(self):
        # 1 x 1 stacks take the real 2 x 2 form like any complex stack
        x = 1j * np.linspace(-4.0, 4.0, 9)[:, None, None]
        assert np.max(np.abs(expm_skew_batch(x) - np.exp(x))) <= 1e-14

    def test_empty_stack(self):
        assert expm_skew_batch(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def tensor_from_json(doc: dict) -> np.ndarray:
    """Oracle for `tensor_to_json`: the dense complex array its sparse form describes."""
    shape = tuple(int(s) for s in doc["shape"])
    a = np.zeros(shape, dtype=np.complex128)
    for entry in doc["entries"]:
        idx = tuple(int(i) for i in entry["idx"])
        a[idx] = complex(entry["re"], entry["im"])
    return a


class TestJson:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        doc = json.loads(json.dumps(tensor_to_json(a)))
        assert np.array_equal(tensor_from_json(doc), a)

    def test_prunes_tiny_entries(self):
        a = np.array([[1.0, 1e-15], [0.0, -2.0]])
        doc = tensor_to_json(a)
        assert {tuple(e["idx"]) for e in doc["entries"]} == {(0, 0), (1, 1)}
        back = tensor_from_json(doc)
        assert back[0, 1] == 0.0
