from __future__ import annotations

import numpy as np
import pytest

from jacobi_svd import SvdConvergenceError, jacobi_svd


def assert_valid_svd(m, u, s, vt, tol=1e-10):
    scale = max(1.0, np.abs(m).max())
    assert np.linalg.norm(u @ np.diag(s) @ vt - m) <= tol * scale
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= tol
    assert np.linalg.norm(vt @ vt.T - np.eye(vt.shape[0])) <= tol
    assert (np.diff(s) <= 1e-12).all()  # descending
    assert (s >= 0).all()


class TestJacobiSvd:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 5), (8, 3), (3, 8), (40, 40)])
    def test_matches_reference_svd(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = rng.standard_normal(shape)
        u, s, vt = jacobi_svd(m)
        assert_valid_svd(m, u, s, vt)
        expected = np.linalg.svd(m, compute_uv=False)
        assert np.abs(s[: len(expected)] - expected).max() <= 1e-10

    def test_fuzzed_square_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            scale = 10.0 ** rng.integers(-3, 4)
            m = rng.standard_normal((n, n)) * scale
            u, s, vt = jacobi_svd(m)
            assert_valid_svd(m, u, s, vt, tol=1e-9)
            expected = np.linalg.svd(m, compute_uv=False)
            assert np.abs(s - expected).max() <= 1e-9 * max(1.0, scale)

    def test_rank_deficient(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        u, s, vt = jacobi_svd(m)
        assert_valid_svd(m, u, s, vt)
        assert (s[2:] <= 1e-10).all()

    def test_zero_matrix(self):
        u, s, vt = jacobi_svd(np.zeros((4, 4)))
        assert (s == 0).all()
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-12

    def test_diagonal_matrix_immediate(self):
        m = np.diag([3.0, 2.0, 1.0])
        u, s, vt = jacobi_svd(m)
        assert np.allclose(s, [3.0, 2.0, 1.0])
        assert_valid_svd(m, u, s, vt, tol=1e-14)

    def test_clustered_singular_values(self):
        # Nearly equal singular values are the numerically delicate case.
        rng = np.random.default_rng(17)
        q1, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        s_true = 1.0 + 1e-9 * rng.random(20)
        m = q1 @ np.diag(s_true) @ q2.T
        u, s, vt = jacobi_svd(m)
        assert_valid_svd(m, u, s, vt)

    def test_wide_range_of_singular_values(self):
        rng = np.random.default_rng(23)
        q1, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        q2, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        s_true = np.logspace(0, -9, 10)
        m = q1 @ np.diag(s_true) @ q2.T
        u, s, vt = jacobi_svd(m)
        assert_valid_svd(m, u, s, vt)
        assert np.abs(s - s_true).max() <= 1e-9

    def test_nonconvergence_raises_with_sweep_count(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((30, 30))
        with pytest.raises(SvdConvergenceError) as excinfo:
            jacobi_svd(m, max_sweeps=1)
        assert excinfo.value.sweeps == 1

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            jacobi_svd(np.zeros(3))
