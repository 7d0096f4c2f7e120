import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp.smallmat import (
    SingularMatrixError,
    char_poly,
    is_hurwitz,
    mat_exp,
    solve,
    zoh_discretize,
)

from conftest import random_matrix


def square_matrices(n_max=4, max_norm=2.0):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=n * n, max_size=n * n
        ).map(lambda xs: _scaled(np.array(xs).reshape(n, n), max_norm))
    )


def _scaled(a, max_norm):
    norm = np.linalg.norm(a, np.inf)
    return a if norm <= max_norm else a * (max_norm / norm)


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_diagonal(self):
        out = mat_exp(np.diag([-1.0, -2.0]), 0.5)
        expected = np.diag([0.6065306597126334, 0.36787944117144233])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_nilpotent(self):
        out = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)
        np.testing.assert_allclose(out, [[1.0, 2.0], [0.0, 1.0]], atol=1e-15)

    def test_against_scipy(self, rng):
        for n in (2, 3, 4, 6):
            for _ in range(20):
                a = random_matrix(rng, n, 3.0)
                t = rng.uniform(-2.0, 2.0)
                np.testing.assert_allclose(
                    mat_exp(a, t), scipy.linalg.expm(a * t), rtol=1e-12, atol=1e-13
                )

    def test_large_argument(self, rng):
        # norm(A t) up to 10 per the accuracy contract
        a = random_matrix(rng, 3, 5.0)
        np.testing.assert_allclose(mat_exp(a, 2.0), scipy.linalg.expm(2.0 * a), rtol=1e-11)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError):
            mat_exp(np.eye(2), math.inf)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_semigroup(self, a, s, t):
        left = mat_exp(a, s + t)
        right = mat_exp(a, s) @ mat_exp(a, t)
        np.testing.assert_allclose(left, right, atol=1e-10, rtol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(), st.floats(-2.0, 2.0))
    def test_inverse(self, a, t):
        prod = mat_exp(a, t) @ mat_exp(a, -t)
        np.testing.assert_allclose(prod, np.eye(a.shape[0]), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(n_max=2), st.floats(-2.0, 2.0))
    def test_determinant(self, a, t):
        det = np.linalg.det(mat_exp(a, t))
        assert det == pytest.approx(math.exp(np.trace(a) * t), abs=1e-9, rel=1e-9)


class TestZohDiscretize:
    def test_integrator(self):
        ad, bd = zoh_discretize(np.zeros((2, 2)), np.eye(2), 0.1)
        np.testing.assert_allclose(ad, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(bd, 0.1 * np.eye(2), rtol=1e-14)

    def test_diagonal_closed_form(self):
        ad, bd = zoh_discretize(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]), 0.5)
        np.testing.assert_allclose(np.diagonal(ad), [0.6065306597126334, 0.36787944117144233], rtol=1e-12)
        np.testing.assert_allclose(np.diagonal(bd), [0.7869386805747332, 1.2642411176571153], rtol=1e-12)

    def test_invertible_consistency(self):
        a = np.diag([-1.0, -2.0])
        b = np.diag([2.0, 4.0])
        ad, bd = zoh_discretize(a, b, 0.5)
        expected = np.linalg.solve(a, (ad - np.eye(2)) @ b)
        np.testing.assert_allclose(bd, expected, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 1.0), st.integers(2, 4))
    def test_invertible_consistency_random(self, dt, n):
        rng = np.random.default_rng(n * 1000 + int(dt * 997))
        a = random_matrix(rng, n, 2.0) - 0.5 * np.eye(n)  # push away from singular
        if abs(np.linalg.det(a)) < 1e-3:
            return
        b = random_matrix(rng, n, 2.0)
        ad, bd = zoh_discretize(a, b, dt)
        np.testing.assert_allclose(bd, np.linalg.solve(a, (ad - np.eye(n)) @ b), atol=1e-10)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            zoh_discretize(np.eye(2), np.eye(2), 0.0)
        with pytest.raises(ValueError):
            zoh_discretize(np.eye(2), np.eye(2), -0.1)


class TestIsHurwitz:
    def test_examples(self):
        assert is_hurwitz(np.diag([-1.0, -2.0]))
        assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert is_hurwitz(np.diag([-5.0, -5.0]))

    def test_diagonal_sign_grid(self):
        for l1 in (-2.0, -1.0, 0.0, 1.0):
            for l2 in (-2.0, -1.0, 0.0, 1.0):
                assert is_hurwitz(np.diag([l1, l2])) == (l1 < 0 and l2 < 0)

    def test_matches_eigenvalues_higher_dim(self, rng):
        for n in (3, 4, 5, 8):
            for _ in range(50):
                a = random_matrix(rng, n, 2.0) - rng.uniform(0.0, 1.5) * np.eye(n)
                eigs = np.linalg.eigvals(a)
                if np.min(np.abs(eigs.real)) < 1e-6:
                    continue  # near-marginal; either verdict is defensible
                assert is_hurwitz(a) == bool(np.all(eigs.real < 0))

    def test_char_poly(self):
        a = np.diag([-1.0, -2.0, -3.0])
        np.testing.assert_allclose(char_poly(a), [1.0, 6.0, 11.0, 6.0], rtol=1e-12)


class TestSolve:
    def test_identity(self):
        np.testing.assert_array_equal(solve(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal(self):
        np.testing.assert_allclose(solve(np.diag([2.0, 4.0]), [1.0, 1.0]), [0.5, 0.25])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.ones((2, 2)), [1.0, 2.0])

    def test_residual(self, rng):
        for _ in range(50):
            n = rng.integers(1, 9)
            m = random_matrix(rng, n, 2.0) + np.eye(n)
            b = rng.uniform(-1.0, 1.0, n)
            x = solve(m, b)
            assert np.linalg.norm(m @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_pivot_threshold(self):
        with pytest.raises(SingularMatrixError):
            solve(np.diag([1.0, 1e-13]), [1.0, 1.0])
        np.testing.assert_allclose(solve(np.diag([1.0, 1e-11]), [1.0, 1.0]), [1.0, 1e11], rtol=1e-15)

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((2, 2)), [1.0, 2.0])

    def test_matrix_right_hand_side(self, rng):
        m = random_matrix(rng, 3, 2.0) + np.eye(3)
        b = rng.uniform(-1.0, 1.0, (3, 4))
        x = solve(m, b)
        assert x.shape == (3, 4)
        for j in range(4):
            np.testing.assert_allclose(x[:, j], solve(m, b[:, j]), rtol=1e-14, atol=1e-15)

    def test_rejects_bad_right_hand_side(self):
        with pytest.raises(ValueError, match="rows"):
            solve(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            solve(np.eye(2), [1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            solve(np.array([[1.0, np.inf], [0.0, 1.0]]), [1.0, 1.0])

    def test_leaves_inputs_unchanged(self):
        m, b = np.array([[0.0, 2.0], [1.0, 1.0]]), np.array([2.0, 3.0])
        np.testing.assert_allclose(solve(m, b), [2.0, 1.0])
        assert m.tolist() == [[0.0, 2.0], [1.0, 1.0]] and b.tolist() == [2.0, 3.0]
