import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp.smallmat import (
    MAX_DIM,
    SingularMatrixError,
    as_matrix,
    as_vector,
    is_diagonal,
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

    def test_argument_past_float_range(self):
        # ||A t|| and the squaring count's power of 2 are past the float
        # range; the nilpotent A's exponential I + A t is not
        out = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e308)
        np.testing.assert_array_equal(out, [[1.0, 1e308], [0.0, 1.0]])

    @pytest.mark.parametrize("a", [np.diag([-1.0, 2.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])])
    def test_empty_times(self, a):
        # the diagonal and the general path agree on no times at all
        out = mat_exp(a, np.array([]))
        assert out.shape == (0, 2, 2)

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

    # a zero, a negative and a positive rate; B full and not square (m != n)
    RATES = (0.0, -1.5, 0.7)
    FULL_B = np.array([[1.0, -2.0], [0.5, 3.0], [-4.0, 0.25]])

    def test_diagonal_matches_augmented_exponential(self):
        a, dt = np.diag(self.RATES), 0.01
        ad, bd = zoh_discretize(a, self.FULL_B, dt)
        aug = np.zeros((5, 5))
        aug[:3, :3], aug[:3, 3:] = a, self.FULL_B
        e = mat_exp(aug, dt)
        np.testing.assert_array_equal(ad - np.diag(np.diagonal(ad)), 0.0)
        np.testing.assert_allclose(ad, e[:3, :3], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(bd, e[:3, 3:], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("dt", [0.01, 0.3, 7.0])
    def test_diagonal_closed_form_exact(self, dt):
        # against e^{a dt} and (e^{a dt} - 1) / a in 40-digit decimals, from
        # the same rounded a dt; the augmented series is no reference here,
        # as its own rounding reaches 1e-14 relative at dt = 7
        ad, bd = zoh_discretize(np.diag(self.RATES), self.FULL_B, dt)
        with localcontext() as ctx:
            ctx.prec = 40
            exps = [Decimal(r * dt).exp() for r in self.RATES]
            phis = [Decimal(dt) if r == 0 else (e - 1) / Decimal(r) for r, e in zip(self.RATES, exps)]
            want = [[float(p * Decimal(b)) for b in row] for p, row in zip(phis, self.FULL_B)]
        np.testing.assert_allclose(np.diagonal(ad), [float(e) for e in exps], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(bd, want, rtol=1e-15, atol=0.0)

    def test_integrator_input_map_is_exact(self):
        ad, bd = zoh_discretize(np.zeros((3, 3)), self.FULL_B, 0.1)
        np.testing.assert_array_equal(ad, np.eye(3))
        np.testing.assert_array_equal(bd, 0.1 * self.FULL_B)

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


class TestIsDiagonal:
    def test_zero_diagonal_entry(self):
        assert is_diagonal(np.diag([0.0, -2.0, 0.0]))
        assert is_diagonal(np.zeros((1, 1))) and is_diagonal(np.zeros((3, 3)))

    def test_nonzero_off_diagonal_entry(self):
        a = np.diag([1.0, 2.0, 3.0])
        a[2, 0] = 1e-300
        assert not is_diagonal(a)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_inf_or_nan_anywhere(self, bad, at):
        a = np.diag([1.0, 0.0])
        a[at] = bad
        assert not is_diagonal(a)


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

    def test_imaginary_axis_roots_end_on_a_zero_row(self):
        # companion matrix of s^3 + s^2 + s + 1 = (s + 1)(s^2 + 1): two
        # eigenvalues on the imaginary axis, so not stable
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
        assert not is_hurwitz(a)

    @pytest.mark.parametrize("value", [0.0, 5e-324, 1e-320, 2.2e-308, 1.0, 1e308])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_by_one(self, value, sign):
        # a 1 x 1 matrix is triangular, so the sign of its entry decides;
        # -0.0 is not stable
        assert is_hurwitz(np.array([[sign * value]])) == (sign * value < 0.0)

    @pytest.mark.parametrize("M", [
        np.diag([-1e6, -1e-6, -1.0]),
        np.array([[-1e6, 2.0, 3.0], [0.0, -1e-6, 5.0], [0.0, 0.0, -1.0]]),
    ])
    def test_triangular_with_spread_diagonal(self, M):
        # the diagonal holds the eigenvalues, whatever their spread
        assert is_hurwitz(M) and is_hurwitz(M.T)
        unstable = M.copy()
        unstable[1, 1] = 1e-6
        assert not is_hurwitz(unstable) and not is_hurwitz(unstable.T)

    @pytest.mark.parametrize("slow", [-1e-6, 1e-6])
    def test_similar_to_spread_diagonal(self, slow):
        # a well-conditioned similarity of eigenvalues spread over 1e12, on
        # which Faddeev-LeVerrier's characteristic polynomial has a constant
        # term of -2.1 instead of 1
        P = np.array([[1.0, 0.0, 0.5], [0.5, 1.0, 0.0], [0.0, 0.5, 1.0]])
        M = P @ np.diag([-1e6, slow, -1.0]) @ np.linalg.inv(P)
        assert is_hurwitz(M) == (slow < 0)


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

    @pytest.mark.parametrize("m", [[[1.0, 1e13], [0.0, 1.0]], [[1e-13, 0.0], [1.0, 1.0]]])
    def test_triangular_singular_by_singular_values(self, m):
        # nonzero pivots, but sigma_min < 1e-12 sigma_max: the test is on
        # singular values, not on the diagonal of a triangular M
        with pytest.raises(SingularMatrixError):
            solve(np.array(m), [1.0, 1.0])

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


@pytest.mark.parametrize("call,message", [
    (lambda: zoh_discretize(np.eye(2), np.ones((3, 1)), 0.1), "B row count 3"),
    (lambda: zoh_discretize(np.eye(2), np.array([[1.0], [np.inf]]), 0.1), "B has non-finite"),
    (lambda: as_matrix(np.ones((2, 3))), "must be square"),
    (lambda: as_matrix(np.ones(3)), "must be square"),
    (lambda: as_matrix(np.eye(MAX_DIM + 1)), f"dimension {MAX_DIM + 1} outside"),
    (lambda: as_vector(np.ones((2, 1))), "must be 1-dimensional"),
    (lambda: mat_exp(np.ones((2, 3))), "square matrix"),
    (lambda: mat_exp(np.eye(2), np.ones((2, 2))), "scalar or 1-D"),
])
def test_boundary_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
