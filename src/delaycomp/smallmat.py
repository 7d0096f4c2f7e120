"""Small dense matrix algebra with explicit numerics on numpy alone.

Everything downstream (plant discretization, state prediction, the delay
regulator) reduces to a handful of primitives on small real matrices:

- ``mat_exp``     matrix exponential e^{A t} by scaling-and-squaring on a
                  truncated power series, with a diagonal fast path,
- ``zoh_discretize``  exact zero-order-hold discretization via the augmented
                  block exponential (valid for singular A),
- ``is_hurwitz``  strict stability test through characteristic-polynomial
                  coefficients and a Routh array (no iterative eigensolver),
- ``solve``       ``numpy.linalg.solve`` behind an explicit singular-value
                  test.

Matrices and vectors are plain ``numpy`` float arrays; the helpers here only
validate shape and finiteness. Dimensions up to ``MAX_DIM`` are supported.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIM = 8

# Taylor series order for the scaled exponential; with the scaled norm kept
# below 0.5 the truncation error is ~0.5^14/14! << 1e-15.
_SERIES_ORDER = 13
_SCALE_TARGET = 0.5


class SingularMatrixError(ValueError):
    """Linear system is singular to working precision."""


def as_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Validate and copy a square matrix with 1 <= n <= MAX_DIM."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise ValueError(f"{name} dimension {a.shape[0]} outside 1..{MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def as_vector(entries, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and copy a vector, optionally of prescribed length."""
    v = np.array(entries, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def is_diagonal(a: np.ndarray) -> bool:
    """True iff every off-diagonal entry of ``a`` is exactly zero."""
    return np.count_nonzero(a - np.diag(np.diagonal(a))) == 0


def mat_exp(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{A t}.

    ``t`` may be negative. Diagonal matrices short-circuit to scalar
    exponentials; otherwise the argument is scaled so its inf-norm is at most
    0.5, expanded in a truncated power series and squared back up.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"mat_exp needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)) or not math.isfinite(t):
        raise ValueError("mat_exp arguments must be finite")
    M = A * t
    if is_diagonal(M):
        return np.diag(np.exp(np.diagonal(M)))

    norm = np.linalg.norm(M, np.inf)
    squarings = 0
    if norm > _SCALE_TARGET:
        squarings = int(math.ceil(math.log2(norm / _SCALE_TARGET)))
        M = M / (2.0**squarings)

    n = M.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ M / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def zoh_discretize(A, B, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization over one step of length ``dt``.

    Returns ``(Ad, Bd)`` with ``Ad = e^{A dt}`` and
    ``Bd = (integral_0^dt e^{A s} ds) B``, computed through the exponential of
    the augmented block matrix ``[[A, B], [0, 0]]`` so that singular ``A`` is
    handled without special cases.
    """
    A = as_matrix(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"B row count {B.shape[0]} does not match A dimension {A.shape[0]}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B has non-finite entries")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    E = mat_exp(aug, dt)
    return E[:n, :n].copy(), E[:n, n:].copy()


def char_poly(M: np.ndarray) -> np.ndarray:
    """Monic characteristic-polynomial coefficients by Faddeev-LeVerrier.

    Returns ``c`` of length n+1 with ``det(lambda I - M) = sum c[k] lambda^{n-k}``
    and ``c[0] = 1``. Deterministic finite recursion; no eigensolver.
    """
    n = M.shape[0]
    c = np.empty(n + 1)
    c[0] = 1.0
    I = np.eye(n)
    Nk = np.zeros((n, n))
    for k in range(1, n + 1):
        Nk = M @ (Nk + c[k - 1] * I)
        c[k] = -np.trace(Nk) / k
    return c


def _routh_stable(coeffs: np.ndarray) -> bool:
    """Strict Routh-Hurwitz test on monic polynomial coefficients.

    Zero or sign-changed first-column entries (including degenerate zero
    rows, which signal imaginary-axis roots) count as not stable.
    """
    c = list(coeffs)
    n = len(c) - 1
    if n == 0:
        return True
    # Necessary condition for a monic Hurwitz polynomial.
    if any(ck <= 0.0 for ck in c[1:]):
        return False
    rows = [c[0::2], c[1::2]]
    width = len(rows[0])
    rows[1] = rows[1] + [0.0] * (width - len(rows[1]))
    for _ in range(n - 1):
        top, bot = rows[-2], rows[-1]
        if bot[0] == 0.0:
            return False
        new = [0.0] * width
        for i in range(width - 1):
            new[i] = (bot[0] * top[i + 1] - top[0] * bot[i + 1]) / bot[0]
        rows.append(new)
    return all(r[0] > 0.0 for r in rows)


def is_hurwitz(M) -> bool:
    """True iff every eigenvalue of ``M`` has strictly negative real part.

    Uses trace/determinant signs for n <= 2 and a Routh array on the
    characteristic polynomial otherwise.
    """
    M = as_matrix(M, "is_hurwitz argument")
    n = M.shape[0]
    if n == 1:
        return M[0, 0] < 0.0
    if n == 2:
        return np.trace(M) < 0.0 and float(np.linalg.det(M)) > 0.0
    return _routh_stable(char_poly(M))


def solve(M, b) -> np.ndarray:
    """Solve ``M x = b`` for a vector or matrix right-hand side ``b``.

    Raises :class:`SingularMatrixError` when the smallest singular value of
    ``M`` falls below ``1e-12`` times the largest (on a diagonal matrix, the
    same rule as a pivot below ``1e-12 * max|M|``).
    """
    M = as_matrix(M, "solve matrix")
    b = np.array(b, dtype=float, ndmin=1)
    if b.ndim > 2 or b.shape[0] != M.shape[0] or not np.all(np.isfinite(b)):
        raise ValueError(f"right-hand side must be finite with {M.shape[0]} rows, got shape {b.shape}")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < 1e-12 * (sv[0] if sv[0] > 0 else 1.0):
        raise SingularMatrixError("matrix singular to working precision")
    return np.linalg.solve(M, b)
