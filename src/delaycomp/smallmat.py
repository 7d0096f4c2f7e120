"""Small dense matrix algebra with explicit numerics on numpy alone.

Everything downstream (plant discretization, state prediction, the delay
regulator) reduces to a handful of primitives on small real matrices:

- ``mat_exp``     matrix exponential e^{A t} by scaling-and-squaring on a
                  truncated power series, with a diagonal fast path,
- ``zoh_discretize``  exact zero-order-hold discretization, checked, over
                  ``zoh_unchecked``: closed form for a diagonal A, else augmented,
- ``is_hurwitz``  strict stability test: the diagonal's signs if triangular,
                  else the real parts of numpy's eigenvalues,
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
# at most 0.5 the truncation error is ~0.5^14/14! << 1e-15.
_SERIES_ORDER = 13


class SingularMatrixError(ValueError):
    """Linear system is singular to working precision."""


def as_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Validate and copy a square matrix with 1 <= n <= MAX_DIM."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise ValueError(f"{name} dimension {a.shape[0]} outside 1..{MAX_DIM}")
    if not np.isfinite(a).all():
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
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def is_diagonal(a: np.ndarray) -> bool:
    """True iff ``a`` is finite and exactly zero off its diagonal."""
    return np.count_nonzero(a) == np.count_nonzero(a.diagonal()) and np.count_nonzero(np.isfinite(a)) == a.size


def mat_exp(A, t=1.0) -> np.ndarray:
    """Matrix exponential e^{A t}.

    ``t`` may be negative, and may be a 1-D array of times: the result is
    then the stack of e^{A t_k}, each computed from its own t_k in one
    batched pass. Diagonal matrices short-circuit to scalar exponentials;
    otherwise each argument is scaled so its inf-norm is at most 0.5,
    expanded in a truncated power series and squared back up.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"mat_exp needs a square matrix, got shape {A.shape}")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"mat_exp times must be a scalar or 1-D, got shape {t.shape}")
    if not (np.isfinite(A).all() and np.isfinite(t).all()):
        raise ValueError("mat_exp arguments must be finite")
    n = A.shape[0]
    if is_diagonal(A):
        out = np.zeros(t.shape + (n, n))
        out.reshape(t.shape + (n * n,))[..., :: n + 1] = np.exp(t[..., None] * np.diagonal(A))
        return out

    # A t = M 2^shift with M = (A 2^-ea) (t 2^-et), so neither A t nor a
    # power 2^s is formed; s is the least count with ||A t||_inf 2^-s <= 0.5
    ea = np.frexp(np.abs(A).max())[1]
    mt, et = np.frexp(t)
    M, shift = np.ldexp(A, -ea) * mt[..., None, None], ea + et
    f, e = np.frexp(np.abs(M).sum(axis=-1).max(axis=-1))  # ||A t|| = f 2^(e + shift)
    squarings = np.where(f > 0, np.maximum(e + shift + (f > 0.5), 0), 0)
    M = np.ldexp(M, (shift - squarings)[..., None, None])

    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ M / k
        result = result + term
    for i in range(int(np.max(squarings, initial=0))):
        result = np.where(squarings[..., None, None] > i, result @ result, result)
    return result


def zoh_discretize(A, B, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization over one step of length ``dt``.

    Returns ``(Ad, Bd)``, ``Ad = e^{A dt}`` and ``Bd = (integral_0^dt e^{A s} ds) B``,
    from :func:`zoh_unchecked` once A, B and dt pass their checks.
    """
    A = as_matrix(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"B row count {B.shape[0]} does not match A dimension {A.shape[0]}")
    if not np.all(np.isfinite(B)):
        raise ValueError("B has non-finite entries")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    return zoh_unchecked(A, B, dt)


def zoh_unchecked(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`zoh_discretize` without its checks: A finite, square and float, B finite,
    2-D, float and with A's rows, dt finite and > 0. A diagonal A = diag(a) in closed form,
    ``diag(e^{a dt})`` and ``diag(expm1(a dt) / a) B`` (dt where a = 0); any other A from the
    exponential of ``[[A, B], [0, 0]]``, which needs no special case for a singular A. Entries
    past the float range come out non-finite, and nothing raises."""
    n, m = B.shape
    if is_diagonal(A):
        a = A.diagonal()
        x, phi = a * dt, np.full(n, float(dt))
        return np.diag(np.exp(x)), np.divide(np.expm1(x), a, out=phi, where=a != 0)[:, None] * B
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    E = mat_exp(aug, dt)
    return E[:n, :n].copy(), E[:n, n:].copy()


def is_hurwitz(M) -> bool:
    """True iff every eigenvalue of ``M`` has strictly negative real part.

    Reads the eigenvalues off the diagonal of a triangular M (n = 1 too);
    otherwise takes them from numpy's eigensolver.
    """
    M = as_matrix(M, "is_hurwitz argument")
    if not (np.tril(M, -1).any() and np.triu(M, 1).any()):
        return bool(np.all(np.diagonal(M) < 0.0))
    return bool(np.linalg.eigvals(M).real.max() < 0.0)


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
