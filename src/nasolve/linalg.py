"""Small dense/structured linear-algebra kernel used by the solvers.

Two Jacobian representations are supported: dense arrays and an
upper-triangular-plus-corner form (diagonal, superdiagonal, and a single
overriding (n,n) entry).  Solvers only rely on the common ``matvec``/``solve``
interface.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

EPS = float(np.finfo(float).eps)


class SingularMatrix(Exception):
    """A pivot collapsed below machine precision; the matrix is numerically singular."""


class DegenerateSteps(Exception):
    """Two consecutive update steps coincide; the extrapolation coefficient is undefined."""


def _max_abs(a: np.ndarray) -> float:
    """max|a| with no |a| temporary: NaN when an entry is NaN, 0.0 when empty."""
    return float(max(a.max(), -a.min())) if a.size else 0.0


class JacobianMatrix:
    """Common interface for the Jacobian representations."""

    n: int

    def matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve(self, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def max_abs(self) -> float:
        """Largest entry magnitude, used as the scale for pivot thresholds."""
        raise NotImplementedError


class DenseJacobian(JacobianMatrix):
    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"dense Jacobian must be square, got shape {a.shape}")
        self.a = a
        self.n = a.shape[0]

    def matvec(self, v):
        return self.a @ v

    def solve(self, b):
        return lu_solve(self.a, b)

    def to_dense(self):
        return self.a

    def max_abs(self):
        return _max_abs(self.a)


class UpperTriangularPlusJacobian(JacobianMatrix):
    """Upper bidiagonal matrix whose (n,n) entry is overridden by ``corner``.

    Entries: M[i,i] = diag[i] for i < n-1, M[i,i+1] = superdiag[i], and
    M[n-1,n-1] = corner.  This is the structure of the chained-polynomial
    benchmark Jacobian and admits an O(n) back substitution.
    """

    def __init__(self, diag: np.ndarray, superdiag: np.ndarray, corner: float):
        diag = np.asarray(diag, dtype=float)
        superdiag = np.asarray(superdiag, dtype=float)
        if diag.ndim != 1 or superdiag.ndim != 1 or len(superdiag) != len(diag) - 1:
            raise ValueError("need len(superdiag) == len(diag) - 1")
        self.diag = diag
        self.superdiag = superdiag
        self.corner = float(corner)
        self.n = len(diag)

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[-1] = self.corner * v[-1]
        if self.n > 1:
            out[:-1] += self.superdiag * v[1:]
        return out

    def solve(self, b):
        return structured_solve(self, b)

    def to_dense(self):
        m = np.diag(self.diag)
        if self.n > 1:
            m += np.diag(self.superdiag, 1)
        m[-1, -1] = self.corner
        return m

    def max_abs(self):
        cands = [abs(self.corner)]
        if self.n > 1:
            cands.append(float(np.abs(self.diag[:-1]).max()))
            cands.append(float(np.abs(self.superdiag).max()))
        return max(cands)


def lu_solve(a, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls to or below
    eps * max|A|, which is how the solvers detect that an iterate has left
    the region where the Jacobian is invertible.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with warnings.catch_warnings():
        # the pivot check below supersedes LAPACK's exact-zero warning
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.size:
        threshold = EPS * _max_abs(a)  # a NaN entry gives NaN, so no raise
        if pivots.min() <= threshold:
            raise SingularMatrix(f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def structured_solve(a: UpperTriangularPlusJacobian, b: np.ndarray) -> np.ndarray:
    """Back substitution for the upper-triangular-plus-corner form; cost O(n).

    One LAPACK banded triangular solve (``dtbtrs``) on the 2 x n band holding
    the superdiagonal above the diagonal, whose last entry is the corner.

    Pivot collapse is judged row-relatively: no elimination takes place here,
    so a tiny but exactly representable pivot in a row it alone occupies is
    still a well-conditioned division (the global-matrix-scale test used for
    dense LU would falsely reject it).  An exactly zero pivot always raises.
    The pivots are checked before the solve; back substitution meets the
    highest row first, so that is the row the error names.  A NaN pivot passes
    the test and propagates into the solution.
    """
    b = np.asarray(b, dtype=float)
    if a.corner == 0.0:
        raise SingularMatrix("corner pivot is exactly zero")
    d, s = a.diag[:-1], a.superdiag
    bad = np.flatnonzero(np.abs(d) <= EPS * np.abs(s))
    if bad.size:
        i = int(bad[-1])
        raise SingularMatrix(
            f"pivot {d[i]:.3e} at row {i} negligible against row entry {s[i]:.3e}"
        )
    ab = np.empty((2, a.n), order="F")  # ab[0, 0] lies outside the matrix, never read
    ab[0, 1:] = s
    ab[1, :-1] = d
    ab[1, -1] = a.corner
    x, info = scipy.linalg.lapack.dtbtrs(ab, b, uplo="U", trans="N", diag="N")
    if info > 0:
        # only reachable when a NaN row entry hid an exactly zero pivot
        raise SingularMatrix(f"pivot at row {info - 1} is exactly zero")
    if info < 0:
        raise ValueError(f"dtbtrs rejected argument {-info}")
    return x


def lstsq_gamma(w_next: np.ndarray, w_prev: np.ndarray) -> float:
    """Extrapolation coefficient minimizing || w_next - g*(w_next - w_prev) || over g.

    Closed form: g = (w_next - w_prev)^T w_next / ||w_next - w_prev||^2.
    Raises DegenerateSteps when the two steps coincide to machine precision,
    in which case the caller should fall back to a plain Newton step.
    """
    w_next = np.asarray(w_next, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    d = w_next - w_prev
    dn = np.linalg.norm(d)
    if dn <= EPS * (np.linalg.norm(w_next) + np.linalg.norm(w_prev)):
        raise DegenerateSteps(f"||w_next - w_prev|| = {dn:.3e} is negligible")
    return float(d @ w_next) / float(dn * dn)
