"""Small dense/structured linear-algebra kernel used by the solvers.

Two Jacobian representations are supported: dense arrays and an upper
bidiagonal band held as two arrays (diagonal and superdiagonal).  Each class
is the only home of its format, its solve included; solvers only rely on the
common ``matvec``/``solve`` interface.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack

EPS = float(np.finfo(float).eps)


class SingularMatrix(Exception):
    """A pivot collapsed below machine precision; the matrix is numerically singular."""


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
        """Solve A x = b by LU with partial pivoting (LAPACK ``dgetrf``/``dgetrs``).

        Raises SingularMatrix when a pivot magnitude falls to or below
        eps * max|A|, which is how the solvers detect that an iterate has left
        the region where the Jacobian is invertible.  It also catches the
        exactly zero pivot ``dgetrf`` reports (info > 0) unless a NaN hides it.
        """
        b = np.asarray(b, dtype=float)
        if self.n == 0:  # dgetrf would reject lda = 0, its only info < 0 here
            return np.empty_like(b)
        lu, piv, _ = scipy.linalg.lapack.dgetrf(self.a)
        pivots = np.abs(np.diag(lu))
        threshold = EPS * _max_abs(self.a)  # a NaN entry gives NaN, so no raise
        if pivots.min() <= threshold:
            raise SingularMatrix(f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
        x, info = scipy.linalg.lapack.dgetrs(lu, piv, b)
        if info < 0:
            raise ValueError(f"dgetrs rejected argument {-info}")
        return x

    def to_dense(self):
        return self.a

    def max_abs(self):
        return _max_abs(self.a)


class UpperBidiagonalJacobian(JacobianMatrix):
    """Upper bidiagonal M[i,i] = diag[i], M[i,i+1] = superdiag[i]: multipoly's Jacobian."""

    def __init__(self, diag: np.ndarray, superdiag: np.ndarray):
        diag = np.asarray(diag, dtype=float)
        superdiag = np.asarray(superdiag, dtype=float)
        if diag.ndim != 1 or superdiag.ndim != 1 or len(superdiag) != len(diag) - 1:
            raise ValueError("need len(superdiag) == len(diag) - 1")
        self.diag = diag
        self.superdiag = superdiag
        self.n = len(diag)

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[:-1] += self.superdiag * v[1:]
        return out

    def solve(self, b):
        """Back substitution in O(n): one LAPACK banded triangular solve (``dtbtrs``).

        Pivot collapse is judged row-relatively: no elimination takes place here,
        so a tiny but exactly representable pivot in a row it alone occupies is
        still a well-conditioned division (the global-matrix-scale test used for
        dense LU would falsely reject it).  An exactly zero pivot always raises.
        The pivots are checked before the solve; back substitution meets the
        highest row first, so that is the row the error names.  A NaN pivot passes
        the test and propagates into the solution.
        """
        b = np.asarray(b, dtype=float)
        if self.diag[-1] == 0.0:
            raise SingularMatrix("last pivot is exactly zero")
        d, s = self.diag[:-1], self.superdiag
        bad = np.flatnonzero(np.abs(d) <= EPS * np.abs(s))
        if bad.size:
            i = int(bad[-1])
            raise SingularMatrix(
                f"pivot {d[i]:.3e} at row {i} negligible against row entry {s[i]:.3e}"
            )
        ab = np.empty((2, self.n), order="F")  # ab[0, 0] lies outside the matrix, never read
        ab[0, 1:] = s
        ab[1] = self.diag
        x, info = scipy.linalg.lapack.dtbtrs(ab, b, uplo="U", trans="N", diag="N")
        if info > 0:
            # only reachable when a NaN row entry hid an exactly zero pivot
            raise SingularMatrix(f"pivot at row {info - 1} is exactly zero")
        if info < 0:
            raise ValueError(f"dtbtrs rejected argument {-info}")
        return x

    def to_dense(self):
        m = np.diag(self.diag)
        m += np.diag(self.superdiag, 1)
        return m

    def max_abs(self):
        return float(np.maximum(_max_abs(self.diag), _max_abs(self.superdiag)))


def lstsq_gamma(w_next: np.ndarray, w_prev: np.ndarray) -> float | None:
    """Extrapolation coefficient minimizing || w_next - g*(w_next - w_prev) || over g.

    Closed form: g = (w_next - w_prev)^T w_next / ||w_next - w_prev||^2.
    Returns None when the two steps coincide to machine precision, so that g
    is undefined; the caller then takes a plain Newton step.
    """
    w_next = np.asarray(w_next, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    d = w_next - w_prev
    dn = np.linalg.norm(d)
    if dn <= EPS * (np.linalg.norm(w_next) + np.linalg.norm(w_prev)):
        return None
    return float(d @ w_next) / float(dn * dn)
