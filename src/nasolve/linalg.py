"""Small dense/structured linear-algebra kernel used by the solvers.

Three Jacobian representations are supported: dense arrays, an upper
bidiagonal matrix held as one 2 x n LAPACK band (the superdiagonal above
the diagonal), and an identity minus a weighted rank-r product,
I - diag(w) E M E^T, held as an n-vector w, one n x r factor E and an
r x r core M.  Each class is the only home of its format, its solve
included.  The interface is ``matvec``, ``solve`` and ``to_dense``; the
solvers reach ``to_dense`` only through ``damped_normal_solve``.  ``solve``
returns a fresh array that the caller owns, which the Newton step negates
in place, and leaves b untouched.

Every BLAS-3 and LAPACK call of nasolve is made here, the ground truth's
null direction (``null_direction``) included.  numpy's ``@`` and ``.dot``
still make n-length BLAS-1/2 calls (``ddot``, ``dgemv``) on numpy's own
OpenBLAS: ``norm2`` and the gamma and theta sums here, the classes'
``matvec``, heq's kernel sum in ``problems``, B^T e in
``core.iterate_error``, and the merits and slopes in ``solvers``; a
threaded ``ddot`` sums in an order that depends on the thread count.  Four
rules hold here.  One pool: n-scale BLAS-3 and LAPACK calls go through
``blas`` and ``lapack`` below, never numpy's ``@``; numpy bundles its own
OpenBLAS with its own thread pool, and on a 2-core machine a scipy call
that follows a numpy BLAS-3 call ran up to twice as slow (the Woodbury
capacitance, and the LM Cholesky factor after a numpy J^T J).  Fortran
order, which f2py passes without a copy: ``to_dense`` returns a fresh J in
it that the caller owns (``DenseJacobian`` a copy of the array it holds).
A symmetric matrix holds its upper triangle, which ``dsyrk`` fills and
``dposv`` and ``dsyevr`` read.  Every LAPACK ``info`` is read: < 0, a
rejected argument, raises ValueError; info > 0 (``dgetrf``'s exactly zero
pivot, a minor not positive definite) is answered on the spot.  The banded
solve is BLAS ``dtbsv``, which reports nothing: its class tests every pivot
in one blocked pass before it, the exactly zero pivot that LAPACK's
``dtbtrs`` reports by info > 0 included, and so skips the second pass over
the diagonal that ``dtbtrs`` made.

``blas`` and ``lapack`` are scipy's f2py wrappers ``scipy.linalg._fblas`` and
``_flapack``, loaded without the ``scipy.linalg`` package ``__init__``, which
took 342 of the 493 ms of ``import nasolve`` (now 171 ms; medians of 5
``python -X importtime`` runs on a 2-core Xeon).  A later ``import
scipy.linalg`` reuses them: ``scipy.linalg.lapack.dposv is lapack.dposv``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy  # runs scipy's _distributor_init (the DLL path of Windows wheels)


def _scipy_linalg_extension(name: str):
    """The extension module scipy.linalg.<name>, without scipy/linalg/__init__.py."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec(full, [where])
    if spec is None:
        raise ImportError(f"no extension module {name} in {where}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


blas = _scipy_linalg_extension("_fblas")
lapack = _scipy_linalg_extension("_flapack")

EPS = float(np.finfo(float).eps)
# rows per block of an O(n) pass over a 2 x n band (the pivot test, multipoly's
# Jacobian): the pass's buffers, a few 16384-entry arrays, stay in L2; on a
# 2-core Xeon blocks of 8192 and 32768 rows ran slower
BAND_BLOCK = 16384
# column quantum of the J^T J that damped_normal_solve forms over J: a
# column block's temporaries are at most 2 n GRAM_BLOCK entries, against J's
# n^2.  Blocks start at multiples of it and, but for a lone block, are at
# least this wide; so aligned, threaded dgemm and dsyrk sum each entry in the
# same order, and the result has the bits of one dsyrk of J (scipy's
# OpenBLAS 0.3.30 on 2 to 4 threads)
GRAM_BLOCK = 256


class SingularMatrix(Exception):
    """A pivot collapsed below machine precision; the matrix is numerically singular."""


class ZeroStep(Exception):
    """The Newton update vanished; the gain is undefined (already converged)."""


def norm2(v: np.ndarray) -> float:
    """||v||_2 of a contiguous 1-D float array, as a Python float.

    The arithmetic of ``np.linalg.norm(v)``, sqrt(v . v) by one BLAS dot,
    without its argument checks: the same bits, an overflowing dot giving inf
    and a NaN entry NaN.  On a strided view BLAS sums in another order, so
    the last bit can differ; nasolve passes arrays fresh from arithmetic or
    a residual.  On the registry's n <= 8 systems the checks cost more than
    the dot, and a solve takes several norms per step.
    """
    return math.sqrt(v.dot(v))


class JacobianMatrix:
    """Common interface for the Jacobian representations: J v, J^{-1} b and J itself."""

    n: int

    def matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^{-1} b for an n-vector b, as a fresh array that the caller owns
        and may overwrite; b is left untouched."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """J as a fresh Fortran-ordered n x n array that the caller owns and
        may overwrite."""
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
        the region where the Jacobian is invertible, and when ``dgetrf``
        reports an exactly zero pivot (info > 0) that a NaN entry kept from
        that test.  A NaN with no zero pivot propagates into x.
        """
        b = np.asarray(b, dtype=float)
        if self.n == 0:  # dgetrf would reject lda = 0, its only info < 0 here
            return np.empty_like(b)
        lu, piv, info = lapack.dgetrf(self.a)
        pivot = np.abs(lu.diagonal()).min()
        # eps * max|A| with no |A| temporary; a NaN entry gives NaN, so no raise
        threshold = EPS * float(max(self.a.max(), -self.a.min()))
        if pivot <= threshold:
            raise SingularMatrix(f"pivot {pivot:.3e} below threshold {threshold:.3e}")
        if info > 0:  # an exactly zero pivot, which a NaN kept from the test above
            raise SingularMatrix(f"pivot at row {info - 1} is exactly zero")
        x, info = lapack.dgetrs(lu, piv, b)
        if info < 0:
            raise ValueError(f"dgetrs rejected argument {-info}")
        return x

    def to_dense(self):
        return np.array(self.a, order="F")


class UpperBidiagonalJacobian(JacobianMatrix):
    """Upper bidiagonal M[i,i] = diag[i], M[i,i+1] = superdiag[i]: multipoly's Jacobian.

    Held as one Fortran-ordered 2 x n array in LAPACK's upper band layout,
    ``band[1, j] = M[j, j]`` and ``band[0, j] = M[j-1, j]``; ``band[0, 0]``
    lies outside the matrix and is never read.  The caller writes the band
    once and ``dtbsv`` takes it without a copy; ``diag`` and ``superdiag``
    are views of it.
    """

    def __init__(self, band: np.ndarray):
        band = np.asarray(band, dtype=float, order="F")
        if band.ndim != 2 or band.shape[0] != 2 or band.shape[1] < 1:
            raise ValueError(f"need a (2, n) band with n >= 1, got shape {band.shape}")
        self.band = band
        self.diag = band[1]
        self.superdiag = band[0, 1:]
        self.n = band.shape[1]

    def matvec(self, v):
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[:-1] += self.superdiag * v[1:]
        return out

    def _pivot_fault(self) -> str | None:
        """Why back substitution must not run on this band, or None.

        The last pivot faults when exactly zero.  Above it the test is row-
        relative: the highest row i < n-1 whose |diag[i]| <= EPS |superdiag[i]|
        is named, the row back substitution meets first.  A zero pivot that a
        NaN row entry hides from that test (0 <= NaN is false) is named next,
        the lowest first, as LAPACK's ``dtbtrs`` names it.  A NaN pivot
        passes.

        Taken over blocks of BAND_BLOCK rows, from the last block down, in
        buffers that stay in cache, so no n-length temporary is formed: at
        n = 10^7 the test over whole rows took 87 ms, the blocked one 25 ms
        (2-core Xeon).  A block whose every row has |diag| > EPS |superdiag|
        is done with one comparison; only one that fails it, with a
        negligible pivot or a NaN, is searched for the row.
        """
        if self.diag[-1] == 0.0:
            return "last pivot is exactly zero"
        rows = max(min(BAND_BLOCK, self.n - 1), 1)
        d_abs, s_abs, ok = np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool)
        hidden_zero = -1
        for hi in range(self.n - 1, 0, -rows):
            lo = max(hi - rows, 0)
            m = hi - lo
            d = np.abs(self.band[1, lo:hi], out=d_abs[:m])
            s = np.abs(self.band[0, lo + 1:hi + 1], out=s_abs[:m])
            s *= EPS
            if np.greater(d, s, out=ok[:m]).all():
                continue
            negligible = np.flatnonzero(d <= s)
            if negligible.size:
                i = lo + int(negligible[-1])
                return (f"pivot {self.diag[i]:.3e} at row {i} negligible against row entry "
                        f"{self.superdiag[i]:.3e}")
            zeros = np.flatnonzero(d == 0.0)
            if zeros.size:
                hidden_zero = lo + int(zeros[0])
        return None if hidden_zero < 0 else f"pivot at row {hidden_zero} is exactly zero"

    def solve(self, b):
        """Back substitution in O(n): one BLAS banded triangular solve
        (``dtbsv``), in place on the copy of b that it returns.

        Pivot collapse is judged row-relatively (``_pivot_fault``): no
        elimination takes place here, so a tiny but exactly representable
        pivot in a row it alone occupies is still a well-conditioned division
        (the global-matrix-scale test used for dense LU would falsely reject
        it).  An exactly zero pivot always raises.  The pivots are checked
        before the solve, which ``dtbsv`` does not do; a NaN pivot passes the
        test and propagates into the solution.  ``dtbsv`` is what LAPACK's
        ``dtbtrs`` calls after its zero-pivot check, so the solution has
        ``dtbtrs``'s bits.
        """
        fault = self._pivot_fault()
        if fault is not None:
            raise SingularMatrix(fault)
        return blas.dtbsv(1, self.band, np.array(b, dtype=float), overwrite_x=1)

    def to_dense(self):
        m = np.diag(self.diag)  # lower bidiagonal J^T, so m.T is J in Fortran order
        m.flat[self.n :: self.n + 1] += self.superdiag
        return m.T


class IdentityMinusLowRankJacobian(JacobianMatrix):
    """J = I - diag(w) E M E^T: the H-equation's Jacobian.

    Held as the weights w >= 0 (an n-vector), one n x r factor E and an
    r x r core M.  ``matvec`` costs O(n r), ``solve`` O(n r^2) plus one r x r
    LU, and no n x n array is formed except by ``to_dense``.
    """

    def __init__(self, w: np.ndarray, e: np.ndarray, m: np.ndarray):
        w, e, m = (np.asarray(a, dtype=float) for a in (w, e, m))
        if e.ndim != 2 or w.shape != e.shape[:1] or m.shape != (e.shape[1],) * 2:
            raise ValueError(f"need w (n,), E (n, r) and M (r, r), got {w.shape}, {e.shape}, {m.shape}")
        if np.any(w < 0.0):  # solve's Gram matrix takes sqrt(w); a NaN weight passes
            raise ValueError("need weights w >= 0")
        self.w, self.e, self.m = w, e, m
        self.n = e.shape[0]

    def matvec(self, v):
        return v - self.w * (self.e @ (self.m @ (self.e.T @ v)))

    def solve(self, b):
        """Woodbury: x = b + W E C^{-1} M E^T b with the capacitance
        C = I_r - M G and the Gram matrix G = E^T W E, W = diag(w).

        C is solved by ``DenseJacobian.solve``, whose pivot test raises
        SingularMatrix when C, and so J (det J = det C), is numerically singular.
        """
        b = np.asarray(b, dtype=float)
        # G and C by scipy's dsyrk and dgemm, in the OpenBLAS that then factors
        # C (the one-pool rule above).  G accumulates one dsyrk per block of
        # 4096 rows of sqrt(w) o E, with beta = 1, so no n x r array is formed;
        # dsyrk takes the transposed block, a Fortran-ordered view, without a
        # copy, and fills the upper triangle of G only.
        sqrt_w, rows = np.sqrt(self.w)[:, None], 4096
        gram = np.zeros(self.m.shape, order="F")
        for i in range(0, self.n, rows):
            blas.dsyrk(1.0, (self.e[i:i + rows] * sqrt_w[i:i + rows]).T,
                       beta=1.0, c=gram, overwrite_c=1)
        gram += np.triu(gram, 1).T
        cap = blas.dgemm(-1.0, self.m, gram, beta=1.0,
                         c=np.eye(self.m.shape[0], order="F"), overwrite_c=1)
        return b + self.w * (self.e @ DenseJacobian(cap).solve(self.m @ (self.e.T @ b)))

    def to_dense(self):
        # -W E M E^T in Fortran order, which dsyrk and dposv take without a
        # copy: W E M is the transpose of scipy's M^T E^T, which reads the
        # Fortran-ordered view E^T without a copy
        wem = blas.dgemm(1.0, self.m, self.e.T, trans_a=1).T * self.w[:, None]
        mat = blas.dgemm(-1.0, wem.T, self.e.T, trans_a=1)
        mat.flat[:: self.n + 1] += 1.0
        return mat


def _gram_in_place(a: np.ndarray) -> None:
    """Overwrite the upper triangle of the Fortran-ordered n x n array a
    with that of a^T a; below the diagonal a keeps stale entries.

    Column block [lo, hi) of the upper triangle, (a^T a)[:hi, lo:hi], lies
    in the columns of a it is formed from, so the blocks go from the last to
    the first: the diagonal block by ``dsyrk`` and the block above it by one
    ``dgemm`` with the columns to its left, both formed before either is
    written, while the columns left of lo still hold a.  The two products,
    hi x (hi - lo) entries, are the only temporaries.  Each lo is the
    smallest multiple of GRAM_BLOCK that keeps them within 2 n GRAM_BLOCK,
    so the blocks widen as hi falls: n <= 2 GRAM_BLOCK takes one ``dsyrk``
    of a, n = 2000 four blocks.  Each BLAS call costs a thread handoff, which
    a busy core slows: at n = 2000 on a 2-core Xeon with one core taken,
    blocks of 256 columns took 1.7-1.9 times as long as one dsyrk of a,
    these blocks 1.2-1.4 times.
    """
    n = hi = a.shape[1]
    while hi:
        lo = max(math.ceil((hi - 2 * n * GRAM_BLOCK / hi) / GRAM_BLOCK), 0) * GRAM_BLOCK
        diag = blas.dsyrk(1.0, a[:, lo:hi], trans=1)
        if lo:
            a[:lo, lo:hi] = blas.dgemm(1.0, a[:, :lo], a[:, lo:hi], trans_a=1)
        a[lo:hi, lo:hi] = diag
        hi = lo


def damped_normal_solve(jac: JacobianMatrix, f: np.ndarray, mus) -> tuple[np.ndarray, np.ndarray | None]:
    """(J^T f, d): d solves (J^T J + mu I) d = -J^T f for the first mu in
    ``mus`` whose ``dposv`` succeeds, and is None if none does.

    J^T f is one ``dgemv`` on J = ``jac.to_dense()``.  Each rung forms J^T J
    over J by ``_gram_in_place``, adds mu and ``dposv`` factors it in place,
    so one n x n array is alive.  A rung that fails leaves its factor where
    J was; the next rung drops it and forms J again by ``to_dense``.
    """
    a = jac.to_dense()
    jtf = blas.dgemv(1.0, a, f, trans=1)
    for mu in mus:
        if a is None:
            a = jac.to_dense()
        _gram_in_place(a)
        a.flat[:: jac.n + 1] += mu
        d, info = lapack.dposv(a, -jtf, overwrite_a=1)[1:]
        if info < 0:
            raise ValueError(f"dposv rejected argument {-info}")
        if info == 0:
            return jtf, d
        a = None
    return jtf, None


def null_direction(jac: JacobianMatrix) -> np.ndarray:
    """The unit right singular vector of J for its least singular value, as
    an n x 1 array: the eigenvector of J^T J for its least eigenvalue.

    J^T J is formed over J = ``jac.to_dense()`` by ``_gram_in_place``, the
    one n x n array, and one ``dsyevr`` overwrites it and returns that
    eigenvector alone.  The sign is LAPACK's.
    """
    a = jac.to_dense()
    _gram_in_place(a)
    _, z, _, _, info = lapack.dsyevr(a, range="I", il=1, iu=1, lower=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dsyevr rejected argument {-info}")
    if info > 0:
        raise RuntimeError(f"dsyevr failed with info {info}")
    return z


# gamma and theta read one least-squares problem, min_g ||w_next - g d|| with
# d = w_next - w_prev: gamma is its argmin, theta its relative residual.  A
# caller that holds d and the norms passes them, and neither function forms
# an n-vector but theta's numerator, in d's buffer, which it overwrites;
# else d and the norms are computed here, to the same bits.
def lstsq_gamma(w_next, w_prev, d=None, w_next_norm=None, w_prev_norm=None) -> float | None:
    """Extrapolation coefficient minimizing || w_next - g*(w_next - w_prev) || over g.

    Closed form: g = d^T w_next / ||d||^2 with d = w_next - w_prev.
    Returns None when the two steps coincide to machine precision, so that g
    is undefined; the caller then takes a plain Newton step.  A caller
    passes d with both norms ||w_next||, ||w_prev|| or none of them.
    """
    if d is None:
        w_next = np.asarray(w_next, dtype=float)
        w_prev = np.asarray(w_prev, dtype=float)
        d = w_next - w_prev
        w_next_norm, w_prev_norm = norm2(w_next), norm2(w_prev)
    dn = norm2(d)
    if dn <= EPS * (w_next_norm + w_prev_norm):
        return None
    return float(d @ w_next) / (dn * dn)


def theta_gain(w_next: np.ndarray, w_prev: np.ndarray, gamma_used: float,
               d: np.ndarray | None = None, w_next_norm: float | None = None) -> float:
    """Optimization gain ||w_next - gamma*(w_next - w_prev)|| / ||w_next||."""
    if w_next_norm is None:
        w_next = np.asarray(w_next, dtype=float)
        w_next_norm = norm2(w_next)
    if w_next_norm == 0.0:
        raise ZeroStep("||w_next|| = 0")
    if d is None:
        d = w_next - np.asarray(w_prev)
    d *= gamma_used
    return norm2(np.subtract(w_next, d, out=d)) / w_next_norm
