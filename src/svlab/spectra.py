"""Singular values and right singular vectors with verified residuals.

Two routes produce the factors, and the matrix itself picks one. Each runs
one Householder reduction through numpy's own LAPACK (``svlab._lapack``),
takes all values from it, and then computes only the kept vectors: one
inverse iteration on the reduced matrix, at the value the reduction gave,
and one back-transform each, about 2n^2 flops a vector on top of it.

* ``gram``: G = X^T X is formed once and reduced to tridiagonal form
  (dsytrd, 4n^3/3 flops) in its own lower triangle; dsterf gives all its
  eigenvalues, bit for bit what numpy's ``eigvalsh`` gives, and s_i =
  sqrt(lambda_i) in descending order. Once the kept vectors are
  back-transformed, G is restored from its strict upper triangle, which
  dsytrd never touches, and a copy of its diagonal. ``eigh`` (syevd)
  builds all n vectors for about 9n^3.
* ``gesdd``: for every matrix whose G resolves s_min neither by the rule
  nor by the enclosure (both below), X = QR by
  Householder QR (dgeqrf) in one column-major copy of X, then the n x n
  factor R, which has X's singular values and right vectors (Chan's
  R-SVD), is reduced to bidiagonal form (dgebrd, 8n^3/3 flops) in place,
  in that copy's top block; dbdsqr gives all its singular values, and each
  kept right vector comes from the Golub-Kahan tridiagonal of the
  bidiagonal. Neither Q, the n x n left factor of R, nor the N x n left
  factor of X is built, and no separate R array either.

Each route holds X plus one working copy: G on the gram route (the
reduction and the enclosure's Choleskys below all write in G's own lower
triangle and restore it), the N x n copy of X on the gesdd route, plus O(n)
vectors and LAPACK's blocked workspaces of O((N + n) * nb) doubles. A
matrix that tries the gram route and ends on the gesdd route releases G
before the N x n copy is made, so such a call peaks at max(N n, n^2)
doubles over X. A caller's G (below) is copied once, and the copy is what
the route writes in and returns.

Either route falls back to numpy's public call on its matrix, ``eigh`` of
G or gesdd of R (``np.linalg.svd`` of ``np.linalg.qr(x, mode="r")``, which
holds more copies of X; the route keeps its label). Where the reduction
gave the values and only a vector's routine fails, the reduced matrix
splits into blocks only in part, or the kept vectors fail the check below,
the fallback supplies the vectors alone, checked at the reduction's values,
so no value depends on how many vectors are kept. Where the reduction fails
or numpy's build lacks the routines, it supplies the values too.

One check covers the vectors of every source, kernel or fallback: each
kept u must satisfy ||X^T(X u) - lambda u|| <= RESIDUAL_TOL * s_1^2, with
the residual computed from X and not from G, and together they must be
orthonormal to ORTHO_TOL; a NaN fails. A kernel's vectors that fail it go
to the fallback, and a fallback's vectors that fail it raise SpectralError.

The rule. Forming and diagonalizing G perturbs each eigenvalue by about
eps * lambda_max, so s_min = sqrt(lambda_min) carries a relative error of
about eps * kappa^2 / 2, kappa = s_1 / s_n (the normal equations; Golub &
Van Loan, *Matrix Computations*, section 5.3). The rule says G resolves s_min
when 0 < lambda_min and eps * lambda_max <= GRAM_COND_LIMIT * lambda_min.
That keeps the relative error of s_min near GRAM_COND_LIMIT / 2 at worst,
and its absolute error near sqrt(eps * GRAM_COND_LIMIT) / 2 * s_1, about
7e-13 * s_1. The rule is applied twice: first to diag(G), the squared
column norms, which lie in [lambda_min, lambda_max], so a diagonal that
fails proves the eigenvalues fail without an eigensolve; then to the
eigenvalues themselves. A matrix that passes takes the gram route as above.

The enclosure. A matrix that fails the rule (at its diagonal or at its
eigenvalues) still takes the gram route where one matrix-specific proof
gives lo <= lambda_min(G) <= hi with hi - lo <= GRAM_COND_LIMIT * lo, for G
the exact X^T X. s_min is then reported as sqrt(rho), rho in [lo, hi], so it
keeps the rule's promise of a relative error below GRAM_COND_LIMIT / 2.
Only bottom vector 1 and s_min depend on the proof, and the route does not
depend on how many vectors are kept. Where any step fails, the R route runs
as it would without the attempt. The terms, for an N x n X, eps = 2^-52 and
gamma_k <= k eps (Higham, *Accuracy and Stability of Numerical Algorithms*,
section 3.1):

* Kato-Temple (Kato 1949; Parlett, *The Symmetric Eigenvalue Problem*,
  section 10.5). For any u != 0 with Rayleigh quotient rho* = ||Xu||^2 /
  ||u||^2 < b <= lambda_2(G), lambda_min >= rho* - (||G u - theta u|| /
  ||u||)^2 / (b - rho*) for every theta, and lambda_min <= rho*. The
  right side grows with rho*, so a lower bound on rho* may stand in.
* Rounding of rho and r. u is the kernel's unit bottom vector; y = fl(X u)
  satisfies |y - X u| <= gamma_n |X||u|, so rho = fl(y . y) has sqrt(rho*)
  in sqrt(rho) (1 +- eta), eta = 1.1 (n eps ||X||u|| ||/sqrt(rho) + (N + n
  + 6) eps), with the norm of u and the dot products folded in: rho* lies
  in [rho_lo, rho_hi] = rho (1 -+ eta)^2. r = fl(X^T y - rho u) lies within
  e_r = 1.1 ((N + n) eps || |X|^T (|X||u|) || + eps (||r|| + rho)) of
  G u - rho u, and |X|^T (|X||u|) is summed over blocks of rows, so no
  N x n |X| is made. With b' below, the enclosure is lo = rho_lo -
  ((||r|| + e_r)(1 + eta))^2 / (b' - rho_lo) and hi = rho_hi, given b' > hi.
* The scaled Cholesky (Demmel, LAPACK Working Note 14, 1989; Higham, Thm
  10.5). Let S = diag(scale), scale_i = 1/fl(sqrt(G_ii)), and G_s = S G S,
  whose diagonal is 1 to within 2 percent. For A = G_s - diag(shift) +
  l l^T built in floating point from fl(X^T X), each entry is off by at
  most (gamma_N + 3 eps) sqrt(t_i t_j), t_i = 1.02 + l_i^2 + shift_i
  (Cauchy-Schwarz bounds |(X^T X)_ij| by the column norms), and a dpotrf
  that succeeds is exact for A plus a term below gamma_(n+1) / (1 -
  gamma_(n+1)) sqrt(A_ii A_jj). So A + E is positive definite with |E_ij|
  <= c sqrt(t_i t_j), c = 1.1 (N + n + 6) eps, whence lambda_min(A) > -delta,
  delta = c sum(t), the 2-norm of that rank-one bound. This holds for any
  order of the inner products (not for Strassen-like products).
* Underflow. The bounds above count relative rounding only. A product or
  sum that lands among the subnormals is off by up to eps * tiny / 2
  absolutely (tiny = 2^-1022), so a sum of at most N + n terms by (N + n)
  eps * tiny. Where every G_ii and rho are at least tiny / eps, that is at
  most (N + n) eps^2 times the scale of the term it joins, which the factor
  1.1 in every constant covers; below that, no enclosure is tried.
* The floor (Rump, BIT 46, 2006). One Cholesky of G_s - nu I proves
  lambda_min(G_s) >= nu - delta =: floor > 0. nu = n c / sqrt(GRAM_COND_LIMIT)
  makes the slop delta / floor, by which every later step's rounding turns
  into a relative error of G's eigenvalues (Demmel & Veselic, SIAM J. Matrix
  Anal. Appl. 13, 1992), about sqrt(GRAM_COND_LIMIT). floor is known in
  closed form before the Cholesky proves it, so every check below runs
  before either Cholesky. Where the diagonal has already failed the rule,
  this Cholesky runs before the tridiagonal reduction, so a matrix it
  rejects never reaches dsytrd.
* The gap. With b = hi + (w_2 - hi) / 2, w_2 dsterf's second value, a
  dpotrf of G_s + b (S u)(S u)^T - b S^2 that succeeds gives lambda_min of
  that matrix > -delta >= -(delta / floor) G_s, so G + b' v v^T - b' I is
  positive definite for some v and b' = b (1 - eps) / (1 + delta / floor);
  by rank-one interlacing, lambda_2(G) >= lambda_min(G + b' v v^T) > b'.
  The proof is checked for b' > hi and a predicted width within the limit
  (next bullet) before the kernel's other kept vectors are back-transformed,
  and those before either Cholesky runs, since the Choleskys need G
  restored and the vectors need its reflectors.
* Refinement. Where hi - lo is above the limit, at most two inverse-iteration
  steps with the Cholesky factor of S (G - sigma I) S, sigma = lo (1 - 2 delta
  / floor) just below lambda_min, replace u and recompute every term. Each
  step shrinks the residual by at least q = (hi - sigma) / (b' - sigma);
  where even ||r|| q^2 + e_r cannot meet the limit, no Cholesky runs. Among
  sampled Pareto matrices (aspect 2, n = 400 and 800), 3 of 7 enclosed at
  alpha = 0.5 took one step, and none of 43 at alpha in {0.8, 1.2, 1.5}.

The other values on an enclosed matrix are dsterf's, each off by about eps
* lambda_max, so s_j for j >= 2 carries a relative error near eps *
kappa_j^2 / 2, kappa_j = s_1 / s_j: the rule bounds that by GRAM_COND_LIMIT
/ 2, and the enclosure does not bound it at all. Against gesvd, s_2 and s_3
of enclosed Pareto matrices (aspect 2, n = 400 and 800, 8 trials each) came
within 2.5e-8 at alpha = 0.8 and 1.2e-11 at alpha = 1.2, and within 2.7e-7
(n = 400) and 3.9e-5 (n = 800, on a trial that took a refinement step) at
alpha = 0.5. On the R route they carry about eps * kappa_j.

A caller that already holds X^T X passes it as full_svd's gram, which then
stands in for forming G and for the column-norm pass; a column minor X_J
takes G[J, J], which is exactly X_J^T X_J. ``svlab.certificates`` needs
only a minor's s_min and s_top, so it takes them from ``_minor_extremes``,
which runs the same routes on G[J, J] with no vector kept: it reduces
G[J, J] in place and copies X_J only where the enclosure or the R route
reads it.

Whichever route ran, this module also owns a deterministic sign
convention, near-degeneracy flags, and the operator norm.

Conventions. Singular values are reported in descending order
s_1 >= ... >= s_n for an N x n matrix with N >= n >= 2. "Bottom vector k"
means the right singular vector for the k-th smallest value, so k = 1 is
the minimizer of ||X u|| over unit vectors and s_min = s_n.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .matrixio import _check_matrix

__all__ = [
    "SpectralError",
    "SpectralResult",
    "full_svd",
    "operator_norm",
]

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
DEGENERATE_GAP_TOL = 1e-8
GRAM_COND_LIMIT = 1e-8
_EPS = float(np.finfo(np.float64).eps)


class SpectralError(RuntimeError):
    """Numerical failure; carries the worst observed residual."""

    def __init__(self, message: str, worst_residual: float = math.inf):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass
class SpectralResult:
    """Verified spectral data for one matrix.

    bottom_right_vectors[k-1] is the unit right singular vector for the
    k-th smallest singular value. residuals holds
    ||X^T(X u) - s^2 u||_2 for each stored vector, bottom vectors first
    and the top vector last. degenerate_flags[k-1] marks bottom vector k
    whose singular value sits within DEGENERATE_GAP_TOL * s_1 of a
    spectral neighbor, meaning the individual vector (not the subspace)
    is not numerically well defined. method names the route that produced
    the factors: "gram" (the eigenvalues of X^T X and its kept eigenvectors,
    or its eigh) or "gesdd" (the SVD of X's R factor: its bidiagonal
    reduction, or gesdd itself).
    gram is X^T X on the gram route and None on the gesdd route; a caller
    passes its principal submatrices on as a column minor's gram. It is left
    out of repr and equality.
    """

    singular_values: np.ndarray
    bottom_right_vectors: np.ndarray
    top_right_vector: np.ndarray
    residuals: np.ndarray
    tolerance_used: float
    method: str
    degenerate_flags: list[bool] = field(default_factory=list)
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def s_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def s_top(self) -> float:
        return float(self.singular_values[0])


def _validate_tall(x: np.ndarray) -> np.ndarray:
    x = _check_matrix(x)
    rows, cols = x.shape
    if cols < 2 or rows < cols:
        raise ValueError(f"need rows >= cols >= 2, got shape {x.shape}")
    return x


def _gram_resolves(hi, lo) -> bool:
    """Whether eigenvalues of X^T X spanning [lo, hi] resolve sqrt(lo); NaN never does."""
    return lo > 0 and _EPS * hi <= GRAM_COND_LIMIT * lo


def _verified(x: np.ndarray, rows: np.ndarray, lam: np.ndarray, top2: float):
    """(rows, residuals), residuals[j] = ||X^T(X u) - lam[j] u|| for u = rows[j], from X, not G.

    Raises SpectralError, with the worst residual attached, where one exceeds
    RESIDUAL_TOL * top2 or the rows are not orthonormal to ORTHO_TOL; a NaN fails.
    """
    residuals = np.linalg.norm(x.T @ (x @ rows.T) - rows.T * lam, axis=0)
    worst = float(residuals.max(initial=0.0))
    if not worst <= RESIDUAL_TOL * top2:
        raise SpectralError(
            f"residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * s1^2 = {RESIDUAL_TOL * top2:.3e}",
            worst_residual=worst,
        )
    ortho_err = float(np.abs(rows @ rows.T - np.eye(lam.size)).max(initial=0.0))
    if not ortho_err <= ORTHO_TOL:
        raise SpectralError(f"stored vectors deviate from orthonormality by {ortho_err:.3e}", worst)
    return rows, residuals


def _kept(x: np.ndarray, vectors: Iterable[np.ndarray | None], lam: np.ndarray, top2: float):
    """(rows, residuals) with rows[j] from vectors[j], the eigenvector of X^T X for lam[j],
    Gram-Schmidt'd against the earlier rows only, so the first does not depend on the rest.

    None where a vector is None or the rows fail _verified, so the caller falls back.
    """
    rows = np.empty((lam.size, x.shape[1]))
    for j, y in enumerate(vectors):
        if y is None:
            return None
        y = y - rows[:j].T @ (rows[:j] @ y)
        norm = np.linalg.norm(y)
        if not norm > 0.0:  # an exact tie repeats an earlier vector
            return None
        rows[j] = y / norm
    try:
        return _verified(x, rows, lam, top2)
    except SpectralError:
        return None


_ROWS = 64  # rows of |X| made at a time for the rounding bound of the residual
_NO_UNDERFLOW = float(np.finfo(np.float64).tiny) / _EPS  # G_ii and rho below this get no enclosure


def _rayleigh(x: np.ndarray, u: np.ndarray):
    """(u, rho, r_norm, e_r, eta) for u normalized: rho = fl(||X u||^2), r_norm = ||X^T(X u) - rho u||,
    e_r its rounding bound and eta the relative bound on sqrt(rho); None where rho is below _NO_UNDERFLOW
    or not finite."""
    rows, n = x.shape
    u = u / np.linalg.norm(u)
    y = x @ u
    rho = float(y @ y)
    if not (_NO_UNDERFLOW <= rho < math.inf):
        return None
    r_norm = float(np.linalg.norm(x.T @ y - rho * u))
    au, a2, h = np.abs(u), 0.0, np.zeros(n)
    for i in range(0, rows, _ROWS):
        block = np.abs(x[i:i + _ROWS])
        a = block @ au
        a2 += float(a @ a)
        h += block.T @ a
    eta = 1.1 * (n * _EPS * math.sqrt(a2 / rho) + (rows + n + 6) * _EPS)
    e_r = 1.1 * ((rows + n) * _EPS * float(np.linalg.norm(h)) + _EPS * (r_norm + rho))
    return u, rho, r_norm, e_r, eta


def _floor_terms(g: np.ndarray, rows: int):
    """(scale, nu, floor, c) for g = fl(X^T X) of an X with rows rows: scale the inverse column norms
    from diag(g), c the entrywise rounding constant of every scaled Cholesky, and lambda_min(S G S) >=
    floor > 0 once dpotrf of S g S - nu I succeeds; None where a G_ii is below _NO_UNDERFLOW."""
    n = g.shape[0]
    d = np.diagonal(g)
    if not d.min() >= _NO_UNDERFLOW:
        return None
    c = 1.1 * (rows + n + 6) * _EPS
    nu = n * c / math.sqrt(GRAM_COND_LIMIT)
    floor = nu - c * n * (1.02 + nu)
    return (1.0 / np.sqrt(d), nu, floor, c) if floor > 0.0 else None


def _floor_holds(g: np.ndarray, terms) -> bool:
    """Whether one Cholesky proves the floor of terms, g's _floor_terms (None proves nothing); g must
    be one _lapack.cholesky may write."""
    return terms is not None and _lapack.cholesky(g, terms[0], np.full(g.shape[0], terms[1]))


def _kato_temple(terms, gap: float):
    """(rho_lo, hi, lo) from _rayleigh's terms and a proven gap <= lambda_2; None where gap <= hi."""
    u, rho, r_norm, e_r, eta = terms
    rho_lo, hi = rho * (1.0 - eta) ** 2, rho * (1.0 + eta) ** 2
    if not gap > hi:
        return None
    return rho_lo, hi, rho_lo - ((r_norm + e_r) * (1.0 + eta)) ** 2 / (gap - rho_lo)


def _enclosure_plan(x: np.ndarray, w: np.ndarray, u: np.ndarray | None, floor_terms):
    """Every check of the enclosure that needs no Cholesky, run on the kernel's bottom vector u with
    w the eigenvalues of g = fl(X^T X) and floor_terms its _floor_terms: the gap b' between w_1 and
    w_2, and the prediction that two refinement steps would meet the limit. The plan that
    _enclosure proves, or None where a check fails."""
    if u is None or floor_terms is None:
        return None
    scale, _, floor, c = floor_terms
    terms = _rayleigh(x, u)
    if terms is None:
        return None
    u, rho, r_norm, e_r, eta = terms
    hi = rho * (1.0 + eta) ** 2
    if not w[1] > hi:  # lambda_2 > gap, once proven, holds whatever u becomes
        return None
    b = hi + (w[1] - hi) / 2.0
    lift, shift = math.sqrt(b) * scale * u, b * scale * scale
    slop = c * float(np.sum(1.02 + lift * lift + shift)) / floor
    gap = b * (1.0 - _EPS) / (1.0 + slop)
    bounds = _kato_temple(terms, gap)
    if bounds is None:
        return None
    rho_lo, hi, lo = bounds
    sigma = max(lo, 0.0) * (1.0 - 2.0 * slop)
    q = (hi - sigma) / (gap - sigma)  # two steps shrink the residual by q^2 at best
    best = rho_lo - ((r_norm * q * q + e_r) * (1.0 + eta)) ** 2 / (gap - rho_lo)
    return (terms, bounds, gap, slop, lift, shift) if hi <= (1.0 + GRAM_COND_LIMIT) * best else None


def _enclosure(x: np.ndarray, g: np.ndarray, floor_terms, plan, floor_proven: bool):
    """(lo, hi, rho, u) with lo <= lambda_min(X^T X) <= hi proven and rho = fl(||X u||^2) for the
    returned unit u, from _enclosure_plan's plan: the floor's Cholesky (unless floor_proven says it
    has run), the gap's, and at most two refinement steps, in g = fl(X^T X), which _lapack.cholesky
    may write. The enclosure may be wider than GRAM_COND_LIMIT where refinement fell short of its
    prediction; None where a proof step fails.
    """
    scale = floor_terms[0]
    terms, bounds, gap, slop, lift, shift = plan
    if not ((floor_proven or _floor_holds(g, floor_terms)) and _lapack.cholesky(g, scale, shift, lift)):
        return None
    for _ in range(2):
        _, hi, lo = bounds
        if hi <= (1.0 + GRAM_COND_LIMIT) * lo:
            break
        sigma = max(lo, 0.0) * (1.0 - 2.0 * slop)
        z = _lapack.cholesky_solve(g, scale, sigma * scale * scale, scale * terms[0])
        if z is None or not np.isfinite(z).all():
            return None
        terms = _rayleigh(x, scale * z)
        bounds = None if terms is None else _kato_temple(terms, gap)
        if bounds is None:
            return None
    return bounds[2], bounds[1], terms[1], terms[0]


def _gram_factors(matrix, n_rows: int, g: np.ndarray, picks: np.ndarray, diagonal_resolves: bool):
    """(w, rows, residuals) from g = fl(X^T X) of an X with n_rows rows: w ascending, rows[j] the
    vector for w[picks[j]]; picks is empty (values only) or starts at 0. matrix() returns X, and
    only the enclosure and the vectors' checks call it. g is this call's own: it is reduced in
    place and restored before any Cholesky runs in it. None where neither the GRAM_COND_LIMIT
    rule nor the enclosure resolves s_min, or eigh does not converge."""
    floor_terms = _floor_terms(g, n_rows)  # from g's diagonal, which the reduction overwrites
    if not (diagonal_resolves or _floor_holds(g, floor_terms)):
        return None  # the rule has failed already, and the floor with it, before g is reduced
    reduced = _lapack.tridiagonal(g)
    try:
        if reduced is None:  # no kernel: eigh's values and vectors, and only the rule
            w, v = np.linalg.eigh(g)
            if not (diagonal_resolves and _gram_resolves(w[-1], w[0])):
                return None
            return (w, *_verified(matrix(), v[:, picks].T, w[picks], w[-1]))
        w, vector, restore = reduced
        enclose = not (diagonal_resolves and _gram_resolves(w[-1], w[0]))
        try:
            # Bottom vector 1 first: the enclosure starts from it, and runs every check that
            # needs no Cholesky before the other kept vectors are back-transformed.
            first = vector(0) if enclose or picks.size else None
            plan = _enclosure_plan(matrix(), w, first, floor_terms) if enclose else None
            if enclose and plan is None:
                return None
            rest = [vector(p) for p in picks[1:]]
        finally:
            restore()  # g again, for the Choleskys, eigh and the caller
        if enclose:
            found = _enclosure(matrix(), g, floor_terms, plan, not diagonal_resolves)
            if found is None or not found[1] <= (1.0 + GRAM_COND_LIMIT) * found[0]:
                return None
            w[0], first = found[2], found[3]
        if not picks.size:  # no vector to check, so X itself is not read
            return w, np.empty((0, g.shape[0])), np.empty(0)
        kept = _kept(matrix(), [first, *rest], w[picks], w[-1])
        if kept is None:  # a kernel vector failed: eigh supplies the vectors, at w
            kept = _verified(matrix(), np.linalg.eigh(g)[1][:, picks].T, w[picks], w[-1])
        return (w, *kept)
    except np.linalg.LinAlgError:  # eigh did not converge: the R route instead
        return None


def _r_factors(x: np.ndarray, picks: np.ndarray):
    """(s, rows, residuals) from X's R factor: s descending, rows[j] the right vector for
    the picks[j]-th smallest value."""
    # X = QR, so X and R share s and V (Chan's R-SVD); X's N x n left factor is never built.
    last = x.shape[1] - 1
    reduced = _lapack.bidiagonal(x)
    s = None
    if reduced is not None:
        s, vector = reduced
        kept = _kept(x, (vector(p) for p in picks), s[last - picks] ** 2, s[0] ** 2)
        if kept is not None:
            return (s, *kept)
        del reduced, vector  # release the kernel's copy of X before the fallback's QR
    # The kernel is missing or failed, or a vector failed a check: gesdd of R gives the
    # vectors, and the values too where the kernel gave none.
    _, s_r, vt = np.linalg.svd(np.linalg.qr(x, mode="r"))
    if s is None:
        s = s_r
    return (s, *_verified(x, vt[last - picks], s[last - picks] ** 2, s[0] ** 2))


def _right_factors(x: np.ndarray, picks: np.ndarray, g: np.ndarray | None,
                   cols: np.ndarray | None = None):
    """Descending singular values, the right vectors at ascending positions picks as rows,
    their residuals, the route and G on the gram route, of x or, where cols is given, of the
    column minor X_J = x[:, cols], which is copied only where a step reads it. g is X^T X
    (G[J, J] for the minor), which this call reduces in place and restores, or None.
    SpectralError where the R route's fallback does not converge."""
    # X_J is copied on first use and kept, so the enclosure's steps and the R route share one copy.
    matrix = (lambda: x) if cols is None else functools.cache(lambda: np.take(x, cols, axis=1))
    d = np.einsum("ij,ij->j", matrix(), matrix()) if g is None else np.diagonal(g)  # diag(X^T X)
    if 0.0 < d.min() and d.max() < math.inf:  # a zero column leaves s_min no relative enclosure
        resolves = _gram_resolves(d.max(), d.min())
        if g is None:
            g = _lapack.gram(matrix())
        found = _gram_factors(matrix, x.shape[0], g, picks, resolves)
        if found is not None:
            w, rows, residuals = found
            return np.sqrt(w[::-1]), rows, residuals, "gram", g
        del g  # release G before the R route's copy of X
    try:
        return (*_r_factors(matrix(), picks), "gesdd", None)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD backend failed to converge: {exc}") from exc


def full_svd(x: np.ndarray, k_bottom: int = 1, gram: np.ndarray | None = None) -> SpectralResult:
    """All singular values of X, keeping the bottom k right vectors and the top one.

    Where the module's GRAM_COND_LIMIT rule says X^T X resolves s_min, or its
    enclosure proves s_min to the same limit, the values come from the
    tridiagonal reduction of X^T X (4n^3/3 flops), otherwise from the
    bidiagonal reduction of X's R factor (QR, then 8n^3/3 flops); each stored
    vector then costs about 2n^2 flops, and SpectralResult.method records the
    route. On an enclosed matrix only s_min keeps the rule's accuracy; the
    module docstring gives the other values' error. The stored vectors must satisfy
    ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2 and be orthonormal to
    ORTHO_TOL. eigh of X^T X or gesdd of R stands in where a kernel fails or
    its vectors fail that check; SpectralError (with the worst residual
    attached) is raised where the fallback's vectors fail it too, or the
    backend fails to converge.

    gram, when given, is X^T X as the caller already holds it (G[J, J] for
    a column minor X_J); it replaces forming X^T X and its diagonal, while
    every check still runs against X.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    if gram is not None and np.shape(gram) != (n, n):
        raise ValueError(f"gram must have shape {(n, n)}, got {np.shape(gram)}")
    # Ascending positions of the stored vectors: bottom 1..k, then the top,
    # which is bottom vector n itself when k = n.
    picks = np.arange(k_bottom) if k_bottom == n else np.append(np.arange(k_bottom), n - 1)
    if gram is not None:
        gram = _lapack.gram(x, gram)  # the route reduces it in place
    s, rows, residuals, method, gram = _right_factors(x, picks, gram)

    # Each row's largest-magnitude component made positive; argmax takes the lowest index on ties.
    lead = np.take_along_axis(rows, np.abs(rows).argmax(axis=1)[:, None], axis=1)
    stored = np.where(lead < 0, -rows, rows)
    # Each bottom value's distance to its nearer spectral neighbour.
    pos = n - np.arange(1, k_bottom + 1)  # descending-order positions of the k smallest
    gaps = np.concatenate([[math.inf], np.abs(np.diff(s)), [math.inf]])
    flags = (np.minimum(gaps[pos], gaps[pos + 1]) < DEGENERATE_GAP_TOL * s[0]).tolist()

    keep = np.append(np.arange(k_bottom), picks.size - 1)  # the top repeats bottom n when k = n
    return SpectralResult(
        singular_values=s,
        bottom_right_vectors=stored[:k_bottom],
        top_right_vector=stored[-1],
        residuals=residuals[keep],
        tolerance_used=RESIDUAL_TOL,
        method=method,
        degenerate_flags=flags,
        gram=gram,
    )


def _minor_extremes(x: np.ndarray, cols: np.ndarray, gram: np.ndarray | None) -> tuple[float, float]:
    """(s_min, s_top) of the column minor X_J = x[:, cols], bit for bit those of
    full_svd(np.take(x, cols, axis=1), gram=gram), through the same route but with no vector
    kept, so no residual checks them. cols is sorted and unique, 2 <= |J| <= rows, and x is
    finite. gram, G[J, J] or None, is reduced in place and restored."""
    s = _right_factors(x, np.empty(0, np.intp), gram, cols)[0]
    return float(s[-1]), float(s[0])


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
