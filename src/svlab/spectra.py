"""Singular values and right singular vectors with verified residuals.

Two routes produce the factors, and the matrix itself picks one. Each runs
one Householder reduction through numpy's own LAPACK (``svlab._lapack``),
takes from it the values its caller reads, and then computes only the kept
vectors: one inverse iteration on the reduced matrix, at the value the
reduction gave, and one back-transform each, about 2n^2 flops a vector on
top of it.

* ``gram``: G = X^T X is formed once and reduced to tridiagonal form
  (dsytrd, 4n^3/3 flops) in its own lower triangle. lambda_min, lambda_2
  and lambda_max each come from one bisection of the tridiagonal (dstebz
  for that value alone, Barth, Martin & Wilkinson, Numer. Math. 9, 1967;
  O(n) a step), each when it is first read; these are all that the rule,
  the enclosure's gap, bottom vector 1's flag, s_min and s_top read. dsterf
  (an O(n^2) loop) gives the other values, bit for bit what numpy's
  ``eigvalsh`` gives, only where a caller reads one: a flag of k >= 2, a
  third kept vector, or all values; the three bisected values stay as
  they are, so none of them depends on what else was read. s_i =
  sqrt(lambda_i). Once the kept vectors are back-transformed, G is restored
  from its strict upper triangle, which dsytrd never touches, and a copy
  of its diagonal. ``eigh`` (syevd) builds all n vectors for about 9n^3.
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
doubles over X. The route forms G itself; the only G a caller brings is a
column minor's G[J, J] (below), which the route writes in and restores.

Either route falls back to numpy's public call on its matrix, ``eigh`` of
G or gesdd of R (``np.linalg.svd`` of ``np.linalg.qr(x, mode="r")``, which
holds more copies of X; the route keeps its label). Where the reduction
gave the values and only a vector's routine fails, the reduced matrix
splits into blocks only in part, or the kept vectors fail the check below,
the fallback supplies the vectors alone, checked at the reduction's values,
so no value depends on how many vectors are kept. Where the reduction fails,
a bisection or dsterf fails, or numpy's build lacks the routines, it supplies
the values too.

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
column norms, read from G before it is reduced; they lie in [lambda_min,
lambda_max], so a diagonal that fails proves the eigenvalues fail without
an eigensolve. Then it is applied to the eigenvalues themselves. A matrix
that passes takes the gram route as above. Bisection puts each value within
about eps * lambda_max too, where lambda_max lies in [sqrt(tiny / eps),
sqrt(eps / tiny)], about [1e-146, 1e146], the range syevd scales into: there
the squared off-diagonals its Sturm counts use neither underflow nor
overflow, and its absolute floors, 2 safe_min and safe_min * max e_i^2, stay
below eps * lambda_max. A G whose diagonal cannot place lambda_max in that
range (max(G_ii) below it or trace(G) above it) takes the R route at once.

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
* The gap. With b = hi + (w_2 - hi) / 2, w_2 the bisected lambda_2, a
  dpotrf of G_s + b (S u)(S u)^T - b S^2 that succeeds gives lambda_min of
  that matrix > -delta >= -(delta / floor) G_s, so G + b' v v^T - b' I is
  positive definite for some v and b' = b (1 - eps) / (1 + delta / floor);
  by rank-one interlacing, lambda_2(G) >= lambda_min(G + b' v v^T) > b'.
  The order follows from what each step reads. The kernel's kept vectors
  are back-transformed first, since they need G's reflectors. Then G is
  restored, and b' > hi and a predicted width within the limit (next bullet)
  are checked. Only then does either Cholesky run, since both need G restored.
* Refinement. Where hi - lo is above the limit, at most two inverse-iteration
  steps with the Cholesky factor of S (G - sigma I) S, sigma = lo (1 - 2 delta
  / floor) just below lambda_min, replace u and recompute every term. Each
  step shrinks the residual by at least q = (hi - sigma) / (b' - sigma);
  where even ||r|| q^2 + e_r cannot meet the limit, no Cholesky runs. Among
  sampled Pareto matrices (aspect 2, n = 400 and 800), 3 of 7 enclosed at
  alpha = 0.5 took one step, and none of 43 at alpha in {0.8, 1.2, 1.5}.

The other values on an enclosed matrix, s_2 and s_top bisected and the rest
dsterf's, are each off by about eps * lambda_max, so s_j for j >= 2 carries
a relative error near eps * kappa_j^2 / 2, kappa_j = s_1 / s_j: the rule
bounds that by GRAM_COND_LIMIT / 2, and the enclosure does not bound it at all. Against gesvd, s_2 and s_3
of enclosed Pareto matrices (aspect 2, n = 400 and 800, 8 trials each) came
within 2.5e-8 at alpha = 0.8 and 1.2e-11 at alpha = 1.2, and within 2.7e-7
(n = 400) and 3.9e-5 (n = 800, on a trial that took a refinement step) at
alpha = 0.5. On the R route they carry about eps * kappa_j.

full_svd always forms its own G. ``svlab.certificates`` needs only a
column minor X_J's s_min and s_top, so it takes them from
``_minor_extremes``, which runs the same routes with no vector kept on
G[J, J] of X's G. That is X_J^T X_J in exact arithmetic, though not always
bit for bit fl(X_J^T X_J), which sums in another order. It reduces G[J, J]
in place and copies X_J only where the enclosure or the R route reads it.

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
_NO_UNDERFLOW = float(np.finfo(np.float64).tiny) / _EPS  # G_ii and rho below this get no enclosure
# The range of lambda_max, [sqrt(tiny / eps), sqrt(eps / tiny)] (syevd's own), in which bisection
# keeps each eigenvalue within about eps * lambda_max: its squared off-diagonals neither underflow
# nor overflow there, and its absolute floors stay below eps * lambda_max.
_BISECTABLE = (math.sqrt(_NO_UNDERFLOW), 1.0 / math.sqrt(_NO_UNDERFLOW))


class SpectralError(RuntimeError):
    """Numerical failure; carries the worst observed residual."""

    def __init__(self, message: str, worst_residual: float = math.inf):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass
class SpectralResult:
    """Verified spectral data for one matrix.

    bottom_values[k-1] is the k-th smallest singular value and
    bottom_right_vectors[k-1] its unit right singular vector; s_top is
    the largest value, and singular_values all n in descending order
    where full_svd was asked for them (None otherwise). residuals holds
    ||X^T(X u) - s^2 u||_2 for each stored vector, bottom vectors first
    and the top vector last. degenerate_flags[k-1] marks bottom vector k
    whose singular value sits within DEGENERATE_GAP_TOL * s_1 of a
    spectral neighbor, meaning the individual vector (not the subspace)
    is not numerically well defined. method names the route that produced
    the factors: "gram" (the eigenvalues of X^T X and its kept eigenvectors,
    or its eigh) or "gesdd" (the SVD of X's R factor: its bidiagonal
    reduction, or gesdd itself).
    gram is X^T X on the gram route, read-only, and None on the gesdd route;
    upper_certificate takes a column minor's G[J, J] from it. It is left
    out of repr and equality.
    """

    singular_values: np.ndarray | None
    bottom_values: np.ndarray
    s_top: float
    bottom_right_vectors: np.ndarray
    top_right_vector: np.ndarray
    residuals: np.ndarray
    tolerance_used: float
    method: str
    degenerate_flags: list[bool] = field(default_factory=list)
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def s_min(self) -> float:
        return float(self.bottom_values[0])


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
    floor > 0 once _lapack.cholesky(g, scale, nu) succeeds; None where a G_ii is below _NO_UNDERFLOW."""
    n = g.shape[0]
    d = np.diagonal(g)
    if not d.min() >= _NO_UNDERFLOW:
        return None
    c = 1.1 * (rows + n + 6) * _EPS
    nu = n * c / math.sqrt(GRAM_COND_LIMIT)
    floor = nu - c * n * (1.02 + nu)
    return (1.0 / np.sqrt(d), nu, floor, c) if floor > 0.0 else None


def _kato_temple(terms, gap: float):
    """(rho_lo, hi, lo) from _rayleigh's terms and a proven gap <= lambda_2; None where gap <= hi."""
    u, rho, r_norm, e_r, eta = terms
    rho_lo, hi = rho * (1.0 - eta) ** 2, rho * (1.0 + eta) ** 2
    if not gap > hi:
        return None
    return rho_lo, hi, rho_lo - ((r_norm + e_r) * (1.0 + eta)) ** 2 / (gap - rho_lo)


def _enclosure(x: np.ndarray, g: np.ndarray, w2: float, u: np.ndarray | None, floor_terms,
               floor_proven: bool):
    """(lo, hi, rho, u) with lo <= lambda_min(X^T X) <= hi proven and rho = fl(||X u||^2) for the
    returned unit u, started from the kernel's bottom vector u, with w2 the second eigenvalue of g =
    fl(X^T X), which _lapack.cholesky may write, and floor_terms its _floor_terms. Every check that
    needs no Cholesky runs first: the gap b' between lambda_min and w2, and the prediction that two
    refinement steps would meet the limit. Then _lapack.cholesky runs, for the floor at the scalar
    shift nu (unless floor_proven says it has run), for the gap, and for at most two refinement
    steps, each solving in place in a fresh S u. The enclosure may be wider than GRAM_COND_LIMIT
    where refinement fell short of its prediction; None where a check or a proof step fails, or u
    or floor_terms is None.
    """
    if u is None or floor_terms is None:
        return None
    scale, nu, floor, c = floor_terms
    terms = _rayleigh(x, u)
    if terms is None:
        return None
    u, rho, r_norm, e_r, eta = terms
    hi = rho * (1.0 + eta) ** 2
    if not w2 > hi:  # lambda_2 > gap, once proven, holds whatever u becomes
        return None
    b = hi + (w2 - hi) / 2.0
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
    if not (hi <= (1.0 + GRAM_COND_LIMIT) * best and (floor_proven or _lapack.cholesky(g, scale, nu))
            and _lapack.cholesky(g, scale, shift, lift)):
        return None
    for _ in range(2):
        _, hi, lo = bounds
        if hi <= (1.0 + GRAM_COND_LIMIT) * lo:
            break
        sigma = max(lo, 0.0) * (1.0 - 2.0 * slop)
        z = scale * terms[0]
        if not (_lapack.cholesky(g, scale, sigma * scale * scale, rhs=z) and np.isfinite(z).all()):
            return None
        terms = _rayleigh(x, scale * z)
        bounds = None if terms is None else _kato_temple(terms, gap)
        if bounds is None:
            return None
    return bounds[2], bounds[1], terms[1], terms[0]


def _gram_factors(matrix, n_rows: int, g: np.ndarray, picks: np.ndarray, need: np.ndarray):
    """(w, rows, residuals) from g = fl(X^T X) of an X with n_rows rows: w[j] the eigenvalue at
    ascending position need[j], rows[j] the vector for position picks[j]; need holds 0, picks and
    n - 1, ascending, and picks is empty (values only) or starts at 0. matrix() returns X, and only
    the enclosure and the vectors' checks call it. g is this call's own: it is reduced in place and
    restored before any Cholesky runs in it. None where a diagonal entry of g is zero or not
    finite, lambda_max may lie outside _BISECTABLE, neither the GRAM_COND_LIMIT rule nor the
    enclosure resolves s_min, or eigh does not converge."""
    d = np.diagonal(g)  # the squared column norms, which the reduction overwrites
    # A zero column leaves s_min no relative enclosure. lambda_max lies in [max(d), sum(d)].
    if not (0.0 < d.min() and _BISECTABLE[0] <= d.max() and d.sum() <= _BISECTABLE[1]):
        return None
    resolves = _gram_resolves(d.max(), d.min())  # a diagonal that fails proves the eigenvalues fail
    floor_terms = _floor_terms(g, n_rows)
    if not (resolves or floor_terms is not None and _lapack.cholesky(g, *floor_terms[:2])):
        return None  # the rule has failed already, and the floor with it, before g is reduced
    reduced = _lapack.tridiagonal(g)
    try:
        if reduced is not None:
            try:
                return _tridiagonal_factors(matrix, g, reduced, picks, need, resolves, floor_terms)
            except _lapack.LapackError:  # a value's routine failed, and g is restored
                pass
        # No kernel, or no value from it: eigh's values and vectors, and only the rule.
        w, v = np.linalg.eigh(g)
        if not (resolves and _gram_resolves(w[-1], w[0])):
            return None
        return (w[need], *_verified(matrix(), v[:, picks].T, w[picks], w[-1]))
    except np.linalg.LinAlgError:  # eigh did not converge: the R route instead
        return None


def _tridiagonal_factors(matrix, g: np.ndarray, reduced, picks: np.ndarray, need: np.ndarray,
                         resolves: bool, floor_terms):
    """_gram_factors' result from reduced, _lapack.tridiagonal(g), where the diagonal of g resolves
    s_min by the rule or floor_terms' floor is proven. Reads lambda_min and lambda_max for the rule,
    lambda_2 where the enclosure runs, and the values at need."""
    eigenvalues, vector, restore = reduced
    last = g.shape[0] - 1
    try:
        lo, hi = eigenvalues([0, last])
        enclose = not (resolves and _gram_resolves(hi, lo))
        # The enclosure starts from bottom vector 1, so it is computed even where none is kept.
        first = vector(0) if enclose or picks.size else None
        rest = [vector(p) for p in picks[1:]]
    finally:
        restore()  # g again, for the Choleskys, eigh and the caller
    if enclose:  # where the diagonal failed the rule, the floor was proven above
        found = _enclosure(matrix(), g, eigenvalues([1])[0], first, floor_terms, not resolves)
        if found is None or not found[1] <= (1.0 + GRAM_COND_LIMIT) * found[0]:
            return None
        lo, first = found[2], found[3]
    w = eigenvalues(need)
    w[0] = lo  # lambda_min, or on an enclosed matrix the proven Rayleigh quotient
    if not picks.size:  # no vector to check, so X itself is not read
        return w, np.empty((0, g.shape[0])), np.empty(0)
    lam = w[np.searchsorted(need, picks)]
    kept = _kept(matrix(), [first, *rest], lam, hi)
    if kept is None:  # a kernel vector failed: eigh supplies the vectors, at w
        kept = _verified(matrix(), np.linalg.eigh(g)[1][:, picks].T, lam, hi)
    return (w, *kept)


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


def _right_factors(x: np.ndarray, picks: np.ndarray, need: np.ndarray, g: np.ndarray | None,
                   cols: np.ndarray | None = None):
    """The singular values at ascending positions need (position p is the (p+1)-th smallest; need
    holds 0, picks and the last, ascending), the right vectors at ascending positions picks as
    rows, their residuals, the route and G on the gram route, of x or, where cols is given, of the
    column minor X_J = x[:, cols], which is copied only where a step reads it. g is G[J, J] for
    the minor, which this call reduces in place and restores, or None, and then this call forms
    X^T X itself. SpectralError where the R route's fallback does not converge."""
    # X_J is copied on first use and kept, so the enclosure's steps and the R route share one copy.
    matrix = (lambda: x) if cols is None else functools.cache(lambda: np.take(x, cols, axis=1))
    if g is None:
        g = _lapack.gram(matrix())
    found = _gram_factors(matrix, x.shape[0], g, picks, need)
    if found is not None:
        w, rows, residuals = found
        return np.sqrt(w), rows, residuals, "gram", g
    del g  # release G before the R route's copy of X
    try:
        s, rows, residuals = _r_factors(matrix(), picks)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD backend failed to converge: {exc}") from exc
    return s[s.size - 1 - need], rows, residuals, "gesdd", None


def full_svd(x: np.ndarray, k_bottom: int = 1, all_values: bool = True) -> SpectralResult:
    """The bottom k singular values with their right vectors, the top value and its vector, and,
    where all_values is set, all n values.

    Where the module's GRAM_COND_LIMIT rule says X^T X resolves s_min, or its
    enclosure proves s_min to the same limit, the values come from the
    tridiagonal reduction of X^T X (4n^3/3 flops), otherwise from the
    bidiagonal reduction of X's R factor (QR, then 8n^3/3 flops); each stored
    vector then costs about 2n^2 flops, and SpectralResult.method records the
    route. On the gram route, s_min, s_2 and s_top come from one bisection
    each, and the other values, read where k_bottom >= 2 (bottom vector k's
    flag reads the (k+1)-th smallest value) or all_values is set, from one
    dsterf; no value depends on k_bottom or all_values, and singular_values is
    None where all_values is not set. On an enclosed matrix only s_min keeps the rule's
    accuracy; the module docstring gives the other values' error. The stored vectors must satisfy
    ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2 and be orthonormal to
    ORTHO_TOL. eigh of X^T X or gesdd of R stands in where a kernel fails or
    its vectors fail that check; SpectralError (with the worst residual
    attached) is raised where the fallback's vectors fail it too, or the
    backend fails to converge.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    # Ascending positions of the stored vectors: bottom 1..k, then the top,
    # which is bottom vector n itself when k = n.
    picks = np.arange(k_bottom) if k_bottom == n else np.append(np.arange(k_bottom), n - 1)
    # Ascending positions of the values read: the bottom k and the one above them (the flags'
    # neighbour), and the top; or all n.
    low = min(k_bottom + 1, n)
    need = np.arange(n) if all_values or low == n else np.append(np.arange(low), n - 1)
    s, rows, residuals, method, gram = _right_factors(x, picks, need, None)
    if gram is not None:
        gram.flags.writeable = False  # restored by the route, and now only read

    # Each row's largest-magnitude component made positive; argmax takes the lowest index on ties.
    lead = np.take_along_axis(rows, np.abs(rows).argmax(axis=1)[:, None], axis=1)
    stored = np.where(lead < 0, -rows, rows)
    # Each bottom value's distance to its nearer spectral neighbour.
    gaps = np.concatenate([[math.inf], np.abs(np.diff(s[:low])), [math.inf]])
    flags = (np.minimum(gaps[:k_bottom], gaps[1:k_bottom + 1]) < DEGENERATE_GAP_TOL * s[-1]).tolist()

    keep = np.append(np.arange(k_bottom), picks.size - 1)  # the top repeats bottom n when k = n
    return SpectralResult(
        singular_values=s[::-1] if all_values else None,
        bottom_values=s[:k_bottom].copy(),
        s_top=float(s[-1]),
        bottom_right_vectors=stored[:k_bottom],
        top_right_vector=stored[-1],
        residuals=residuals[keep],
        tolerance_used=RESIDUAL_TOL,
        method=method,
        degenerate_flags=flags,
        gram=gram,
    )


def _minor_extremes(x: np.ndarray, cols: np.ndarray, gram: np.ndarray | None) -> tuple[float, float]:
    """(s_min, s_top) of the column minor X_J = x[:, cols] through full_svd's routes with no
    vector kept, so no residual checks them: on gram = G[J, J], which is reduced in place and
    restored, or, where gram is None, on X_J^T X_J formed as full_svd forms it, and then bit
    for bit full_svd's of X_J. cols is sorted and unique, 2 <= |J| <= rows, and x is finite."""
    s = _right_factors(x, np.empty(0, np.intp), np.array([0, cols.size - 1]), gram, cols)[0]
    return float(s[0]), float(s[-1])


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
