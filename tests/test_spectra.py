"""Spectral contracts: residuals, ordering, sign convention, minors, norms."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from svlab import _lapack, spectra
from svlab.certificates import upper_certificate
from svlab.cli import main
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from svlab.experiments import derive_trial_seed
from svlab.matrixio import save_matrix
from svlab.spectra import GRAM_COND_LIMIT, SpectralError, full_svd, operator_norm


def _random_matrices(count=20, seed=5150):
    """Mixed-law tall matrices for oracle comparisons."""
    out = []
    rng = np.random.default_rng(seed)
    laws = [
        TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.8),
        TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5),
        TailLaw(LawKind.STUDENT_T, alpha=2.5),
        TailLaw(LawKind.GAUSSIAN),
    ]
    for i in range(count):
        n = int(rng.integers(5, 40))
        aspect = float(rng.uniform(1.2, 3.0))
        law = laws[i % len(laws)]
        out.append(sample_matrix(EnsembleConfig(n=n, aspect=aspect, law=law, seed=1000 + i)))
    return out


def _r_route_matrix(n=40, seed=0):
    """A Pareto(0.3) matrix whose X^T X resolves s_min neither by the rule nor by the scaled
    enclosure, so full_svd takes the R route."""
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.3)
    return sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))


def _alpha_tenth_matrix():
    """Trial 0 of a sweep at alpha = 0.1, n = 40, aspect 2 and base seed 11. Its R-route
    vectors, computed at a second, bisected copy of each eigenvalue, once failed their
    check, and gesdd of R then put s_min 6e7 times too high."""
    seed = derive_trial_seed(11, "symmetric_pareto", 0.1, 40, 2.0, 0)
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.1)
    return sample_matrix(EnsembleConfig(n=40, aspect=2.0, law=law, seed=seed))


def _enclosed_matrix(n=200, seed=4):
    """A Pareto(0.8) matrix whose eigenvalues fail the GRAM_COND_LIMIT rule, and whose
    s_min the scaled enclosure resolves, so full_svd keeps the gram route."""
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.8)
    return sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))


def _enclose(x, floor_proven=False):
    """The enclosure as the gram route runs it on X's own G: from the kernel's bottom vector,
    once G is restored."""
    g = _lapack.gram(x)
    terms = spectra._floor_terms(g, x.shape[0])
    w, vector, restore = _lapack.tridiagonal(g)
    u = vector(0)
    restore()
    return spectra._enclosure(x, g, w, u, terms, floor_proven)


def _fails_rule(x):
    w = np.linalg.eigvalsh(x.T @ x)
    return not (w[0] > 0 and np.finfo(float).eps * w[-1] <= GRAM_COND_LIMIT * w[0])


def _spy_vectors(monkeypatch, kernel, change):
    """Route every vector of _lapack.<kernel> through change(p, v) before full_svd sees it."""
    real = getattr(_lapack, kernel)

    def spied(a):
        values, vector, *restore = real(a)  # tridiagonal also returns its restore()
        return values, lambda p: change(p, vector(p)), *restore

    monkeypatch.setattr(_lapack, kernel, spied)


class TestHandExamples:
    def test_rank_one_padded(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        res = full_svd(x, k_bottom=2)
        assert res.singular_values[0] == pytest.approx(2.0, abs=1e-12)
        assert res.singular_values[1] == pytest.approx(0.0, abs=1e-12)
        u = res.bottom_right_vectors[0]
        assert np.allclose(np.abs(u), math.sqrt(0.5), atol=1e-12)
        assert u[int(np.argmax(np.abs(u)))] > 0  # sign convention
        assert res.method == "gesdd"  # lambda_min of X^T X is 0 up to rounding

    def test_diagonal(self):
        x = np.vstack([np.diag([3.0, 1.0]), np.zeros((2, 2))])
        res = full_svd(x, k_bottom=2)
        assert res.singular_values[-1] == 1.0
        assert np.allclose(res.bottom_right_vectors[0], [0.0, 1.0], atol=1e-14)
        assert res.singular_values[-2] == 3.0
        assert np.allclose(res.bottom_right_vectors[1], [1.0, 0.0], atol=1e-14)

    def test_smallest_equals_k1(self):
        # s_min and the bottom vector do not depend on how many vectors are kept,
        # on either route, up to keeping all of them.
        methods = set()
        for x in [*_random_matrices(6), _r_route_matrix(), _alpha_tenth_matrix(), _enclosed_matrix()]:
            one = full_svd(x, k_bottom=1)
            methods.add(one.method)
            for k in (2, x.shape[1]):
                more = full_svd(x, k_bottom=k)
                assert more.method == one.method and one.s_min == more.s_min
                assert np.array_equal(one.bottom_right_vectors[0], more.bottom_right_vectors[0])
        assert methods == {"gram", "gesdd"}
        assert _fails_rule(_enclosed_matrix()) and full_svd(_enclosed_matrix()).method == "gram"

    def test_zero_matrix(self):
        # R = 0: every singular value ties at zero, so the bidiagonal kernel's
        # vectors are rejected and gesdd of R stands in, without raising.
        res = full_svd(np.zeros((4, 3)), k_bottom=3)
        assert np.all(res.singular_values == 0.0)
        assert res.method == "gesdd"
        v = res.bottom_right_vectors
        assert np.abs(v @ v.T - np.eye(3)).max() < 1e-15


class TestContracts:
    def test_descending_order(self):
        for x in _random_matrices(8):
            s = full_svd(x).singular_values
            assert np.all(np.diff(s) <= 0)
            assert s[-1] >= 0

    def test_residual_bound_holds(self):
        for x in _random_matrices(12):
            res = full_svd(x, k_bottom=min(3, x.shape[1]))
            s1 = res.s_top
            assert float(res.residuals.max()) <= res.tolerance_used * s1 * s1

    def test_against_gram_eigen_oracle(self):
        # Independent route: LAPACK gesvd, which neither route of full_svd calls.
        for x in _random_matrices(12):
            s = full_svd(x).singular_values
            oracle = scipy.linalg.svd(x, compute_uv=False, lapack_driver="gesvd")
            assert np.allclose(s, oracle, atol=1e-9 * max(s[0], 1.0))

    def test_min_max_probe_lower_bound(self, rng):
        # Any (n-k)-dim subspace gives min ||Xv|| <= s_{(k-th smallest)}:
        # random probes never exceed the reported value.
        x = sample_matrix(
            EnsembleConfig(n=8, aspect=2.0, law=TailLaw(LawKind.GAUSSIAN), seed=77)
        )
        for k in (1, 2, 3):
            val = full_svd(x, k_bottom=k).singular_values[-k]
            best = 0.0
            for _ in range(2000):
                q, _ = np.linalg.qr(rng.standard_normal((8, 8 - k + 1)))
                probe = np.linalg.svd(x @ q, compute_uv=False)[-1]
                best = max(best, float(probe))
            assert best <= val + 1e-9 * float(np.linalg.norm(x, 2))

    def test_orthonormal_stored_vectors(self):
        for x in _random_matrices(8):
            k = min(4, x.shape[1])
            res = full_svd(x, k_bottom=k)
            block = np.vstack([res.bottom_right_vectors, res.top_right_vector[None, :]])
            gram = block @ block.T
            if k < x.shape[1]:
                assert np.abs(gram - np.eye(k + 1)).max() < 1e-10

    def test_unit_norm_vectors(self):
        for x in _random_matrices(4):
            res = full_svd(x, k_bottom=2)
            for u in (*res.bottom_right_vectors, res.top_right_vector):
                assert abs(np.linalg.norm(u) - 1.0) < 1e-12

    def test_sign_convention_all_vectors(self):
        for x in _random_matrices(10):
            res = full_svd(x, k_bottom=min(3, x.shape[1]))
            for u in (*res.bottom_right_vectors, res.top_right_vector):
                assert u[int(np.argmax(np.abs(u)))] > 0

    def test_deterministic_repeat(self):
        x = _random_matrices(1)[0]
        a = full_svd(x, k_bottom=2)
        b = full_svd(x, k_bottom=2)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.bottom_right_vectors, b.bottom_right_vectors)

    def test_column_permutation_equivariance(self, rng):
        x = sample_matrix(
            EnsembleConfig(n=9, aspect=2.0, law=TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.2), seed=3)
        )
        perm = rng.permutation(9)
        res_a = full_svd(x, k_bottom=1)
        res_b = full_svd(x[:, perm], k_bottom=1)
        assert np.allclose(res_a.singular_values, res_b.singular_values, rtol=1e-10)
        ua = np.abs(res_a.bottom_right_vectors[0][perm])
        ub = np.abs(res_b.bottom_right_vectors[0])
        assert np.allclose(ua, ub, atol=1e-9)


class TestDegenerateFlags:
    def test_well_separated_not_flagged(self):
        x = np.vstack([np.diag([5.0, 3.0, 1.0]), np.zeros((1, 3))])
        res = full_svd(x, k_bottom=3)
        assert res.degenerate_flags == [False, False, False]

    def test_near_tie_flagged(self):
        x = np.vstack([np.diag([5.0, 1.0, 1.0 + 1e-9]), np.zeros((1, 3))])
        res = full_svd(x, k_bottom=2)
        # gap 1e-9 < 1e-8 * s1 = 5e-8: both members of the near-pair flagged
        assert res.degenerate_flags == [True, True]

    def test_exact_tie_flagged(self):
        x = np.vstack([np.eye(2), np.eye(2)])
        res = full_svd(x, k_bottom=1)
        assert res.degenerate_flags == [True]

    def test_matches_neighbour_loop_reference(self):
        mats = _random_matrices(6) + [
            np.vstack([np.diag([4.0, 2.0, 2.0 + 1e-8, 1.0, 1.0]), np.zeros((2, 5))])
        ]
        for x in mats:
            n = x.shape[1]
            res = full_svd(x, k_bottom=n)
            s, tol = res.singular_values, 1e-8 * res.s_top
            want = []
            for k in range(1, n + 1):
                i = n - k
                gaps = [abs(s[j] - s[j + 1]) for j in (i - 1, i) if 0 <= j < n - 1]
                want.append(min(gaps) < tol)
            assert res.degenerate_flags == want


class TestValidation:
    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            full_svd(np.ones((2, 3)))

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            full_svd(np.ones((3, 1)))

    def test_nonfinite_rejected(self):
        x = np.ones((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            full_svd(x)

    def test_k_range(self):
        x = np.ones((3, 2)) + np.eye(3, 2)
        with pytest.raises(ValueError):
            full_svd(x, k_bottom=0)
        with pytest.raises(ValueError):
            full_svd(x, k_bottom=3)

    @pytest.mark.parametrize("route", ["gram", "gesdd"])
    def test_perturbed_bottom_vector_fails_residual(self, monkeypatch, route):
        # Rotate the bottom vector slightly toward its neighbour: still unit
        # norm and orthogonal to the top vector, so only the residual catches it.
        # s_min = 1e-4 puts kappa^2 beyond what X^T X resolves, forcing gesdd.
        # Without numpy's LAPACK symbols, eigh or gesdd of R gives the vectors
        # and only full_svd's own check stands between them and the caller.
        monkeypatch.setattr(_lapack, "_lib", {})
        theta = 1e-3
        if route == "gram":
            x = np.vstack([np.diag([5.0, 3.0, 2.0, 1.0]), np.zeros((2, 4))])
            real_eigh = np.linalg.eigh

            def perturbed(a):
                w, v = real_eigh(a)  # ascending: column 0 is the bottom vector
                v = v.copy()
                v[:, 0] = math.cos(theta) * v[:, 0] + math.sin(theta) * v[:, 1]
                return w, v

            monkeypatch.setattr(np.linalg, "eigh", perturbed)
        else:
            x = np.vstack([np.diag([5.0, 3.0, 2.0, 1e-4]), np.zeros((2, 4))])
            real_svd = np.linalg.svd

            def perturbed(a, full_matrices=True):
                u, s, vt = real_svd(a, full_matrices=full_matrices)
                vt = vt.copy()
                vt[-1] = math.cos(theta) * vt[-1] + math.sin(theta) * vt[-2]
                return u, s, vt

            monkeypatch.setattr(np.linalg, "svd", perturbed)
        with pytest.raises(SpectralError, match="residual") as info:
            full_svd(x)
        assert info.value.worst_residual > 1e-10 * 25.0

    @pytest.mark.parametrize("route", ["gram", "gesdd"])
    def test_repeated_fallback_vector_fails_orthonormality(self, monkeypatch, route):
        # The fallback returns one vector twice for two near-equal values: each
        # passes the residual check, so only orthonormality catches the pair.
        monkeypatch.setattr(_lapack, "_lib", {})
        if route == "gram":
            x = np.vstack([np.diag([1.0, 1.0 + 1e-12, 2.0]), np.zeros((1, 3))])
            real_eigh = np.linalg.eigh

            def repeated(a):
                w, v = real_eigh(a)
                v = v.copy()
                v[:, 1] = v[:, 0]
                return w, v

            monkeypatch.setattr(np.linalg, "eigh", repeated)
        else:
            x = np.vstack([np.diag([1e-4, 1e-4 * (1.0 + 1e-9), 5.0]), np.zeros((1, 3))])
            real_svd = np.linalg.svd

            def repeated(a, full_matrices=True):
                u, s, vt = real_svd(a, full_matrices=full_matrices)
                vt = vt.copy()
                vt[-2] = vt[-1]
                return u, s, vt

            monkeypatch.setattr(np.linalg, "svd", repeated)
        with pytest.raises(SpectralError, match="orthonormality") as info:
            full_svd(x, k_bottom=2)
        s1 = 2.0 if route == "gram" else 5.0
        assert info.value.worst_residual < 1e-10 * s1**2

    def test_nan_residual_is_not_verified(self, tmp_path, capsys):
        # Entries near 1e200 overflow X^T(Xu) and s^2, so the residual is
        # inf - inf = NaN, which must fail the check rather than pass it.
        x = np.vstack([np.diag([3e200, 1e199]), np.zeros((1, 2))])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectralError, match="residual"):
                full_svd(x)
            path = tmp_path / "huge.svlm"
            save_matrix(x, path)
            assert main(["spectra", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical failure" in captured.err

    def test_spectral_error_has_residual_field(self):
        err = SpectralError("boom", worst_residual=3.5)
        assert err.worst_residual == 3.5


class TestRoute:
    """Which LAPACK route full_svd takes, and that gesdd is taken only when needed."""

    def test_well_conditioned_takes_gram(self):
        x = np.vstack([np.diag([5.0, 3.0, 2.0, 1.0]), np.zeros((2, 4))])
        assert full_svd(x).method == "gram"
        x = sample_matrix(EnsembleConfig(n=30, aspect=2.0, law=TailLaw(LawKind.GAUSSIAN), seed=9))
        assert full_svd(x, k_bottom=2).method == "gram"

    def test_unequal_column_norms_skip_eigh(self, monkeypatch):
        # diag(X^T X) alone spans 1e10 / 1, which already fails the rule, so the
        # scaled floor's Cholesky runs before any reduction. Scaled, the first X is
        # the identity: the enclosure proves its s_min and the gram route stays. In
        # the second, columns 2 and 3 agree to 1e-9 after scaling, the floor fails,
        # and the R route runs without reducing G at all.
        def no_eigh(a):
            raise AssertionError("eigh called")

        calls = []
        real_call = _lapack._call

        def counting(name, *args):
            calls.append(name)
            return real_call(name, *args)

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(_lapack, "_call", counting)
        x = np.vstack([np.diag([1e5, 3.0, 2.0, 1.0]), np.zeros((2, 4))])
        res = full_svd(x, k_bottom=2)
        assert calls[:3] == ["dpotrf", "dsytrd", "dsytrd"] and "dgeqrf" not in calls
        assert res.method == "gram" and res.s_min == 1.0
        assert res.singular_values.tolist() == pytest.approx([1e5, 3.0, 2.0, 1.0], rel=1e-12)
        calls.clear()
        x[3, 3], x[2, 3] = 1e-9, 1.0
        res = full_svd(x, k_bottom=2)
        assert calls[:2] == ["dpotrf", "dgeqrf"] and "dsytrd" not in calls
        assert res.method == "gesdd"
        assert res.singular_values == pytest.approx(np.linalg.svd(x, compute_uv=False), rel=1e-12)

    @staticmethod
    def _equal_norm_calls(monkeypatch, second):
        # An orthogonal rotation with +-1/2 entries gives every column the same
        # norm, so the diagonal passes; the eigenvalues (kappa = 5e4) do not.
        # Bottom vector 1 comes first, then the other kept vectors; then G is
        # restored, and every check of the enclosure that needs no Cholesky runs
        # before either Cholesky. Returns full_svd's result and the LAPACK calls
        # after bottom vector 1's.
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        x = np.vstack([np.diag([5.0, 3.0, second, 1e-4]) @ h, np.zeros((2, 4))])
        assert np.ptp(np.linalg.norm(x, axis=0)) < 1e-12
        calls = []
        real_call = _lapack._call

        def counting(name, *args):
            calls.append(name)
            return real_call(name, *args)

        monkeypatch.setattr(_lapack, "_call", counting)
        res = full_svd(x)
        assert calls[:5] == ["dsytrd", "dsytrd", "dsterf", "dstein", "dormtr"]
        assert res.s_min == pytest.approx(1e-4, rel=1e-10)
        return res, calls[5:]

    def test_equal_column_norms_fall_back_after_eigenvalues(self, monkeypatch):
        # s_min's neighbour is 2, so the enclosure proves it, and no QR runs. The top
        # vector is back-transformed while G holds its reflectors; then G is restored,
        # and once the checks that need no Cholesky pass, the Choleskys for the floor
        # and the gap run in it.
        res, rest = self._equal_norm_calls(monkeypatch, 2.0)
        assert rest == ["dstein", "dormtr", "dpotrf", "dpotrf"]
        assert res.method == "gram"

    def test_equal_column_norms_near_tie_takes_r_route(self, monkeypatch):
        # A planted near-tie, lambda_2 / lambda_1 - 1 = 4e-12, leaves no gap to
        # prove, so after the top vector's back-transform the R route runs without
        # a Cholesky.
        res, rest = self._equal_norm_calls(monkeypatch, 1e-4 * (1.0 + 2e-12))
        assert rest[:6] == ["dstein", "dormtr", "dgeqrf", "dgeqrf", "dgebrd", "dgebrd"]
        assert "dpotrf" not in rest
        assert res.method == "gesdd"


class TestShiftedSolves:
    """The gram route: dsytrd and dsterf for the values, then per kept vector one
    shifted tridiagonal solve (dstein's inverse iteration) and dormtr; eigh as fallback."""

    @staticmethod
    def _x(n=6, seed=9):
        law = TailLaw(LawKind.STUDENT_T, alpha=3.0)
        return sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))

    @staticmethod
    def _from_eigh(x, k):
        # The fallback: eigh of X^T X, vectors in full_svd's order and sign.
        w, v = np.linalg.eigh(x.T @ x)
        vecs = [v[:, j] for j in range(k)] + [v[:, -1]]
        return np.sqrt(w[::-1]), [u if u[np.abs(u).argmax()] > 0 else -u for u in vecs]

    def test_perturbed_solve_falls_back_to_eigh(self, monkeypatch):
        x = self._x()
        _spy_vectors(monkeypatch, "tridiagonal",
                     lambda p, v: v + 1e-3 * np.linspace(-1.0, 1.0, v.size))
        res = full_svd(x, k_bottom=2)
        _, vecs = self._from_eigh(x, 2)
        assert res.method == "gram"
        # eigh supplies the vectors only: the values stay dsterf's, which are eigvalsh's.
        assert np.array_equal(res.singular_values, np.sqrt(np.linalg.eigvalsh(x.T @ x)[::-1]))
        assert np.array_equal(res.bottom_right_vectors, np.array(vecs[:2]))
        assert np.array_equal(res.top_right_vector, vecs[2])
        monkeypatch.undo()
        clean = full_svd(x, k_bottom=2)
        assert np.array_equal(clean.singular_values, np.sqrt(np.linalg.eigvalsh(x.T @ x)[::-1]))
        assert np.abs(clean.bottom_right_vectors - res.bottom_right_vectors).max() < 1e-10

    def test_all_vectors_kept_solves_each_once(self, monkeypatch):
        # k_bottom = n: the top vector is bottom vector n, solved once and not
        # orthogonalized against itself.
        x = self._x(n=5)
        calls = []
        real_call = _lapack._call

        def counting(name, *args):
            calls.append(name)
            return real_call(name, *args)

        def no_eigh(a):
            raise AssertionError("eigh called")

        monkeypatch.setattr(_lapack, "_call", counting)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        res = full_svd(x, k_bottom=5)
        assert res.method == "gram"
        assert calls.count("dstein") == calls.count("dormtr") == 5 and calls.count("dsytrd") == 2
        assert np.array_equal(res.top_right_vector, res.bottom_right_vectors[-1])
        assert res.residuals.shape == (6,) and res.residuals[-1] == res.residuals[-2]
        assert np.array_equal(res.gram, x.T @ x)  # reduced in place, then restored

    def test_all_vectors_match_eigh(self, monkeypatch):
        # k_bottom = n through either kernel alone: every vector satisfies the
        # residual bound and matches eigh's (gram route) or gesdd's (R route)
        # where the gap allows.
        real_eigh, real_svd = np.linalg.eigh, np.linalg.svd
        monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh called"))
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("gesdd called"))
        for x, method in [(self._x(n=40, seed=2), "gram"), (_r_route_matrix(), "gesdd")]:
            res = full_svd(x, k_bottom=40)
            g = x.T @ x
            if method == "gram":
                w, v = real_eigh(g)
            else:
                _, s, vt = real_svd(x, full_matrices=False)
                w, v = s[::-1] ** 2, vt[::-1].T
            assert res.method == method
            top2 = res.s_top**2
            assert np.abs(res.singular_values[::-1] ** 2 - w).max() <= 1e-12 * top2
            u = res.bottom_right_vectors.T
            assert np.linalg.norm(g @ u - u * w, axis=0).max() <= 1e-10 * top2
            gaps = np.minimum(np.append(np.inf, np.diff(w)), np.append(np.diff(w), np.inf))
            ref = v * np.sign(np.sum(u * v, axis=0))
            assert np.all(np.linalg.norm(u - ref, axis=0) <= 1e-10 * top2 / gaps)

    def test_exact_tie_is_exact_without_eigh(self, monkeypatch):
        # X^T X = 2 I: its tridiagonal is diagonal (every off-diagonal splits), so
        # the kernel returns the unit vectors e_1 and e_2 exactly and eigh never runs.
        monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh called"))
        res = full_svd(np.vstack([np.eye(2), np.eye(2)]), k_bottom=2)
        assert res.method == "gram"
        assert res.bottom_right_vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert res.singular_values.tolist() == [math.sqrt(2.0)] * 2
        assert res.degenerate_flags == [True, True]

    @given(
        alpha=st.floats(0.5, 5.0),
        n=st.integers(3, 40),
        k=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigh(self, alpha, n, k, seed):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
        x = sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))
        k = min(k, n)
        res = full_svd(x, k_bottom=k)
        if res.method != "gram":
            return
        w, v = np.linalg.eigh(x.T @ x)
        top2 = res.s_top**2
        assert np.abs(res.singular_values[::-1] ** 2 - w).max() <= 1e-8 * top2
        # A vector is defined to about eps * s_top^2 / gap, so compare where the gap allows.
        gaps = np.abs(np.diff(w))
        got = np.vstack([res.bottom_right_vectors, res.top_right_vector])
        for u, j in zip(got, [*range(k), n - 1]):
            gap = min(gaps[j - 1] if j > 0 else math.inf, gaps[j] if j < n - 1 else math.inf)
            ref = v[:, j] * np.sign(v[:, j] @ u)
            assert np.linalg.norm(u - ref) <= 1e-8 * top2 / gap


def _near_tie_matrix():
    """Equal column norms (the diagonal passes the rule), eigenvalues that fail it, and a planted
    near-tie above s_min, so G is reduced and restored, and the enclosure then rejects it before
    any Cholesky."""
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    return np.vstack([np.diag([5.0, 3.0, 1e-4 * (1.0 + 2e-12), 1e-4]) @ h, np.zeros((2, 4))])


class TestGramRestored:
    """The gram route reduces G in its own storage; every exit gives it back bit for bit, both
    to full_svd, which forms G itself, and to the caller of _minor_extremes, which brings it."""

    @staticmethod
    def _failing(monkeypatch, routine):
        # routine runs, then reports failure, so it has written in G first.
        real_call = _lapack._call

        def call(name, *args):
            info = real_call(name, *args)
            query = isinstance(args[-1], int) and args[-1] == -1
            return 1 if name == routine and not query else info

        monkeypatch.setattr(_lapack, "_call", call)

    @pytest.mark.parametrize("exit_, method", [
        ("rule", "gram"), ("enclosure", "gram"), ("refinement", "gram"), ("floor", "gesdd"),
        ("near_tie", "gesdd"), ("dsytrd", "gram"), ("dsterf", "gram"), ("no_symbols", "gram"),
    ])
    @pytest.mark.parametrize("given", [False, True])
    def test_every_exit_restores_g(self, monkeypatch, exit_, method, given):
        pareto = {"enclosure": 0.8, "refinement": 0.5}
        if exit_ in pareto:
            law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=pareto[exit_])
            x = sample_matrix(EnsembleConfig(n=40, aspect=2.0, law=law, seed=1))
        elif exit_ == "floor":
            x = _r_route_matrix()
        elif exit_ == "near_tie":
            x = _near_tie_matrix()
        else:
            x = TestShiftedSolves._x(n=40, seed=2)
        if exit_ in ("dsytrd", "dsterf"):
            self._failing(monkeypatch, exit_)
        if exit_ == "no_symbols":
            monkeypatch.setattr(_lapack, "_lib", {})
        calls, grams, factors = [], [], []
        real_call, real_gram, real_factors = _lapack._call, _lapack.gram, spectra._right_factors
        monkeypatch.setattr(_lapack, "_call", lambda name, *args: (calls.append(name), real_call(name, *args))[1])
        monkeypatch.setattr(_lapack, "gram", lambda x: grams.append(real_gram(x)) or grams[-1])
        monkeypatch.setattr(spectra, "_right_factors",
                            lambda *args: factors.append(real_factors(*args)) or factors[-1])
        assert _fails_rule(x) == (exit_ in ("enclosure", "refinement", "floor", "near_tie"))
        exact = x.T @ x
        if given:
            # The caller's G[J, J], with J every column so that each exit is the one full_svd
            # takes; the minor keeps no vector, but the enclosure still starts from one.
            g = exact.copy()
            spectra._minor_extremes(x, np.arange(x.shape[1]), g)
            assert not grams and np.array_equal(g, exact)  # no G of its own; the caller's came back
        else:
            res = full_svd(x, k_bottom=2)
            assert len(grams) == 1 and np.array_equal(grams[0], exact)  # one G, and it came back
            g = grams[0]
            assert res.gram is factors[0][4]
        assert factors[0][3] == method
        assert factors[0][4] is (g if method == "gram" else None)
        routes = {"refinement": "dpotrs", "floor": "dgeqrf", "near_tie": "dgeqrf"}
        assert exit_ not in routes or routes[exit_] in calls
        assert (exit_ == "floor") == ("dsytrd" not in calls and _lapack.available())


class TestGivenGram:
    """A caller's Gram matrix enters only as a column minor's G[J, J]: upper_certificate takes it
    from spectrum.gram, whose shape it checks, and _minor_extremes reduces it in place."""

    @staticmethod
    def _x(n=12, seed=4):
        law = TailLaw(LawKind.STUDENT_T, alpha=3.0)
        return sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))

    def test_wrong_shape_raises(self):
        x = self._x()
        res = full_svd(x)
        g = res.gram
        for bad in (g[:-1], g[:-1, :-1], g.ravel()):
            with pytest.raises(ValueError, match="a gram of shape"):
                upper_certificate(x, 10.0, dataclasses.replace(res, gram=bad))
        with pytest.raises(ValueError, match="has 12 values"):  # X's spectrum, one column short
            upper_certificate(x[:, :-1], 10.0, dataclasses.replace(res, gram=None))

    def test_returned_gram_is_read_only(self):
        # The certificate takes a partial minor's values from spectrum.gram with no check
        # against X, so an edit in place of full_svd's G would change minor_smin silently.
        x = self._x()
        res = full_svd(x)
        report = upper_certificate(x, 4.0, res)
        assert 2 <= report.column_count < x.shape[1]
        with pytest.raises(ValueError, match="read-only"):
            res.gram[5, 5] *= 1.5
        with pytest.raises(TypeError, match="writeable"):  # LAPACK would write past the flag
            spectra._minor_extremes(x, np.arange(x.shape[1]), res.gram)
        assert np.array_equal(res.gram, x.T @ x)
        assert upper_certificate(x, 4.0, res) == report

    def test_minor_values_from_gram_without_einsum(self, monkeypatch):
        # Both diagonal tests, X's and the minor's, read diag(G): no pass over X computes it.
        x = self._x()
        gram = full_svd(x).gram
        cols = np.array([0, 2, 3, 5, 8, 9, 11])
        g_jj = gram[np.ix_(cols, cols)]
        w = np.linalg.eigvalsh(g_jj)

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr(np, "einsum", no_einsum)
        assert spectra._minor_extremes(x, cols, g_jj) == (float(np.sqrt(w[0])), float(np.sqrt(w[-1])))
        assert np.array_equal(g_jj, gram[np.ix_(cols, cols)])  # reduced in place, then restored
        assert np.array_equal(full_svd(x).gram, gram)

    def test_eigensolver_failure_takes_gesdd(self, monkeypatch):
        # dsterf reports no convergence, so eigh of G stands in; when eigh does
        # not converge either, the R route runs.
        x = self._x()
        real_call = _lapack._call
        monkeypatch.setattr(_lapack, "_call",
                            lambda name, *args: 1 if name == "dsterf" else real_call(name, *args))
        res = full_svd(x, k_bottom=2)
        assert res.method == "gram"
        assert np.array_equal(res.singular_values, np.sqrt(np.linalg.eigh(x.T @ x)[0][::-1]))

        def not_converging(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", not_converging)
        res = full_svd(x, k_bottom=2)
        assert res.method == "gesdd" and res.gram is None
        s = np.linalg.svd(x, compute_uv=False)
        assert np.abs(res.singular_values - s).max() <= 1e-12 * s[0]
        assert res.residuals.max() <= 1e-10 * s[0] ** 2


class TestGesddFallback:
    """The gesdd route decomposes X's n x n R factor, never X itself: QR, then R's bidiagonal
    reduction in the same working copy of X, and gesdd of R where a vector fails."""

    @pytest.mark.parametrize("aspect", [1.2, 3.0])
    def test_svd_of_r_only(self, monkeypatch, aspect):
        # Pareto(0.3) matrices that neither the rule nor the enclosure resolves.
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.3)
        real_svd = np.linalg.svd
        real_call = _lapack._call
        for seed in (0, 1, 5):
            x = sample_matrix(EnsembleConfig(n=40, aspect=aspect, law=law, seed=seed))
            sizes = {"dgeqrf": set(), "dgebrd": set()}

            def recording(name, *args):
                if name in sizes:
                    sizes[name].add(args[:2])  # M, N
                return real_call(name, *args)

            monkeypatch.setattr(_lapack, "_call", recording)
            monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("gesdd called"))
            monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: pytest.fail("np.linalg.qr called"))
            res = full_svd(x, k_bottom=3)
            monkeypatch.undo()
            assert res.method == "gesdd"
            assert sizes["dgeqrf"] == {x.shape} and sizes["dgebrd"] == {(40, 40)}

            _, s, vt = real_svd(x, full_matrices=False)
            tol = 1e-12 * s[0]
            assert np.abs(res.singular_values - s).max() <= tol
            # Vectors are compared through X: a near-tie lets their entries move
            # by more than the values do, while ||X (v - v_ref)|| stays at s-level.
            ref = np.array([vt[39], vt[38], vt[37], vt[0]])
            ref *= np.sign(ref[np.arange(4), np.abs(ref).argmax(axis=1)])[:, None]
            got = np.vstack([res.bottom_right_vectors, res.top_right_vector])
            assert np.linalg.norm(x @ (got - ref).T, axis=0).max() <= tol

    def test_perturbed_vector_takes_gesdd_of_r(self, monkeypatch):
        # gesdd of R supplies the vectors only; the values stay dbdsqr's.
        x = _r_route_matrix()
        kernel_values = _lapack.bidiagonal(x)[0]
        _spy_vectors(monkeypatch, "bidiagonal",
                     lambda p, v: v + 1e-3 * np.linspace(-1.0, 1.0, v.size) if p == 0 else v)
        res = full_svd(x, k_bottom=2)
        _, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r"))
        want = [vt[-1], vt[-2], vt[0]]
        want = [v if v[np.abs(v).argmax()] > 0 else -v for v in want]
        assert res.method == "gesdd"
        assert np.array_equal(res.singular_values, kernel_values)
        assert np.abs(s - kernel_values).max() <= 1e-12 * s[0]
        assert np.array_equal(np.vstack([res.bottom_right_vectors, res.top_right_vector]), want)

    def test_alpha_tenth_s_min_does_not_depend_on_k(self):
        # From k = 20 on one kept vector fails its check. gesdd of R then supplies the
        # vectors alone, checked at dbdsqr's values, so s_min stays dbdsqr's; its own
        # value was 3.9e49, at least 4.6e27 times too high. Bottom vector 1 is gesdd's
        # from k = 20 on, so it differs from the k = 1 vector there.
        # (On SkylakeX kernels s_min reads 4985793.355872099 for every k; the kernel set
        # moves it, since R has already lost s_min at alpha = 0.1.)
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.1)
        x = sample_matrix(EnsembleConfig(n=200, aspect=2.0, law=law, seed=200))
        one = full_svd(x, k_bottom=1)
        for k in (5, 20, 55, 200):
            res = full_svd(x, k_bottom=k)
            assert res.method == one.method == "gesdd"
            assert np.array_equal(res.singular_values, one.singular_values)

    def test_alpha_tenth_keeps_the_kernel_value(self, monkeypatch):
        # Base seed 11, alpha = 0.1, n = 40, trial 0: the kernel's vectors pass their
        # check at dbdsqr's own values, so gesdd of R never runs, and dbdsqr's s_min
        # matches a 300-digit SVD.
        mpmath = pytest.importorskip("mpmath")
        x = _alpha_tenth_matrix()
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("gesdd called"))
        res = full_svd(x, k_bottom=2)
        assert res.method == "gesdd"
        with mpmath.workdps(300):
            ref = min(mpmath.svd_r(mpmath.matrix(x.tolist()), compute_uv=False))
            assert abs(res.s_min - ref) <= 1e-6 * ref


class TestEnclosure:
    """The scaled Kato-Temple enclosure of lambda_min(X^T X) that keeps rule-failing matrices
    on the gram route, called directly so it runs where the route does not take it too: on
    matrices that pass the rule, and so never reach it, as on those that fail it."""

    @given(alpha=st.floats(0.5, 5.0), n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
    def test_enclosure_holds(self, alpha, n, seed):
        mpmath = pytest.importorskip("mpmath")
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
        x = sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))
        found = _enclose(x)
        assume(found is not None)
        lo, hi, rho, u = found
        assert lo <= rho <= hi and np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        with mpmath.workdps(50):
            a = mpmath.matrix(x.tolist())
            lam = min(mpmath.eigsy(a.T * a, eigvals_only=True))
            assert mpmath.mpf(lo) <= lam <= mpmath.mpf(hi)

    def test_near_tie_has_no_gap(self):
        # Orthogonal columns of norms 1e5, 7, 5, 3, 1 + 1e-12 and 1: the diagonal fails
        # the rule, the floor holds (X^T X scaled is the identity up to rounding), but
        # lambda_2 / lambda_1 - 1 = 2e-12 leaves no gap the proof can carry, so the R route runs.
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((12, 6)))
        x = q * np.array([1e5, 7.0, 5.0, 3.0, 1.0 + 1e-12, 1.0])
        g = _lapack.gram(x)
        assert _lapack.cholesky(g, *spectra._floor_terms(g, x.shape[0])[:2])
        assert _enclose(x, floor_proven=True) is None
        res = full_svd(x)
        assert res.method == "gesdd"
        assert res.s_min == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("scales", [[1e-150, 1.0, 1.0, 1.0], [1e-150] * 4])
    def test_underflow_takes_r_route(self, monkeypatch, scales):
        # Below tiny / eps, a product that underflows can miss the rounding bounds, so
        # no Cholesky runs. First a column of norm 1e-150 (G_11 near 1e-300): the
        # diagonal fails the rule. Then every column scaled alike, kappa = 5e4: the
        # diagonal passes, the eigenvalues fail, and rho is near 1e-308.
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        x = np.vstack([np.diag([5.0, 3.0, 2.0, 1e-4]) @ h, np.zeros((2, 4))]) * scales
        calls = []
        real_call = _lapack._call
        monkeypatch.setattr(_lapack, "_call", lambda name, *args: (calls.append(name), real_call(name, *args))[1])
        res = full_svd(x)
        assert res.method == "gesdd" and "dpotrf" not in calls

    def test_refinement_keeps_the_gram_route(self, monkeypatch):
        # Pareto(0.5), n = 40, seed 1: the kernel's vector leaves the enclosure wider
        # than the limit, one inverse-iteration step (a dpotrs with the factor of
        # S (G - sigma I) S) narrows it, and s_min keeps its promise.
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.5)
        x = sample_matrix(EnsembleConfig(n=40, aspect=2.0, law=law, seed=1))
        calls = []
        real_call = _lapack._call
        monkeypatch.setattr(_lapack, "_call", lambda name, *args: (calls.append(name), real_call(name, *args))[1])
        res = full_svd(x)
        assert _fails_rule(x) and res.method == "gram" and calls.count("dpotrs") == 1
        ref = scipy.linalg.svd(x, compute_uv=False, lapack_driver="gesvd")[-1]
        assert abs(res.s_min - ref) <= GRAM_COND_LIMIT / 2 * ref

    def test_reported_s_min_keeps_the_promise(self):
        # Rule-failing matrices on the gram route: s_min within GRAM_COND_LIMIT / 2 of gesvd's.
        for x in [_enclosed_matrix(), _enclosed_matrix(seed=6)]:
            res = full_svd(x, k_bottom=2)
            assert _fails_rule(x) and res.method == "gram"
            ref = scipy.linalg.svd(x, compute_uv=False, lapack_driver="gesvd")[-1]
            assert abs(res.s_min - ref) <= GRAM_COND_LIMIT / 2 * ref


class TestGesvdOracle:
    @given(
        alpha=st.floats(0.5, 5.0),
        n=st.integers(3, 60),
        aspect=st.floats(1.2, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extremes_match_gesvd(self, alpha, n, aspect, seed):
        # gesvd is a LAPACK driver that neither route of full_svd calls.
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
        x = sample_matrix(EnsembleConfig(n=n, aspect=aspect, law=law, seed=seed))
        res = full_svd(x)
        oracle = scipy.linalg.svd(x, compute_uv=False, lapack_driver="gesvd")
        o_min, o_top = float(oracle[-1]), float(oracle[0])
        assert abs(res.s_min - o_min) <= 1e-11 * o_top
        assert abs(res.s_top - o_top) <= 1e-11 * o_top
        if res.method == "gram":
            assert res.s_min == pytest.approx(o_min, rel=1e-8)


class TestMinor:
    def test_hand_minor(self):
        # Columns 0 and 1 stay below tau = 5; their minor is diag(3, 4) padded.
        x = np.array([[3.0, 0.0, 9.0], [0.0, 4.0, 9.0], [0.0, 0.0, 9.0], [0.0, 0.0, 9.0]])
        res = full_svd(x)
        rep = upper_certificate(x, 5.0, res)
        assert rep.columns == [0, 1]
        assert rep.minor_op_norm == 4.0
        assert rep.minor_smin == 3.0
        assert rep.certified_upper == 3.0


class TestOperatorNorm:
    def test_matches_lapack_on_randoms(self):
        for x in _random_matrices(10):
            want = float(np.linalg.norm(x, 2))
            got = operator_norm(x)
            assert got == pytest.approx(want, rel=1e-8)

    def test_wide_matrix(self, rng):
        x = rng.standard_normal((4, 30))
        assert operator_norm(x) == pytest.approx(float(np.linalg.norm(x, 2)), rel=1e-8)

    def test_ones_in_kernel(self):
        x = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert operator_norm(x) == pytest.approx(2.0, rel=1e-9)

    def test_ones_is_bottom_eigenvector(self):
        # all-ones start converges to the small eigenvalue; the restart from
        # the biggest column must recover the true norm
        x = np.array([[1.5, -0.5], [-0.5, 1.5]])
        assert operator_norm(x) == pytest.approx(2.0, rel=1e-9)

    def test_single_column_and_zero(self):
        assert operator_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0, rel=1e-12)
        assert operator_norm(np.zeros((3, 2))) == 0.0

    def test_rank_one_exact(self):
        u = np.array([1.0, 2.0, 2.0])[:, None]
        v = np.array([[3.0, 4.0]])
        assert operator_norm(u @ v) == pytest.approx(15.0, rel=1e-10)
