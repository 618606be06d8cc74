"""Certificate soundness, cutoff algebra, heavy-entry census."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import svlab.certificates as certificates
from svlab import _lapack, spectra
from svlab.certificates import (
    census_cutoff,
    certificate_cutoff,
    default_tau_for_rows,
    heavy_census,
    small_column_set,
    upper_certificate,
)
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from svlab.experiments import SweepConfig, run_trial
from svlab.spectra import SpectralError, full_svd


def _certify(x, tau):
    return upper_certificate(x, tau, full_svd(x))


def _minor_factors(x, cols, g_jj):
    """(s, rows, residuals, route, G) of X_J = x[:, cols] through full_svd's routes on a copy of
    g_jj = G[J, J], keeping bottom vector 1 and the top one as full_svd does. No value depends on
    how many vectors are kept, so s is bit for bit the minor's values-only s. G[J, J] sliced from
    X's G need not be bit for bit fl(X_J^T X_J), so full_svd of X_J, which forms its own, is no
    reference for it."""
    cols = np.asarray(cols)
    picks = np.array([0, cols.size - 1])
    return spectra._right_factors(np.take(x, cols, axis=1), picks, g_jj.copy())


def _heavy(n, alpha, seed, aspect=2.0):
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
    return sample_matrix(EnsembleConfig(n=n, aspect=aspect, law=law, seed=seed))


class TestDefaultTau:
    def test_two_algebraic_routes_agree(self):
        # Route used by the implementation: closed form. Independent route:
        # solve for the exponent first, then tau = N**(1/alpha - eps).
        for n, alpha, aspect, b, a, cu in [
            (100, 1.2, 2.0, 0.5, 1.0001, 1.0),
            (400, 0.8, 1.5, 0.5, 1.0001, 1.0),
            (250, 1.5, 3.0, 0.7, 1.1, 0.83),
        ]:
            n_rows = math.ceil(aspect * n)
            eps = math.log(b * math.log(n_rows) / (a * cu)) / (alpha * math.log(n_rows))
            route2 = n_rows ** (1.0 / alpha - eps)
            assert default_tau_for_rows(n_rows, alpha, b, a, cu) == pytest.approx(route2, rel=1e-12)

    def test_exponent_is_positive_in_range(self):
        # the derived eps must satisfy 0 < eps < 1/alpha for the defaults
        n_rows = 200
        tau = default_tau_for_rows(n_rows, 1.2)
        assert 1.0 < tau < n_rows ** (1 / 1.2)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            default_tau_for_rows(10, 1.2, b_frak=0.5, a_frak=1.0, c_upper=10.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            default_tau_for_rows(1000, 2.0)
        with pytest.raises(ValueError):
            default_tau_for_rows(1000, -0.5)


class TestCertificateCutoff:
    def test_auto_below_two(self):
        assert certificate_cutoff(200, 1.2, 1.0) == (default_tau_for_rows(200, 1.2), "")

    def test_census_at_and_above_two(self):
        for alpha in (2.0, 3.0, math.inf):
            assert certificate_cutoff(200, alpha, 1.0) == (200.0**0.4, "finite-variance regime: census cutoff")
        assert certificate_cutoff(200, 3.0, 1.0, census_c=0.2)[0] == 200.0**0.3

    def test_census_without_polynomial_tail(self):
        assert certificate_cutoff(200, 1.2, None)[0] == 200.0**0.4

    def test_census_where_budget_fails(self):
        tau, note = certificate_cutoff(10, 1.2, 10.0, (0.5, 1.0))
        assert tau == 10.0**0.4
        assert note.startswith("auto cutoff infeasible (log budget") and note.endswith("; census cutoff used")

    @pytest.mark.parametrize("alpha, params, c_upper", [
        (0.0, (0.5, 1.0), 1.0), (math.nan, (0.5, 1.0), 1.0), (1.2, (-0.5, 1.0), 1.0),
        (3.0, (0.5, 0.0), 1.0), (1.2, (0.5, 1.0), 0.0),
    ])
    def test_bad_parameters_raise(self, alpha, params, c_upper):
        with pytest.raises(ValueError, match="must be > 0"):
            certificate_cutoff(200, alpha, c_upper, params)


class TestSmallColumns:
    def test_hand_case(self):
        x = np.array([[1.0, 5.0], [2.0, 0.5]])
        assert list(small_column_set(x, 2.0)) == [0]
        assert list(small_column_set(x, 5.0)) == [0, 1]  # inclusive cutoff
        assert list(small_column_set(x, 0.5)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            small_column_set(np.ones((2, 2)), 0.0)


class TestNonFiniteScans:
    """small_column_set and heavy_census reject a non-finite X from the reductions they make:
    the column extremes, and the max of each block of |X|."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (7, 1), (19, 2)])
    def test_nonfinite_raises(self, monkeypatch, bad, where):
        monkeypatch.setattr(certificates, "_CENSUS_BLOCK", 8)  # heavy_census takes |X| 2 rows at a time
        x = np.ones((20, 3))
        x[where] = bad
        with pytest.raises(ValueError, match="finite"):
            small_column_set(x, 2.0)
        with pytest.raises(ValueError, match="finite"):
            heavy_census(x, 0.1)


def _near_cutoff(data, rows, cols, t):
    """A rows x cols matrix of +-0.0, exactly +-t, their neighbours and other values."""
    edge = [0.0, -0.0, t, -t, *(s * np.nextafter(t, e) for s in (1.0, -1.0) for e in (0.0, math.inf))]
    entry = st.one_of(st.sampled_from(edge), st.floats(-10.0, 10.0))
    return np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


class TestAbsFreeScans:
    """small_column_set and heavy_census against their np.abs forms."""

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), tau=st.sampled_from([0.5, 1.0, 2.5]), data=st.data())
    def test_small_column_set(self, rows, cols, tau, data):
        x = _near_cutoff(data, rows, cols, tau)
        assert np.array_equal(small_column_set(x, tau), np.flatnonzero(np.max(np.abs(x), axis=0) <= tau))

    @given(rows=st.integers(2, 40), cols=st.integers(1, 6), c=st.sampled_from([0.05, 0.1, 0.3]), data=st.data())
    def test_heavy_census(self, rows, cols, c, data):
        t = census_cutoff(rows, c)
        x = _near_cutoff(data, rows, cols, t)
        assert heavy_census(x, c) == np.count_nonzero(np.abs(x) > t)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certificates, "_CENSUS_BLOCK", 7)  # blocks of max(1, 7 // cols) rows
            assert heavy_census(x, c) == np.count_nonzero(np.abs(x) > t)


class TestUpperCertificate:
    def test_sound_on_heavy_matrices(self):
        for i, alpha in enumerate([0.8, 1.2, 1.5]):
            x = _heavy(60, alpha, seed=400 + i)
            tau = default_tau_for_rows(x.shape[0], alpha)
            rep = _certify(x, tau)
            assert rep.valid
            assert rep.certified_upper == min(rep.minor_op_norm, rep.minor_smin)
            assert rep.certified_upper >= rep.observed_smin - 1e-9 * full_svd(x).s_top
            assert rep.column_count == len(rep.columns)

    def test_vacuous_when_no_columns(self):
        x = _heavy(20, 1.0, seed=2)
        rep = _certify(x, 1e-9)
        assert not rep.valid
        assert rep.column_count == 0
        assert math.isinf(rep.certified_upper)
        assert "vacuous" in rep.note

    def test_single_column_minor(self):
        x = np.array([[1.0, 10.0], [2.0, 10.0], [2.0, -10.0]])
        rep = _certify(x, 2.0)  # only column 0 qualifies
        assert rep.columns == [0]
        assert rep.minor_smin == rep.minor_op_norm == pytest.approx(3.0, rel=1e-12)

    def test_minor_extremes_from_one_svd(self):
        x = _heavy(120, 3.0, seed=21)
        tau = float(x.shape[0]) ** 0.4  # census cutoff, as the sweep uses above alpha = 2
        rep = _certify(x, tau)
        assert rep.column_count >= 0.7 * x.shape[1]  # near-full minor
        ref = float(np.linalg.norm(x[:, rep.columns], 2))
        assert rep.minor_op_norm == pytest.approx(ref, rel=1e-12)
        assert rep.minor_smin <= rep.minor_op_norm

    def test_power_iteration_not_reached(self, monkeypatch):
        import svlab.certificates as certificates

        def unreachable(*args, **kwargs):
            raise AssertionError("operator_norm called from upper_certificate")

        monkeypatch.setattr(certificates, "operator_norm", unreachable)
        x = np.array([[1.0, 10.0, 3.0], [2.0, 10.0, -4.0], [2.0, -10.0, 1.0], [0.5, 1.0, 2.0]])
        assert _certify(x, 2.0).column_count == 1
        assert _certify(x, 20.0).column_count == 3


class TestAllColumnsMinor:
    """When every column is below tau, X_J is X and its caller's spectrum is reused."""

    @pytest.fixture
    def no_minor_svd(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the minor was decomposed")

        monkeypatch.setattr(certificates, "_minor_extremes", unreachable)

    def test_extremes_are_observed(self, no_minor_svd):
        x = np.array([[3.0, 1.0, 0.5], [1.0, -2.0, 1.5], [0.0, 1.0, 2.0], [1.0, 1.0, -1.0]])
        res = full_svd(x)
        rep = upper_certificate(x, 4.0, res)
        assert rep.columns == [0, 1, 2] and rep.column_count == 3
        assert rep.minor_smin == rep.certified_upper == rep.observed_smin == res.s_min
        assert rep.minor_op_norm == res.s_top
        assert rep.valid and rep.note == ""

    def test_sweep_cell_matches_explicit_minor(self, minor_svds):
        # alpha = 5, n = 24: trial 1 keeps every column below the census cutoff;
        # trial 0 drops one, and its minor's values come from G[J, J].
        config = SweepConfig(alphas=(5.0,), ns=(24,), aspect=2.0, trials_per_cell=2,
                             base_seed=4, k_vectors=2, c_grid=(1.0,), epsilons=(0.1,))
        for trial, exact in [(1, True), (0, False)]:
            minor_svds.clear()
            rec = run_trial(config, 5.0, 24, trial)
            cert = rec.certificate
            assert (cert["column_count"] == 24) is exact and cert["column_count"] >= 2
            assert minor_svds == ([] if exact else [((rec.n_rows, cert["column_count"]), True)])
            x = sample_matrix(EnsembleConfig(n=24, aspect=2.0, law=config.law_for(5.0), seed=rec.seed))
            ref = full_svd(x[:, cert["columns"]], k_bottom=1)
            assert cert["minor_smin"] == cert["certified_upper"]
            if exact:
                assert cert["minor_smin"] == ref.s_min and cert["minor_op_norm"] == ref.s_top
            assert cert["minor_smin"] == pytest.approx(ref.s_min, rel=1e-12, abs=0)
            assert cert["minor_op_norm"] == pytest.approx(ref.s_top, rel=1e-12, abs=0)
            assert cert["valid"]


@pytest.fixture
def minor_svds(monkeypatch):
    """Records the decompositions upper_certificate makes of a minor: its shape, and whether
    G[J, J] was passed."""
    calls = []
    real = certificates._minor_extremes

    def counting(x, cols, gram):
        calls.append(((x.shape[0], cols.size), gram is not None))
        return real(x, cols, gram)

    monkeypatch.setattr(certificates, "_minor_extremes", counting)
    return calls


class TestGramMinor:
    """A partial minor's extremes come from G[J, J] = X_J^T X_J, checked against X."""

    @given(alpha=st.floats(0.8, 5.0), n=st.integers(3, 60), seed=st.integers(0, 2**32))
    def test_matches_full_svd_of_minor(self, alpha, n, seed):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha, normalize_variance=alpha > 2.0)
        x = sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))
        tau, _ = certificate_cutoff(x.shape[0], alpha, law.tail_bounds.c_upper)
        res = full_svd(x)
        from_g = upper_certificate(x, tau, res)
        own = upper_certificate(x, tau, dataclasses.replace(res, gram=None))
        assert from_g.columns == own.columns and from_g.valid == own.valid
        for got, ref in [(from_g.minor_smin, own.minor_smin), (from_g.minor_op_norm, own.minor_op_norm)]:
            assert got == pytest.approx(ref, rel=1e-12, abs=0) or got == ref == math.inf
        assert from_g.certified_upper == from_g.minor_smin

    def _certify_minor(self, x, tau, gram, minor_svds):
        res = full_svd(x)
        rep = upper_certificate(x, tau, dataclasses.replace(res, gram=gram))
        assert 2 <= rep.column_count < x.shape[1]
        assert minor_svds == [((x.shape[0], rep.column_count), gram is not None)]
        return rep

    def test_gesdd_route_has_no_gram(self, minor_svds):
        # Column scales 1 to 1e6 fail the rule on diag(G), and columns 0 and 3 agree to
        # 1e-9 after scaling, which the enclosure cannot resolve, so X goes through gesdd.
        x = np.random.default_rng(5).standard_normal((12, 4)) * np.array([1.0, 3.0, 1e6, 2.0])
        x[:, 3] = 2.0 * x[:, 0] + 1e-9 * x[:, 1]
        res = full_svd(x)
        assert res.method == "gesdd" and res.gram is None
        rep = self._certify_minor(x, 10.0, res.gram, minor_svds)
        ref = full_svd(x[:, rep.columns], k_bottom=1)
        assert (rep.minor_smin, rep.minor_op_norm) == (ref.s_min, ref.s_top)

    def test_minor_rule_fails(self, minor_svds):
        # Columns 0 and 1 differ by 1e-7, so G[J, J] cannot resolve the minor's s_min.
        rng = np.random.default_rng(6)
        a, b = rng.uniform(-1, 1, (2, 10))
        x = np.column_stack([a, a + 1e-7 * b, 50.0 + rng.uniform(0, 1, 10)])
        gram = x.T @ x
        assert _minor_factors(x, [0, 1], gram[:2, :2])[3] == "gesdd"
        rep = self._certify_minor(x, 10.0, gram, minor_svds)
        ref = full_svd(x[:, rep.columns], k_bottom=1)
        assert (rep.minor_smin, rep.minor_op_norm) == (ref.s_min, ref.s_top)

    def test_diagonal_minor_is_exact(self, minor_svds, monkeypatch):
        # diag(3, 4, 9) over a zero row: G[J, J] = diag(9, 16) is its own
        # tridiagonal form and splits into 1 x 1 blocks, so the gram kernel
        # returns the exact values and unit vectors without eigh.
        x = np.vstack([np.diag([3.0, 4.0, 9.0]), np.zeros((1, 3))])
        res = full_svd(x)
        assert res.method == "gram"
        monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh called"))
        s, rows, _, route, _ = _minor_factors(x, [0, 1], res.gram[:2, :2])
        assert route == "gram"
        assert s.tolist() == [4.0, 3.0]
        assert rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        rep = self._certify_minor(x, 5.0, res.gram, minor_svds)
        assert (rep.minor_smin, rep.minor_op_norm) == (3.0, 4.0)

    def test_perturbed_gram_fails_residual_from_x(self, minor_svds):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 10))
        x[0, 9] = 100.0  # only column 9 exceeds tau
        res = full_svd(x)
        cols = np.arange(9)
        assert _minor_factors(x, cols, res.gram[np.ix_(cols, cols)])[3] == "gram"
        bad = res.gram.copy()
        bad[3, 3] *= 1.5  # one entry; the eigenvalues still pass the rule
        # The routes check kept vectors against X, so a G that is not X^T X fails the eigh
        # fallback too. The certificate keeps no vector of the minor, so nothing checks its
        # values against X: it trusts spectrum.gram as full_svd returned it.
        with pytest.raises(SpectralError, match="^residual"):
            _minor_factors(x, cols, bad[np.ix_(cols, cols)])
        rep = upper_certificate(x, 10.0, dataclasses.replace(res, gram=bad))
        assert minor_svds == [((40, 9), True)]
        assert rep.minor_smin == float(np.sqrt(np.linalg.eigvalsh(bad[np.ix_(cols, cols)])[0]))


class TestValuesOnlyMinor:
    """A partial minor's s_min and s_top come from G[J, J] with no vector kept, bit for bit
    what the same routes report with vectors kept, and X_J is copied only where its route
    reads it."""

    @staticmethod
    def _trial(alpha, n, seed=11):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha, normalize_variance=alpha > 2.0)
        x = sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))
        tau, _ = certificate_cutoff(x.shape[0], alpha, law.tail_bounds.c_upper)
        return x, tau

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 2.5, 3.0])
    @pytest.mark.parametrize("n", [40, 200])
    def test_matches_full_svd_of_minor(self, alpha, n):
        # alpha = 0.3 and 0.8 put X itself on the R route or the enclosure, so spectrum.gram
        # is None on some of them; the minor then forms its own G from X_J, as full_svd does.
        x, tau = self._trial(alpha, n)
        res = full_svd(x)
        for spectrum in (res, dataclasses.replace(res, gram=None)):
            rep = upper_certificate(x, tau, spectrum)
            cols = np.asarray(rep.columns)
            if not 2 <= cols.size < n:
                continue
            if spectrum.gram is None:
                ref = full_svd(np.take(x, cols, axis=1)).singular_values
            else:
                ref = _minor_factors(x, cols, spectrum.gram[np.ix_(cols, cols)])[0]
            assert (rep.minor_smin, rep.minor_op_norm) == (ref[-1], ref[0])
            assert rep.certified_upper == rep.minor_smin
        if alpha > 2.0:
            assert res.method == "gram" and 2 <= upper_certificate(x, tau, res).column_count < n

    def test_rule_path_copies_no_minor(self):
        # G[J, J] passes the rule, so no step reads X_J: the call holds G[J, J] (made by
        # the caller), dsytrd's m * nb workspace, the m x 64 panels that restore G[J, J]
        # and vectors of length m, and never an N x m array.
        x, tau = self._trial(3.0, 400)
        res = full_svd(x)
        cols = small_column_set(x, tau)
        m, rows = cols.size, x.shape[0]
        gram = res.gram[np.ix_(cols, cols)]
        before = gram.copy()
        w = np.linalg.eigvalsh(gram)
        assert np.finfo(float).eps * w[-1] <= 1e-8 * w[0] and 2 <= m < x.shape[1]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = certificates._minor_extremes(x, cols, gram)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * 256 < 8 * rows * m
        assert np.array_equal(gram, before)  # reduced in place, then restored
        s = _minor_factors(x, cols, before)[0]
        assert got == (s[-1], s[0])

    @staticmethod
    def _lapack_calls(monkeypatch):
        calls = []
        real_call = _lapack._call
        monkeypatch.setattr(_lapack, "_call", lambda name, *args: (calls.append(name), real_call(name, *args))[1])
        return calls

    def test_enclosed_minor_keeps_no_vector(self, monkeypatch, minor_svds):
        # The minor is the first four columns, rotated so their norms agree (the diagonal
        # passes the rule) with singular values 5, 3, 2 and 1e-4 (its eigenvalues fail it);
        # column 4 exceeds tau. The enclosure proves the minor's s_min from bottom vector 1
        # alone, after one reduction of G[J, J]: no other vector is back-transformed.
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        x = np.zeros((7, 5))
        x[:4, :4] = np.diag([5.0, 3.0, 2.0, 1e-4]) @ h
        x[6, 4] = 100.0
        gram = x.T @ x
        s, _, _, route, _ = _minor_factors(x, np.arange(4), gram[:4, :4])
        assert route == "gram"
        calls = self._lapack_calls(monkeypatch)
        rep = upper_certificate(x, 10.0, dataclasses.replace(full_svd(x), gram=gram))
        assert minor_svds == [((7, 4), True)]
        assert calls[-7:] == ["dsytrd", "dsytrd", "dsterf", "dstein", "dormtr", "dpotrf", "dpotrf"]
        assert (rep.minor_smin, rep.minor_op_norm) == (s[-1], s[0])

    def test_rule_failing_minor_reaches_r_route(self, monkeypatch, minor_svds):
        # Columns 0 and 1 differ by 1e-7: G[J, J] is reduced once, its eigenvalues fail the
        # rule and the enclosure rejects it, so the R route decomposes the copy of X_J.
        rng = np.random.default_rng(6)
        a, b = rng.uniform(-1, 1, (2, 10))
        x = np.column_stack([a, a + 1e-7 * b, 50.0 + rng.uniform(0, 1, 10)])
        gram = x.T @ x
        s, _, _, route, _ = _minor_factors(x, [0, 1], gram[:2, :2])
        assert route == "gesdd"
        spectrum = dataclasses.replace(full_svd(x), gram=gram)
        calls = self._lapack_calls(monkeypatch)
        rep = upper_certificate(x, 10.0, spectrum)
        assert minor_svds == [((10, 2), True)]
        assert calls.count("dsytrd") == 2 and "dgeqrf" in calls
        assert (rep.minor_smin, rep.minor_op_norm) == (s[-1], s[0])


class TestHeavyCensus:
    def test_hand_case(self):
        x = np.zeros((100, 2))
        x[0, 0] = 7.0
        x[1, 1] = -10.0
        x[2, 0] = 6.0  # below 100**0.4 = 6.31
        assert heavy_census(x, 0.1) == 2

    def test_monotone_in_c(self):
        x = _heavy(50, 1.0, seed=33)
        counts = [heavy_census(x, c) for c in (0.05, 0.2, 0.4)]
        assert counts == sorted(counts)

    def test_c_range(self):
        with pytest.raises(ValueError):
            heavy_census(np.ones((2, 2)), 0.5)
