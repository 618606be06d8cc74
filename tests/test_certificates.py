"""Certificate soundness, cutoff algebra, heavy-entry census."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        import svlab.certificates as certificates

        def unreachable(*args, **kwargs):
            raise AssertionError("full_svd called on the minor")

        monkeypatch.setattr(certificates, "full_svd", unreachable)

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
        # trial 0 drops one, and its minor takes one full_svd given G[J, J].
        config = SweepConfig(alphas=(5.0,), ns=(24,), aspect=2.0, trials_per_cell=2,
                             base_seed=7, k_vectors=2, c_grid=(1.0,), epsilons=(0.1,))
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
    """Records the full_svd calls upper_certificate makes on a minor: shape, and whether a gram was passed."""
    import svlab.certificates as certificates

    calls = []

    def counting(x, k_bottom=1, gram=None):
        calls.append((x.shape, gram is not None))
        return full_svd(x, k_bottom=k_bottom, gram=gram)

    monkeypatch.setattr(certificates, "full_svd", counting)
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
        assert full_svd(x[:, :2], gram=gram[:2, :2]).method == "gesdd"
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
        minor = full_svd(x[:, :2], gram=res.gram[:2, :2], k_bottom=2)
        assert minor.method == "gram"
        assert minor.singular_values.tolist() == [4.0, 3.0]
        assert minor.bottom_right_vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        rep = self._certify_minor(x, 5.0, res.gram, minor_svds)
        assert (rep.minor_smin, rep.minor_op_norm) == (3.0, 4.0)

    def test_perturbed_gram_fails_residual_from_x(self, minor_svds):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 10))
        x[0, 9] = 100.0  # only column 9 exceeds tau
        res = full_svd(x)
        cols = np.arange(9)
        assert full_svd(x[:, cols], gram=res.gram[np.ix_(cols, cols)]).method == "gram"
        bad = res.gram.copy()
        bad[3, 3] *= 1.5  # one entry; the eigenvalues still pass the rule
        # The checks run against X, so a G that is not X^T X fails the eigh fallback too.
        with pytest.raises(SpectralError, match="^residual"):
            upper_certificate(x, 10.0, dataclasses.replace(res, gram=bad))
        assert minor_svds == [((40, 9), True)]


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
