"""Certificate soundness, cutoff algebra, window split, diagnostics."""
import math

import numpy as np
import pytest

from svlab.certificates import (
    default_tau,
    default_tau_for_rows,
    empirical_concentration,
    epsilon_from_log_target,
    heavy_census,
    minimal_window_bound,
    seginer_diagnostic,
    small_column_set,
    sparse_norm_diagnostic,
    truncate_recenter,
    upper_certificate,
    window_split,
)
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from svlab.spectra import full_svd


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
            assert default_tau(n, alpha, aspect, b, a, cu) == pytest.approx(route2, rel=1e-12)

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


class TestSmallColumns:
    def test_hand_case(self):
        x = np.array([[1.0, 5.0], [2.0, 0.5]])
        assert list(small_column_set(x, 2.0)) == [0]
        assert list(small_column_set(x, 5.0)) == [0, 1]  # inclusive cutoff
        assert list(small_column_set(x, 0.5)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            small_column_set(np.ones((2, 2)), 0.0)


class TestUpperCertificate:
    def test_sound_on_heavy_matrices(self):
        for i, alpha in enumerate([0.8, 1.2, 1.5]):
            x = _heavy(60, alpha, seed=400 + i)
            tau = default_tau(60, alpha, 2.0)
            rep = upper_certificate(x, tau)
            assert rep.valid
            assert rep.certified_upper == min(rep.minor_op_norm, rep.minor_smin)
            assert rep.certified_upper >= rep.observed_smin - 1e-9 * full_svd(x).s_top
            assert rep.column_count == len(rep.columns)

    def test_observed_passthrough(self):
        x = _heavy(40, 1.2, seed=9)
        res = full_svd(x)
        a = upper_certificate(x, 20.0)
        b = upper_certificate(x, 20.0, observed=(res.s_min, res.s_top))
        assert a.observed_smin == b.observed_smin
        assert a.certified_upper == b.certified_upper

    def test_vacuous_when_no_columns(self):
        x = _heavy(20, 1.0, seed=2)
        rep = upper_certificate(x, 1e-9)
        assert not rep.valid
        assert rep.column_count == 0
        assert math.isinf(rep.certified_upper)
        assert "vacuous" in rep.note

    def test_single_column_minor(self):
        x = np.array([[1.0, 10.0], [2.0, 10.0], [2.0, -10.0]])
        rep = upper_certificate(x, 2.0)  # only column 0 qualifies
        assert rep.columns == [0]
        assert rep.minor_smin == rep.minor_op_norm == pytest.approx(3.0, rel=1e-12)

    def test_minor_extremes_from_one_svd(self):
        x = _heavy(120, 3.0, seed=21)
        tau = float(x.shape[0]) ** 0.4  # census cutoff, as the sweep uses above alpha = 2
        rep = upper_certificate(x, tau)
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
        assert upper_certificate(x, 2.0).column_count == 1
        assert upper_certificate(x, 20.0).column_count == 3


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


class TestWindowSplit:
    def test_membership_hand_case(self):
        # scale chosen so x_scaled entries are exactly the values below
        alpha, eps_n = 1.0, 0.25
        n_rows = 4
        factor = float(n_rows) ** (-1.0 / alpha + eps_n)
        vals = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 5.0, 7.0, -3.0])
        x = (vals / factor).reshape(n_rows, 2)
        ws = window_split(x, alpha, eps_n, window_max=5.0)
        got = ws.x_window.ravel()
        want = np.array([0.5, 1.0, 0.0, 0.0, 2.5, 5.0, 0.0, -3.0])
        assert np.allclose(got, want, atol=1e-12)
        assert np.array_equal(ws.x_window + ws.x_tail, ws.x_scaled)  # exact partition

    def test_minimal_window_bound_values(self):
        assert minimal_window_bound(1.0) == pytest.approx(4.0, rel=1e-14)
        # alpha=1.5, c_upper/c_lower = 2: (2^2.5 * 2)^(1/1.5)
        assert minimal_window_bound(1.5, 1.0, 2.0) == pytest.approx(
            (2**2.5 * 2) ** (1 / 1.5), rel=1e-14
        )

    def test_inadmissible_window_reports_minimum(self):
        x = np.ones((4, 2))
        with pytest.raises(ValueError, match="need window_max > 4"):
            window_split(x, 1.0, 0.5, window_max=3.0)
        # equality is still inadmissible (strict inequality required)
        with pytest.raises(ValueError):
            window_split(x, 1.0, 0.5, window_max=4.0)
        ws = window_split(x, 1.0, 0.5, window_max=5.0)  # spec default is fine
        assert ws.window_max == 5.0

    def test_epsilon_range(self):
        x = np.ones((4, 2))
        with pytest.raises(ValueError):
            window_split(x, 2.0, 0.6, window_max=50.0)  # eps >= 1/alpha


class TestEpsilonFromLogTarget:
    def test_equality_route(self):
        for n_rows, alpha, cp in [(200, 1.2, 1.0), (5000, 0.8, 2.0)]:
            eps = epsilon_from_log_target(n_rows, alpha, cp)
            assert n_rows ** (alpha * eps) == pytest.approx(cp * math.log(n_rows), rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            epsilon_from_log_target(100, 1.0, 0.1)  # 0.1 * ln(100) < 1
        with pytest.raises(ValueError):
            epsilon_from_log_target(2, 1.0, 1.0)


class TestSparseNormDiagnostic:
    def test_reference_scale(self):
        x = _heavy(40, 1.2, seed=8)
        eps = epsilon_from_log_target(80, 1.2)
        ws = window_split(x, 1.2, eps, 5.0)
        d = sparse_norm_diagnostic(ws)
        assert d.reference_scale == pytest.approx(80 ** (1.2 * eps / 2), rel=1e-12)
        assert d.ratio == pytest.approx(d.window_norm / d.reference_scale, rel=1e-12)
        assert d.in_regime

    def test_out_of_regime_flag(self):
        x = _heavy(40, 1.2, seed=8)
        ws = window_split(x, 1.2, 0.01, 5.0)  # tiny eps: density below log target
        assert not sparse_norm_diagnostic(ws, c_prime=1.0).in_regime


class TestSeginer:
    def test_single_heavy_column(self):
        x = np.zeros((5, 3))
        x[:, 1] = 2.0
        d = seginer_diagnostic(x)
        assert d.max_col_norm == pytest.approx(2 * math.sqrt(5), rel=1e-12)
        assert d.ratio == pytest.approx(1.0, rel=1e-10)

    def test_ratio_at_least_one(self):
        for seed in range(5):
            x = _heavy(30, 1.0, seed=seed)
            assert seginer_diagnostic(x).ratio >= 1 - 1e-9


class TestTruncateRecenter:
    def test_bounded_entries_and_moment(self):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=3.0)
        x = sample_matrix(EnsembleConfig(n=50, aspect=2.0, law=law, seed=21))
        xt, theta2 = truncate_recenter(x, 2.0, law)
        assert float(np.abs(xt).max()) <= 2.0
        assert theta2 == pytest.approx(1.5, rel=1e-12)  # closed form for this law
        # zeroed entries are exactly the ones above the cutoff
        assert np.array_equal(xt == 0.0, np.abs(x) > 2.0)

    def test_infinite_moment_below_two(self):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5)
        _, theta2 = truncate_recenter(np.ones((3, 2)), 5.0, law)
        assert math.isinf(theta2)


class TestEmpiricalConcentration:
    def test_point_mass(self):
        assert empirical_concentration(np.zeros(500), 0.1) == 1.0

    def test_two_atoms(self):
        s = np.array([-1.0, 1.0] * 200)
        assert empirical_concentration(s, 0.5) == 0.5
        assert empirical_concentration(s, 2.5) == 1.0

    def test_uniform_window(self):
        rng = np.random.default_rng(15)
        s = rng.uniform(0, 1, 20_000)
        q = empirical_concentration(s, 0.05)
        assert 0.09 <= q <= 0.13  # window width 0.1, plus max bias

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(16)
        s = rng.standard_normal(300)
        t = 0.3
        brute = max(np.sum(np.abs(s - c) <= t) for c in s) / s.size
        assert empirical_concentration(s, t) == brute

    def test_sample_size_guard(self):
        with pytest.raises(ValueError):
            empirical_concentration(np.zeros(99), 0.1)
