"""Certificate soundness, cutoff algebra, heavy-entry census."""
import math

import numpy as np
import pytest

from svlab.certificates import (
    default_tau_for_rows,
    heavy_census,
    small_column_set,
    upper_certificate,
)
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from svlab.spectra import full_svd


def _certify(x, tau):
    res = full_svd(x)
    return upper_certificate(x, tau, observed=(res.s_min, res.s_top))


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
