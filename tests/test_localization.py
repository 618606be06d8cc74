"""Mass statistics: hand values, brute-force subset oracle, invariants."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_unit
from svlab.localization import (
    cardinality_bound,
    ipr,
    localization_report,
    min_mass_profile,
    subset_mass,
    threshold_set,
    top_mass,
)

unit_vectors = st.integers(3, 40).flatmap(
    lambda n: st.lists(
        st.floats(-1.0, 1.0, allow_nan=False).filter(lambda v: abs(v) > 1e-12 or v == 0.0),
        min_size=n,
        max_size=n,
    )
).map(lambda vals: np.asarray(vals))


def _as_unit(vals: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vals)
    assume(norm > 1e-6)
    return vals / norm


class TestHandValues:
    def test_flat_vector_has_empty_threshold_set(self):
        u = np.full(100, 0.1)
        # threshold sqrt(ln(100)/100) ~ 0.2146 > 0.1
        assert threshold_set(u, 1.0).size == 0

    def test_spike_vector(self):
        u = np.zeros(100)
        u[7] = 1.0
        assert list(threshold_set(u, 1.0)) == [7]
        assert subset_mass(u, threshold_set(u, 1.0)) == 1.0

    def test_cardinality_bound_value(self):
        assert cardinality_bound(1.0, 100) == pytest.approx(100 / math.log(100), rel=1e-14)
        assert cardinality_bound(4.0, 100) == pytest.approx(25 / math.log(100), rel=1e-14)

    def test_ipr_extremes(self):
        assert ipr(np.full(100, 0.1)) == pytest.approx(0.01, rel=1e-12)
        spike = np.zeros(10)
        spike[3] = 1.0
        assert ipr(spike) == 1.0

    def test_profile_keeps_smallest(self):
        u = np.zeros(100)
        u[:4] = 0.5
        # eps = 0.05 keeps ceil(95) = 95 smallest: all zeros
        assert min_mass_profile(u, [0.05])[0][1] == 0.0
        # eps = 0.01 keeps 99 coordinates: three of the spikes hmm, 99 smallest
        # include 3 of the four 0.5 spikes: mass sqrt(0.75)
        assert min_mass_profile(u, [0.01])[0][1] == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_keep_count_absorbs_float_error(self):
        # 0.9 * 400 = 360.00000000000006 in doubles; must keep 360, not 361
        u = np.concatenate([np.full(40, 1.0), np.full(360, 1e-3)])
        u = u / np.linalg.norm(u)
        small = u[-1]
        (eps, mass), = min_mass_profile(u, [0.1])
        assert mass == pytest.approx(small * math.sqrt(360), rel=1e-12)

    def test_top_mass_complement(self):
        u = random_unit(np.random.default_rng(1), 50)
        for m in (1, 10, 49):
            t = top_mass(u, m)
            (_, low), = min_mass_profile(u, [m / 50])  # keeps 50 - m smallest
            assert t + low * low == pytest.approx(1.0, abs=1e-12)


class TestBruteForceOracle:
    def test_min_mass_profile_exact(self):
        rng = np.random.default_rng(20240814)
        eps_grid = [0.1, 0.25, 0.4, 0.6]
        for trial in range(60):
            n = int(rng.integers(4, 10))
            if trial % 5 == 0:
                # equal-magnitude ties exercise the index tie-break
                u = rng.choice([-0.5, 0.5], size=n)
            else:
                u = rng.standard_normal(n)
            u = u / np.linalg.norm(u)
            got = min_mass_profile(u, eps_grid)
            for eps, mass in got:
                m = math.ceil((1 - eps) * n - 1e-9)
                brute = min(
                    subset_mass(u, np.array(comb, dtype=np.intp))
                    for comb in itertools.combinations(range(n), m)
                )
                assert mass == brute  # same float, same summation primitive


class TestInvariants:
    @given(unit_vectors)
    def test_markov_cardinality(self, vals):
        u = _as_unit(vals)
        n = u.size
        for c in (0.25, 1.0, 3.0):
            assert threshold_set(u, c).size <= cardinality_bound(c, n)

    @given(unit_vectors)
    def test_threshold_monotone_in_c(self, vals):
        u = _as_unit(vals)
        small = threshold_set(u, 0.5)
        big = threshold_set(u, 2.0)
        assert set(big).issubset(set(small))
        assert subset_mass(u, big) <= subset_mass(u, small) + 1e-15

    @given(unit_vectors)
    def test_profile_monotone_in_eps(self, vals):
        u = _as_unit(vals)
        masses = [m for _, m in min_mass_profile(u, [0.1, 0.3, 0.5, 0.7])]
        assert all(a >= b - 1e-15 for a, b in zip(masses, masses[1:]))

    @given(unit_vectors)
    def test_ipr_bounds(self, vals):
        u = _as_unit(vals)
        v = ipr(u)
        assert 1.0 / u.size - 1e-12 <= v <= 1.0 + 1e-12

    @given(unit_vectors, st.floats(0.05, 0.95))
    def test_mass_dichotomy(self, vals, delta):
        # Exactly one of: threshold mass >= 1 - delta, or the complement of
        # the threshold set carries mass > delta. Knife-edge cases within
        # float noise of the boundary are excluded.
        u = _as_unit(vals)
        idx = threshold_set(u, 1.0)
        comp = np.setdiff1d(np.arange(u.size), idx)
        a = subset_mass(u, idx) ** 2
        b = subset_mass(u, comp) ** 2
        assume(abs(a - (1 - delta)) > 1e-9)
        assert (a >= 1 - delta) != (b > delta)

    def test_subset_mass_whole_vector(self):
        u = random_unit(np.random.default_rng(3), 20)
        assert subset_mass(u, np.arange(20)) == pytest.approx(1.0, abs=1e-12)
        assert subset_mass(u, np.array([], dtype=np.intp)) == 0.0


class TestValidation:
    def test_unit_norm_required(self):
        with pytest.raises(ValueError, match="unit"):
            threshold_set(np.ones(10), 1.0)
        with pytest.raises(ValueError, match="unit"):
            ipr(np.full(10, 0.5))
        with pytest.raises(ValueError, match="length >= 2"):
            ipr(np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            ipr(np.array([np.nan, 1.0]))

    def test_subset_mass_index_checks(self):
        u = np.zeros(5)
        u[0] = 1.0
        with pytest.raises(ValueError):
            subset_mass(u, np.array([3, 1]))
        with pytest.raises(ValueError):
            subset_mass(u, np.array([1, 1]))
        with pytest.raises(ValueError):
            subset_mass(u, np.array([5]))

    def test_epsilon_range(self):
        u = random_unit(np.random.default_rng(5), 6)
        with pytest.raises(ValueError):
            min_mass_profile(u, [0.0])
        with pytest.raises(ValueError):
            min_mass_profile(u, [1.0])

    def test_c_and_n_ranges(self):
        with pytest.raises(ValueError):
            cardinality_bound(0.0, 100)
        with pytest.raises(ValueError):
            cardinality_bound(1.0, 2)
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            threshold_set(u, 1.0)  # n >= 3 needed

    def test_top_mass_range(self):
        u = random_unit(np.random.default_rng(6), 8)
        with pytest.raises(ValueError):
            top_mass(u, 0)
        with pytest.raises(ValueError):
            top_mass(u, 9)


class TestReport:
    def test_fields_coherent(self):
        u = random_unit(np.random.default_rng(11), 64)
        rep = localization_report(u, 0.5, [0.1, 0.2], degenerate=True)
        assert rep.n == 64
        assert rep.c_threshold == 0.5
        assert rep.degenerate is True
        idx = np.asarray(rep.threshold_indices, dtype=np.intp)
        assert np.array_equal(idx, threshold_set(u, 0.5))
        assert rep.threshold_mass == subset_mass(u, idx) ** 2
        assert rep.cardinality_bound == cardinality_bound(0.5, 64)
        assert rep.min_mass_profile == min_mass_profile(u, [0.1, 0.2])
        assert rep.ipr == ipr(u)
