"""Entry law contracts: exact tails, certified constants, stream determinism."""
import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm, t as student_t

from svlab.ensemble import (
    EnsembleConfig,
    LawKind,
    TailLaw,
    derive_stream,
    sample_matrix,
)

PARETO_15 = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5)


class TestStreams:
    def test_same_key_same_stream(self):
        a = derive_stream(123456789, 7).random(100)
        b = derive_stream(123456789, 7).random(100)
        assert np.array_equal(a, b)

    def test_frozen_first_uniforms(self):
        # Pinned: counter-based generator output is platform independent.
        got = derive_stream(123456789, 7).random(4)
        expected = [
            0.13955666489872953,
            0.48152753411779603,
            0.1360189293662175,
            0.3391997816291549,
        ]
        assert [float(v) for v in got] == expected

    def test_trials_do_not_collide(self):
        a = derive_stream(5, 0).random(256)
        b = derive_stream(5, 1).random(256)
        c = derive_stream(6, 0).random(256)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniformity_chi_square(self):
        u = derive_stream(31337, 2).random(10_000)
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = len(u) / 20
        stat = float(np.sum((counts - expected) ** 2 / expected))
        p = float(chi2.sf(stat, df=19))
        assert p > 0.001

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 2**64)


class TestParetoLaw:
    def test_empirical_tail_matches_exact(self):
        m = 200_000
        s = PARETO_15.sample(derive_stream(7, 0), m)
        for t in (2.0, 4.0, 8.0):
            p = t**-1.5
            emp = float(np.mean(np.abs(s) > t))
            se = math.sqrt(p * (1 - p) / m)
            assert abs(emp - p) < 4 * se

    def test_median_of_magnitude(self):
        # |x| = U**(-1/alpha) has median 2**(1/alpha).
        s = PARETO_15.sample(derive_stream(11, 0), 200_000)
        med = float(np.median(np.abs(s)))
        assert med == pytest.approx(2.0 ** (1 / 1.5), rel=0.01)

    def test_sign_symmetry(self):
        s = PARETO_15.sample(derive_stream(13, 0), 100_000)
        assert abs(float(np.mean(np.sign(s)))) < 0.02
        assert float(np.min(np.abs(s))) >= 1.0  # unit-form support

    def test_certified_constants_exact(self):
        b = PARETO_15.tail_bounds
        assert (b.alpha, b.c_lower, b.c_upper, b.t_zero) == (1.5, 1.0, 1.0, 1.0)

    def test_scale_transforms_constants(self):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5, scale=2.0)
        b = law.tail_bounds
        assert b.c_lower == pytest.approx(2.0**1.5, rel=1e-14)
        assert b.c_upper == pytest.approx(2.0**1.5, rel=1e-14)
        assert b.t_zero == 2.0
        # envelope still exact: P(|x| > t) = (t/2)^-alpha at t >= 2
        assert (4.0 / 2.0) ** -1.5 == pytest.approx(b.c_upper * 4.0**-1.5, rel=1e-14)

    def test_frozen_draws(self):
        got = [float(v) for v in PARETO_15.sample(derive_stream(42, 0), 4)]
        assert got == [
            -3.139090904873995,
            -3.8507119191535404,
            -1.35804491152006,
            -1.1552385570493153,
        ]


class TestStudentTLaw:
    def test_certified_envelope_on_grid(self):
        # In log space, since t^-80 underflows a little beyond 100 * t_zero.
        for alpha in (0.1, 0.5, 1.0, 2.5, 3.0, 80.0):
            law = TailLaw(LawKind.STUDENT_T, alpha=alpha)
            b = law.tail_bounds
            assert b.t_zero > 0
            grid = np.geomspace(b.t_zero, 100.0 * b.t_zero, 400)
            log_p = math.log(2.0) + student_t.logsf(grid, df=alpha)
            assert np.all(np.isfinite(log_p))
            assert np.all(log_p <= math.log(b.c_upper) - alpha * np.log(grid) + 1e-12)
            assert np.all(log_p >= math.log(b.c_lower) - alpha * np.log(grid) - 1e-12)

    def test_cauchy_constant_closed_form(self):
        # alpha = 1: the asymptotic tail constant is 2/pi.
        law = TailLaw(LawKind.STUDENT_T, alpha=1.0)
        b = law.tail_bounds
        assert b.c_upper == pytest.approx(1.1 * 2 / math.pi, rel=1e-12)
        assert b.c_lower == pytest.approx(2 / math.pi / 1.1, rel=1e-12)

    def test_sampling_matches_distribution(self):
        law = TailLaw(LawKind.STUDENT_T, alpha=2.5)
        m = 200_000
        s = law.sample(derive_stream(42, 2), m)
        for t in (2.0, 5.0):
            p = float(2 * student_t.sf(t, df=2.5))
            emp = float(np.mean(np.abs(s) > t))
            se = math.sqrt(p * (1 - p) / m)
            assert abs(emp - p) < 4 * se


class TestGaussianLaw:
    def test_no_polynomial_envelope(self):
        assert TailLaw(LawKind.GAUSSIAN).tail_bounds is None

    def test_second_moment(self):
        assert TailLaw(LawKind.GAUSSIAN, scale=2.0).second_moment() == 4.0


class TestVarianceNormalization:
    def test_exact_moments(self):
        assert TailLaw(LawKind.SYMMETRIC_PARETO, alpha=3.0).second_moment() == 3.0
        nl = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=3.0, normalize_variance=True)
        assert nl.second_moment() == 1.0
        assert nl.multiplier == pytest.approx(math.sqrt(1 / 3), rel=1e-14)

    def test_constants_follow_multiplier(self):
        nl = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=3.0, normalize_variance=True)
        b = nl.tail_bounds
        m = nl.multiplier
        assert b.c_upper == pytest.approx(m**3, rel=1e-14)
        assert b.t_zero == pytest.approx(m, rel=1e-14)

    def test_empirical_unit_variance(self):
        # alpha = 5: x^2 has a finite variance, so the sample mean is stable.
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=5.0, normalize_variance=True)
        s = law.sample(derive_stream(3, 0), 400_000)
        assert float(np.mean(s**2)) == pytest.approx(1.0, abs=0.02)

    def test_requires_finite_variance(self):
        with pytest.raises(ValueError):
            TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5, normalize_variance=True)
        with pytest.raises(ValueError):
            TailLaw(LawKind.STUDENT_T, alpha=2.0, normalize_variance=True)


class TestTailSecondMoment:
    # The tail above a cutoff below the support is the whole second moment.
    def test_pareto_closed_form(self):
        # integral of alpha t^(1 - alpha) from 1 to inf = alpha / (alpha - 2)
        assert TailLaw(LawKind.SYMMETRIC_PARETO, alpha=3.0).second_moment() == 3.0
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=5.0, scale=2.0)
        assert law.second_moment() == pytest.approx(4.0 * 5.0 / 3.0, rel=1e-14)
        assert math.isinf(PARETO_15.second_moment())

    def test_gaussian_matches_quadrature(self):
        from scipy.integrate import quad

        law = TailLaw(LawKind.GAUSSIAN)
        want, _ = quad(lambda s: 2 * s * s * norm.pdf(s), 0.0, np.inf)
        assert law.second_moment() == pytest.approx(want, rel=1e-10)

    def test_student_matches_sampling(self):
        law = TailLaw(LawKind.STUDENT_T, alpha=5.0)
        s = law.sample(derive_stream(77, 0), 400_000)
        assert law.second_moment() == pytest.approx(float(np.mean(s**2)), rel=0.1)


class TestValidation:
    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.0)
        with pytest.raises(ValueError):
            TailLaw(LawKind.STUDENT_T, alpha=-1.0)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            TailLaw(LawKind.GAUSSIAN, scale=0.0)

    def test_law_kind_coercion(self):
        law = TailLaw("symmetric_pareto", alpha=1.0)
        assert law.kind is LawKind.SYMMETRIC_PARETO
        with pytest.raises(ValueError):
            TailLaw("cauchy", alpha=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n=1, aspect=2.0, law=PARETO_15, seed=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n=10, aspect=1.0, law=PARETO_15, seed=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n=10, aspect=2.0, law=PARETO_15, seed=-3)


class TestSampleMatrix:
    def test_shape_rule(self):
        for n, aspect in [(3, 1.5), (10, 1.0001), (7, 2.3)]:
            cfg = EnsembleConfig(n=n, aspect=aspect, law=PARETO_15, seed=1)
            x = sample_matrix(cfg)
            assert x.shape == (math.ceil(aspect * n), n)
            assert x.shape[0] > n

    def test_deterministic_and_frozen(self):
        cfg = EnsembleConfig(n=3, aspect=1.5, law=PARETO_15, seed=2024)
        x = sample_matrix(cfg)
        y = sample_matrix(cfg)
        assert np.array_equal(x, y)
        assert [float(v) for v in x[0]] == [
            2.546761251141873,
            3.265171305806247,
            1.6221942493578612,
        ]
        assert float(x[4, 2]) == 1.4747257378320833

    def test_entry_stream_consistency(self):
        # a single draw consumes the stream exactly like the first matrix entry
        cfg = EnsembleConfig(n=5, aspect=2.0, law=PARETO_15, seed=99)
        x = sample_matrix(cfg)
        e = PARETO_15.sample(derive_stream(99, 0), 1)[0]
        assert e == x[0, 0]

    def test_seed_changes_matrix(self):
        a = sample_matrix(EnsembleConfig(n=5, aspect=2.0, law=PARETO_15, seed=1))
        b = sample_matrix(EnsembleConfig(n=5, aspect=2.0, law=PARETO_15, seed=2))
        assert not np.array_equal(a, b)

    def test_all_finite(self):
        for kind, alpha in [(LawKind.SYMMETRIC_PARETO, 0.8), (LawKind.STUDENT_T, 1.0), (LawKind.GAUSSIAN, math.inf)]:
            law = TailLaw(kind, alpha=alpha)
            x = sample_matrix(EnsembleConfig(n=30, aspect=1.7, law=law, seed=4))
            assert np.all(np.isfinite(x))


# sha256 of the sampled bytes, so any rewrite of a sampler must keep every bit.
SAMPLE_PINS = [
    # kind, alpha, scale, normalize, n, aspect, seed, digest
    (LawKind.SYMMETRIC_PARETO, 0.5, 1.0, False, 3, 2.0, 11,
     "4ec0a42934ff1805c9de0a7069b5df4ac1ad00cf4013399f2b4eaae0eccd7e1f"),
    (LawKind.SYMMETRIC_PARETO, 1.0, 1.0, False, 40, 2.0, 12,
     "0bec422979e57cf7f2c4a2c8eacd5e1b632a05c4c9d942d81c05235a79487a6f"),
    (LawKind.SYMMETRIC_PARETO, 1.2, 1.0, False, 25, 1.2, 13,
     "0c0022c2f8fc6e2e27fe7be7bdf123f0d5ee237d8b1cc786b7cfd811fb4008ac"),
    (LawKind.SYMMETRIC_PARETO, 1.5, 2.5, False, 9, 2.0, 20,
     "d61c8231c6789368e1ec456d573423e8351f7afdc428c8aedfafdfb20f34c101"),
    (LawKind.SYMMETRIC_PARETO, 2.0, 1.0, False, 17, 3.0, 14,
     "4b87785c54ac90e2f54a2fc36021ce0ad04bc757ea600b5a767c1b19deb45a31"),
    (LawKind.SYMMETRIC_PARETO, 3.0, 1.0, False, 30, 2.0, 15,
     "0d51da61b9ee1977b46abe559ed56e48fba97802ffa9334e715963c43ceadfc5"),
    (LawKind.SYMMETRIC_PARETO, 3.0, 1.0, True, 30, 2.0, 15,
     "4be1d235e8e2daf8acf3502f320a7c111a3e487068554eeae9d656f9d2d792ab"),
    (LawKind.SYMMETRIC_PARETO, 5.0, 1.0, True, 3, 1.5, 16,
     "e806065ca1e6d254364fc1fa91f1eb035c2d7c663aeb624258c9a08670787e55"),
    (LawKind.STUDENT_T, 2.5, 1.0, False, 20, 2.0, 17,
     "77809f3acdbb251df93a106240da9b02c7655a0297d2758ffffda4667ec803c0"),
    (LawKind.GAUSSIAN, math.inf, 1.0, True, 20, 2.0, 18,
     "13f413c9538d593dd76d3a55d888c3a5ff8cb14d1403e5a73795cebb6ae4f31c"),
    # 320 000 entries each, so a blocked sampler crosses many block boundaries.
    (LawKind.SYMMETRIC_PARETO, 1.2, 1.0, False, 400, 2.0, 21,
     "3ae1694b37de56e2cd06652bb19c9ace4377e7ad1f7aecf55a83b0419f532146"),
    (LawKind.SYMMETRIC_PARETO, 3.0, 1.0, True, 400, 2.0, 22,
     "47cf34db745e3a4225fbabd0909badafe2d32ff1219b2a97478d3fee8cbdf1ba"),
]

# Direct draws of many blocks whose length is no multiple of a power of two.
SIZE_PINS = [
    # size, seed, digest
    (100_003, 23, "f8724c8a024560236727de30fa4644220238a81c8fedb6562da3e27240fede9f"),
    ((7, 300, 50), 24, "db2a10c503bf3e988ae3f4dc71dcd36e35a33b154b820636c477f62a59560635"),
]


class TestSamplerBytes:
    @pytest.mark.parametrize("kind, alpha, scale, normalize, n, aspect, seed, digest", SAMPLE_PINS)
    def test_matrix_bytes_pinned(self, kind, alpha, scale, normalize, n, aspect, seed, digest):
        law = TailLaw(kind, alpha=alpha, scale=scale, normalize_variance=normalize)
        x = sample_matrix(EnsembleConfig(n=n, aspect=aspect, law=law, seed=seed))
        assert x.shape == (math.ceil(aspect * n), n)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    def test_integer_size_bytes_pinned(self):
        v = PARETO_15.sample(derive_stream(19, 0), 7)
        assert v.shape == (7,) and v.dtype == np.float64
        assert hashlib.sha256(v.tobytes()).hexdigest() == (
            "db4f7ae1ec4223c09466c92ab4073165456202578f21b76b79e9e96bcd4510d8"
        )

    @pytest.mark.parametrize("size, seed, digest", SIZE_PINS)
    def test_large_size_bytes_pinned(self, size, seed, digest):
        v = PARETO_15.sample(derive_stream(seed, 0), size)
        assert v.shape == ((size,) if isinstance(size, int) else size)
        assert v.dtype == np.float64 and v.flags.c_contiguous
        assert hashlib.sha256(v.tobytes()).hexdigest() == digest
