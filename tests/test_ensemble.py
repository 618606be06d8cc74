"""Entry law contracts: exact tails, certified constants, stream determinism."""
import hashlib
import math
import sys
import types

import numpy as np
import pytest
from scipy.stats import chi2, norm, t as student_t

from svlab.ensemble import (
    EnsembleConfig,
    LawKind,
    TailLaw,
    derive_stream,
    sample_matrix,
    simd_target,
)

PARETO_15 = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5)


class TestStreams:
    def test_same_key_same_stream(self):
        a = derive_stream(123456789, 7).random(100)
        b = derive_stream(123456789, 7).random(100)
        assert np.array_equal(a, b)

    def test_frozen_first_uniforms(self):
        # Pinned: PCG64DXSM and SeedSequence are integer arithmetic, the same on every platform.
        got = derive_stream(123456789, 7).random(4)
        expected = [
            0.3011731057930971,
            0.08413320699066562,
            0.4838976911680368,
            0.36937129906092125,
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
        # The same in both SIMD classes (see SAMPLE_PINS).
        got = [float(v) for v in PARETO_15.sample(derive_stream(42, 0), 4)]
        assert got == [
            2.065779403906992,
            -1.009177513714095,
            2.15548703212576,
            -2.470726401603296,
        ]

    def test_deep_tail_matches_exact(self):
        # alpha = 0.3: P(|x| > t) = t^-0.3 out to t = 1e6, where it is 0.016.
        m = 200_000
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.3)
        s = law.sample(derive_stream(17, 0), m)
        for t in (10.0, 1e3, 1e6):
            p = t**-0.3
            emp = float(np.mean(np.abs(s) > t))
            se = math.sqrt(p * (1 - p) / m)
            assert abs(emp - p) < 4 * se


class _Uniforms:
    """A stand-in stream whose random(out=) repeats the given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, out):
        out[:] = np.resize(self.values, out.size)
        return out


class TestParetoExtremes:
    # The doubles next to each end of [0, 1) and to 1/2, where t = u - (1/2 - 2^-54) is nearest 0.
    U = [0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("alpha", [0.1, 1.5, 5.0])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_extreme_uniforms(self, alpha, scale):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha, scale=scale)
        x = law.sample(_Uniforms(self.U), len(self.U))
        t = np.array(self.U) - (0.5 - 2.0**-54)
        assert np.all(np.isfinite(x))
        assert np.all(np.abs(x) >= scale)
        assert np.array_equal(np.sign(x), np.sign(t)) and np.all(t != 0.0)
        # Either side of 1/2, 2|t| = 2^-53 gives the largest magnitude a draw can take.
        assert x[3] == -x[2] == pytest.approx(scale * 2.0 ** (53 / alpha), rel=1e-12)


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
            1.0380982032671477,
            -1.429163642383499,
            -1.1734278228847819,
        ]
        assert float(x[4, 2]) == -3.647110348632472

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


# sha256 of the sampled bytes, so any rewrite of a sampler must keep every bit. A Pareto
# draw's last bits follow numpy's float64 log and exp loops, so each Pareto pin is keyed by
# simd_target()'s class, each made in a fresh process on one machine with AVX-512, the
# "generic" one under NPY_DISABLE_CPU_FEATURES (its AVX2 loops and its baseline ones wrote
# the same bytes there). A pin that is one digest holds in both classes: the Gaussian and
# Student-t draws run neither loop.
def _pareto(avx512, generic):
    return {"avx512": avx512, "generic": generic}


def _pinned(pin):
    """The digest that pin holds for this process's SIMD class."""
    return pin if isinstance(pin, str) else pin[simd_target()]


def _assert_pinned(v, pin):
    got = hashlib.sha256(v.tobytes()).hexdigest()
    assert got == _pinned(pin), f"simd class {simd_target()}: sha256 {got}"


SAMPLE_PINS = {
    # (kind, alpha, scale, normalize, n, aspect, seed): digest
    (LawKind.SYMMETRIC_PARETO, 0.5, 1.0, False, 3, 2.0, 11): (
        "d164ade69822c3dd72d6e385d3a6ae51961d62687cc28f6dac35979bd37e6a0a"
    ),
    (LawKind.SYMMETRIC_PARETO, 1.0, 1.0, False, 40, 2.0, 12): _pareto(
        "fd1daa4e3c74a09c15b0732cb7c971cced4b10abe97ce1c45f10d430522febc8",
        "f5eb1616d90982dda677a38a1f1535802b317b80eede45047a791d3b502a90c4",
    ),
    (LawKind.SYMMETRIC_PARETO, 1.2, 1.0, False, 25, 1.2, 13): _pareto(
        "ad34f71eb975e803b8c38ec8ce69dcc26b068d27c178cf11ed87cdb37c6da0f4",
        "128dc1003b16ee4aeaaee7f453694dbe49e51317476cdef35c7f7e6b3f3ed056",
    ),
    (LawKind.SYMMETRIC_PARETO, 1.5, 2.5, False, 9, 2.0, 20): _pareto(
        "89b4bd0da294433ebe82cbca78d303449d6f25af3ccab2a08c305615d8f5b114",
        "2304ee1a5ce7bcf6027aea10e2e1ac141e004c224a2fce83ade7c3d137b5f20c",
    ),
    (LawKind.SYMMETRIC_PARETO, 2.0, 1.0, False, 17, 3.0, 14): _pareto(
        "c89b6a61dc2a7d519b3521a1bf509b8f376268bda9f20a2a9f15c2fa897c047e",
        "cea9563d46a27d68a597646e3b47c9bda4f527eb497e5e51a456ac27dee8a8ae",
    ),
    (LawKind.SYMMETRIC_PARETO, 3.0, 1.0, False, 30, 2.0, 15): _pareto(
        "f59dd4680549525676806c04910e20fc61f44a3b2d3721687b2cde46ca93aa47",
        "4fa35f2ffe2003b204cc599e9e917eceae5e63118df35beee25b5dd5d4707440",
    ),
    (LawKind.SYMMETRIC_PARETO, 3.0, 1.0, True, 30, 2.0, 15): _pareto(
        "f95f07217a981b24189bcf5c56d30d2c7941bffc959bf79bbf165f12cbca212e",
        "9102882e17f22c022469efdbdcb0799e6ef2c52c0f7ac609c0ca9f2633c5956f",
    ),
    (LawKind.SYMMETRIC_PARETO, 5.0, 1.0, True, 3, 1.5, 16): _pareto(
        "c3f7157fb587a6c8d192269fcc28c7f7b8c65cd03baad207841fc224721844c2",
        "8d55935545c21597767bf2db9f68fdb2a1f207576dea6b983fecca5c4b78d6cf",
    ),
    (LawKind.STUDENT_T, 2.5, 1.0, False, 20, 2.0, 17): "d4a067142549cbbfa3eb0439be58dfd09fa46d74b4218d1a4a76c4a9c55cf3d0",
    (LawKind.GAUSSIAN, math.inf, 1.0, True, 20, 2.0, 18): "8ccbdf05d83c8b0690d2386b59bc214c9e3f8e94abbca0eaf766244c39f4555b",
    # 320 000 entries each, so a blocked sampler crosses many block boundaries.
    (LawKind.SYMMETRIC_PARETO, 1.2, 1.0, False, 400, 2.0, 21): _pareto(
        "3df5afb60b2d3cce2571bd3d6db5f24ae3d2f6069ea1a8a85bf2916b42fc8f0c",
        "131d5813224e3f2f1276f04fa4f746137f90c2f4466bc592cee686478ed52e41",
    ),
    (LawKind.SYMMETRIC_PARETO, 3.0, 1.0, True, 400, 2.0, 22): _pareto(
        "19d4ed40bd04fe4a0ec4745a72f8ffe953cd5efea1559cb67c6349c6a00ca8e4",
        "ad03485e0aca57ab01d8c76e9c74a9d15036f1d3f70cfca7ffda260f09f34e67",
    ),
}

# Direct draws of many blocks whose length is no multiple of a power of two.
SIZE_PINS = {
    # (size, seed): digest
    (100_003, 23): _pareto(
        "e511ac78dfbf7f6fbd946bbf93c274751b2c6f06c1672d36de69f29191abed7c",
        "c967d2f32ac157a2e6be08b17ac3508850bbedf0b6d41cdf43221d2de48dfb0a",
    ),
    ((7, 300, 50), 24): _pareto(
        "0e78bb4bd5a47dcf9e4780a43047ade831e85f0e2014920a2e1a12a2b9712d4e",
        "4d472ce72abc2702f250e2c3a2ae766db1b5dbff513880da8e7306f7d2747083",
    ),
}


class TestSimdTarget:
    # The names numpy gives its float64 log and exp loops: 2.4's x86-64 levels, and the
    # feature groups of 2.0-2.3 (numpy/lib/introspect.py's docstring there).
    @pytest.mark.parametrize("current, expected", [
        ("X86_V4", "avx512"), ("AVX512F", "avx512"), ("AVX512_SKX", "avx512"),
        ("X86_V3", "generic"), ("FMA3__AVX2", "generic"), ("baseline(X86_V2)", "generic"),
        ("baseline(SSE SSE2 SSE3)", "generic"), ("baseline(NEON NEON_FP16 NEON_VFPV4 ASIMD)", "generic"),
    ])
    def test_numpy_2_loop_names(self, monkeypatch, current, expected):
        stub = types.ModuleType("numpy.lib.introspect")
        stub.opt_func_info = lambda func_name, signature: {
            f: {"dd": {"current": current}} for f in ("exp", "log")}
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", stub)
        assert simd_target() == expected

    @pytest.mark.parametrize("built, on, expected", [
        (["AVX512F", "AVX512_SKX"], {"AVX512F": True, "AVX512_SKX": True}, "avx512"),
        (["AVX512F"], {"AVX512F": True, "AVX512_SKX": False}, "avx512"),
        (["AVX512F", "AVX512_SKX"], {"AVX512F": False, "AVX512_SKX": False}, "generic"),  # disabled
        (["AVX2", "FMA3"], {"AVX512F": True, "AVX512_SKX": True}, "generic"),  # not built
    ])
    def test_numpy_1_features(self, monkeypatch, built, on, expected):
        stub = types.ModuleType("numpy.core._multiarray_umath")
        stub.__cpu_baseline__, stub.__cpu_dispatch__, stub.__cpu_features__ = ["SSE", "SSE2", "SSE3"], built, on
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)  # no such module before 2.0
        monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", stub)
        assert simd_target() == expected


class TestSamplerBytes:
    @pytest.mark.parametrize("kind, alpha, scale, normalize, n, aspect, seed", list(SAMPLE_PINS))
    def test_matrix_bytes_pinned(self, kind, alpha, scale, normalize, n, aspect, seed):
        law = TailLaw(kind, alpha=alpha, scale=scale, normalize_variance=normalize)
        x = sample_matrix(EnsembleConfig(n=n, aspect=aspect, law=law, seed=seed))
        assert x.shape == (math.ceil(aspect * n), n)
        _assert_pinned(x, SAMPLE_PINS[kind, alpha, scale, normalize, n, aspect, seed])

    def test_integer_size_bytes_pinned(self):
        # Seven entries, the same in both SIMD classes.
        v = PARETO_15.sample(derive_stream(19, 0), 7)
        assert v.shape == (7,) and v.dtype == np.float64
        _assert_pinned(v, "b0bc2840f236a5460f3ec493bc760a28dc993a28c475a1107f452ef3e205d301")

    @pytest.mark.parametrize("size, seed", list(SIZE_PINS))
    def test_large_size_bytes_pinned(self, size, seed):
        v = PARETO_15.sample(derive_stream(seed, 0), size)
        assert v.shape == ((size,) if isinstance(size, int) else size)
        assert v.dtype == np.float64 and v.flags.c_contiguous
        _assert_pinned(v, SIZE_PINS[size, seed])
