"""Heavy-tailed matrix ensembles.

Entry laws are symmetric with a polynomial tail controlled on both sides:
for t >= t_zero,

    c_lower * t**(-alpha) <= P(|x| > t) <= c_upper * t**(-alpha).

Every law object can report certified values of (alpha, c_lower, c_upper,
t_zero) for downstream threshold formulas, or ``None`` when the tail decays
faster than any polynomial (Gaussian).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "LawKind",
    "TailBounds",
    "TailLaw",
    "EnsembleConfig",
    "derive_stream",
    "sample_matrix",
]

# Slack factor for laws whose tail constant is only asymptotic (Student t).
_TAIL_SLACK = 1.1
# Entries per block of the Pareto sampler: its uniform buffer is 128 KiB.
_PARETO_BLOCK = 16384
# u - _PARETO_CENTRE is exact for every double u in [0, 1) that the stream draws, and never 0.
_PARETO_CENTRE = 0.5 - 2.0**-54


class LawKind(str, Enum):
    SYMMETRIC_PARETO = "symmetric_pareto"
    STUDENT_T = "student_t"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class TailBounds:
    """Certified two-sided polynomial tail envelope, valid for t >= t_zero."""

    alpha: float
    c_lower: float
    c_upper: float
    t_zero: float


def _student_t_tail_constant(alpha: float) -> float:
    # lim t->inf  P(|T_nu| > t) * t^nu  =  2 * c_nu * nu^((nu-1)/2),
    # c_nu = Gamma((nu+1)/2) / (sqrt(nu*pi) * Gamma(nu/2)).
    nu = alpha
    log_c = math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * math.log(nu * math.pi)
    try:
        c_inf = 2.0 * math.exp(log_c + 0.5 * (nu - 1.0) * math.log(nu))
    except OverflowError:
        c_inf = math.inf
    if math.isinf(c_inf * _TAIL_SLACK):  # c_upper = c_inf * _TAIL_SLACK must be a double too
        raise ValueError(f"student_t alpha={alpha}: the tail constant exceeds a double")
    return c_inf


def _student_t_band_onset(alpha: float) -> float:
    """t0 beyond which 2*sf(t)*t^nu / c_inf stays in [1/_TAIL_SLACK, _TAIL_SLACK].

    For s >= t, s^2/nu <= 1 + s^2/nu <= (s^2/nu)(1 + nu/t^2), so integrating
    the density c_nu (1 + s^2/nu)^(-(nu+1)/2) from t to infinity gives
    (1 + nu/t^2)^(-(nu+1)/2) <= 2*sf(t)*t^nu / c_inf <= 1 at every t > 0.
    The lower side reaches 1/_TAIL_SLACK at t0 = sqrt(nu / (_TAIL_SLACK^(2/(nu+1)) - 1)).
    """
    nu = alpha
    return math.sqrt(nu / math.expm1(2.0 * math.log(_TAIL_SLACK) / (nu + 1.0)))


@dataclass(frozen=True)
class TailLaw:
    """Symmetric entry law.

    kind
        One of ``LawKind``. ``alpha`` is the tail index for the polynomial
        laws and is ignored for ``GAUSSIAN``.
    scale
        Multiplies the unit-form variate. For the Pareto law the unit form
        has support |x| >= 1 and P(|x| > t) = t^-alpha exactly, so ``scale``
        is also the support cutoff.
    normalize_variance
        Rescale so that E[x^2] = 1. Only legal when the second moment is
        finite (Gaussian, or alpha > 2). When set, the unit-variance
        requirement determines the overall magnitude and ``scale`` no longer
        affects the samples.
    """

    kind: LawKind
    alpha: float = math.inf
    scale: float = 1.0
    normalize_variance: bool = False

    def __post_init__(self) -> None:
        kind = LawKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is not LawKind.GAUSSIAN:
            if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
                raise ValueError(f"tail index alpha must be finite and > 0, got {self.alpha}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        if self.normalize_variance and not math.isfinite(self._unit_second_moment()):
            raise ValueError(
                "normalize_variance requires a finite second moment "
                f"(law {kind.value}, alpha={self.alpha})"
            )

    def _unit_second_moment(self) -> float:
        """E[B^2] for the unit-form variate B (scale 1)."""
        if self.kind is LawKind.GAUSSIAN:
            return 1.0
        if self.alpha <= 2.0:
            return math.inf
        # Unit Pareto and Student t with nu = alpha share alpha / (alpha - 2).
        return self.alpha / (self.alpha - 2.0)

    @property
    def multiplier(self) -> float:
        """Net factor applied to the unit-form variate."""
        if self.normalize_variance:
            return 1.0 / math.sqrt(self._unit_second_moment())
        return self.scale

    def second_moment(self) -> float:
        if self.normalize_variance:
            return 1.0
        return self.multiplier**2 * self._unit_second_moment()

    @property
    def tail_bounds(self) -> TailBounds | None:
        """Certified envelope for the law as sampled (scaling folded in); ValueError if it overflows."""
        m = self.multiplier
        if self.kind is LawKind.GAUSSIAN:
            return None
        try:
            m_alpha = m**self.alpha
        except OverflowError:
            m_alpha = math.inf
        # Unit Pareto is exact, P(|B| > t) = t^-alpha for t >= 1; Student t is bracketed past t0.
        c_lower, c_upper, t0 = m_alpha, m_alpha, 1.0
        if self.kind is LawKind.STUDENT_T:
            c_inf = _student_t_tail_constant(self.alpha)
            c_lower, c_upper = c_inf / _TAIL_SLACK * m_alpha, c_inf * _TAIL_SLACK * m_alpha
            t0 = _student_t_band_onset(self.alpha)
        if not (math.isfinite(c_lower) and math.isfinite(c_upper)):
            raise ValueError(f"{self.kind.value} alpha={self.alpha} scale={self.scale}: "
                             "the tail constant exceeds a double")
        return TailBounds(alpha=self.alpha, c_lower=c_lower, c_upper=c_upper, t_zero=t0 * m)

    def sample(self, stream: Generator, size: tuple[int, ...] | int) -> np.ndarray:
        """Draw samples, consuming the stream deterministically.

        The Pareto path consumes one uniform u per entry in C order, so a
        (N, n) draw fills the matrix row by row. t = u - (1/2 - 2^-54) is
        exact and an odd multiple of 2^-54, so never 0; its sign is the
        entry's, and 2|t| in (0, 1) is uniform and independent of that sign.
        |x| = m (2|t|)^(-1/alpha), clamped to |x| >= m since exp and log
        round. Taken as exp(log(2|t|) (-1/alpha)), |x| is within about
        1 + |ln 2|t||/alpha ulps (at most 1 + 37/alpha), where np.power keeps
        about 1 ulp; the law does not move at that scale. It fills the C-order output in flat blocks of _PARETO_BLOCK
        entries from one reused uniform buffer; the stream continues from
        one block to the next, so the bytes do not depend on the block size.
        """
        m = self.multiplier
        if self.kind is LawKind.SYMMETRIC_PARETO:
            shape = (size,) if isinstance(size, int) else tuple(size)
            out = np.empty(shape)
            flat = out.reshape(-1)
            buf = np.empty(min(_PARETO_BLOCK, flat.size))
            for lo in range(0, flat.size, _PARETO_BLOCK):
                mag = flat[lo:lo + _PARETO_BLOCK]
                t = stream.random(out=buf[: mag.size])
                t -= _PARETO_CENTRE
                np.abs(t, out=mag)
                mag *= 2.0
                np.log(mag, out=mag)
                mag *= -1.0 / self.alpha
                np.exp(mag, out=mag)
                mag *= m
                np.maximum(mag, m, out=mag)
                np.copysign(mag, t, out=mag)
            return out
        if self.kind is LawKind.GAUSSIAN:
            return m * stream.standard_normal(size)
        return m * stream.standard_t(self.alpha, size)


@dataclass(frozen=True)
class EnsembleConfig:
    """One matrix ensemble cell: X has ceil(aspect*n) rows and n columns."""

    n: int
    aspect: float
    law: TailLaw
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not (self.aspect > 1.0 and math.isfinite(self.aspect)):
            raise ValueError(f"aspect must be finite and > 1, got {self.aspect}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2**64)")

    @property
    def rows(self) -> int:
        # aspect > 1 guarantees rows > n.
        return math.ceil(self.aspect * self.n)


def derive_stream(seed: int, trial_index: int) -> Generator:
    """Reproducible stream for (seed, trial_index): PCG64DXSM seeded by
    SeedSequence([seed, trial_index]).

    Any trial can be regenerated in isolation from its pair. Unlike a
    counter-based generator's, the streams of different pairs are not
    disjoint by construction: they rest on SeedSequence hashing each pair
    into its own 128-bit state and increment (sweep seeds are themselves
    SHA-256 hashes of the trial's cell and index).
    """
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be in [0, 2**64)")
    if not (0 <= trial_index < 2**64):
        raise ValueError("trial_index must be in [0, 2**64)")
    # Imported here so that commands that sample nothing (spectra, certify,
    # plot, ...) do not load numpy.random.
    from numpy.random import PCG64DXSM, Generator, SeedSequence

    return Generator(PCG64DXSM(SeedSequence([seed, trial_index])))


def simd_target() -> str:
    """Which class of numpy's float64 log and exp loops, the ones the Pareto
    sampler runs, this process gets: "avx512" where numpy dispatches them to
    its AVX-512 loops, else "generic". The AVX-512 loops round differently in
    the last bit, so Pareto matrices are bitwise-identical only within one
    class. numpy >= 2.0 names the loop that runs (X86_V4 on numpy 2.4,
    AVX512F or AVX512_SKX before); numpy 1.x runs its AVX512F or AVX512_SKX
    loop wherever it was built with one and the CPU has it."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

        built = set(__cpu_baseline__) | set(__cpu_dispatch__)
        targets = [f for f in ("AVX512F", "AVX512_SKX") if f in built and __cpu_features__.get(f)]
    else:
        info = opt_func_info(func_name="^(log|exp)$", signature="float64")
        targets = [loops["dd"]["current"] for loops in info.values()]
    return "avx512" if any("AVX512" in t or "X86_V4" in t for t in targets) else "generic"


def sample_matrix(config: EnsembleConfig) -> np.ndarray:
    """Sample the full matrix for a config, row-major entry order.

    The stream is keyed by (config.seed, 0). Identical configs produce
    bitwise-identical matrices on one numpy version and one simd_target();
    the Gaussian and Student-t draws do not depend on the target.
    """
    stream = derive_stream(config.seed, 0)
    return config.law.sample(stream, (config.rows, config.n))
