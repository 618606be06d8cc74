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
# Entries per block of the Pareto sampler: its (block, 2) uniform buffer is 256 KiB.
_PARETO_BLOCK = 16384


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

        The Pareto path consumes two uniforms per entry (magnitude, sign)
        in C order, so a (N, n) draw fills the matrix row by row. It fills
        the C-order output in flat blocks of _PARETO_BLOCK entries from one
        reused (block, 2) uniform buffer; the stream continues from one
        block to the next, so the bytes do not depend on the block size.
        """
        m = self.multiplier
        if self.kind is LawKind.SYMMETRIC_PARETO:
            shape = (size,) if isinstance(size, int) else tuple(size)
            out = np.empty(shape)
            flat = out.reshape(-1)
            buf = np.empty((min(_PARETO_BLOCK, flat.size), 2))
            for lo in range(0, flat.size, _PARETO_BLOCK):
                mag = flat[lo:lo + _PARETO_BLOCK]
                u = stream.random(out=buf[: mag.size])
                # m * (1 - u)^(-1/alpha) >= m > 0, so copysign negates it exactly
                # where the sign uniform is below 1/2 (u - 1/2 = +0.0 keeps it).
                np.subtract(1.0, u[:, 0], out=mag)
                np.power(mag, -1.0 / self.alpha, out=mag)
                mag *= m
                np.subtract(u[:, 1], 0.5, out=u[:, 1])
                np.copysign(mag, u[:, 1], out=mag)
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
    """Independent, reproducible stream for (seed, trial_index).

    Counter-based generator keyed by the pair, so streams for different
    trial indices never overlap and any trial can be regenerated in
    isolation.
    """
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be in [0, 2**64)")
    if not (0 <= trial_index < 2**64):
        raise ValueError("trial_index must be in [0, 2**64)")
    # Imported here so that commands that sample nothing (spectra, certify,
    # plot, ...) do not load numpy.random.
    from numpy.random import Generator, Philox

    key = np.array([seed, trial_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def sample_matrix(config: EnsembleConfig) -> np.ndarray:
    """Sample the full matrix for a config, row-major entry order.

    Identical configs produce bitwise-identical matrices on any platform;
    the stream is keyed by (config.seed, 0).
    """
    stream = derive_stream(config.seed, 0)
    return config.law.sample(stream, (config.rows, config.n))
