"""Generalized Gaussian statistics: moments, kurtosis matching, entropy."""

import math
from dataclasses import dataclass

BETA_MIN = 0.05
BETA_MAX = 10.0


@dataclass(frozen=True)
class NoisyMoments:
    variance: float
    kurtosis: float


def gamma_fn(a):
    """Gamma function (Lanczos-class approximation via the C library)."""
    if a <= 0:
        raise ValueError(f"gamma_fn requires a > 0, got {a}")
    return math.gamma(a)


def ggd_kurtosis(beta):
    """Kurtosis of a zero-mean GGD as a function of the shape parameter."""
    return gamma_fn(5.0 / beta) * gamma_fn(1.0 / beta) / gamma_fn(3.0 / beta) ** 2


_KURT_AT_MIN = ggd_kurtosis(BETA_MIN)
_KURT_AT_MAX = ggd_kurtosis(BETA_MAX)


def beta_from_kurtosis(kappa):
    """Invert the shape/kurtosis map by bisection; out-of-range values clamp.

    Kurtosis is strictly decreasing in beta, so bisection is exact to the
    requested relative tolerance (1e-6).
    """
    if math.isnan(kappa):
        raise ValueError("kurtosis is NaN")
    if kappa >= _KURT_AT_MIN:
        return BETA_MIN
    if kappa <= _KURT_AT_MAX:
        return BETA_MAX
    lo, hi = BETA_MIN, BETA_MAX  # kurt(lo) > kappa > kurt(hi)
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        k_mid = ggd_kurtosis(mid)
        if abs(k_mid - kappa) <= 1e-6 * kappa:
            return mid
        if k_mid > kappa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noisy_moments(var_obs, kurt_obs, noise_var):
    """Variance and kurtosis after the additive Gaussian channel.

    variance = var + noise_var; kurtosis = kurt * (var / variance)^2.
    """
    if not 0 < noise_var < math.inf:
        raise ValueError(f"noise variance must be finite and > 0, got {noise_var}")
    if var_obs < 0:
        raise ValueError(f"variance must be >= 0, got {var_obs}")
    variance = var_obs + noise_var
    kurtosis = kurt_obs * (var_obs / variance) ** 2
    return NoisyMoments(variance, kurtosis)


def alpha_from_sigma_beta(sigma, beta):
    """GGD scale parameter from standard deviation and shape."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return sigma * math.sqrt(gamma_fn(1.0 / beta) / gamma_fn(3.0 / beta))


def ggd_entropy(alpha, beta):
    """Differential entropy (nats) of a zero-mean GGD."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0 (degenerate patch: use the noise-floor alpha)")
    return 1.0 / beta - math.log(beta / (2.0 * alpha * gamma_fn(1.0 / beta)))
