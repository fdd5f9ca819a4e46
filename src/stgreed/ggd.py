"""Generalized Gaussian statistics: moments, kurtosis matching, entropy."""

import math

import numpy as np

BETA_MIN = 0.05
BETA_MAX = 10.0


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
    requested relative tolerance (1e-6). A scalar gives a float; an ndarray
    gives a float64 array of its shape.

    The bisection runs lane-wise. Every lane starts from [BETA_MIN,
    BETA_MAX], so lanes that have taken the same branches hold the same
    midpoint; its kurtosis is computed once per depth, with math.gamma and
    float ** as in ggd_kurtosis. A lane leaves with the midpoint once its
    interval is spent or its kurtosis is close enough.
    """
    kappas = np.asarray(kappa, dtype=np.float64)
    if np.isnan(kappas).any():
        raise ValueError("kurtosis is NaN")
    beta = np.where(kappas >= _KURT_AT_MIN, BETA_MIN, BETA_MAX)
    out = beta.reshape(-1)  # a view: np.where returns a new contiguous array
    lanes = np.flatnonzero((kappas < _KURT_AT_MIN) & (kappas > _KURT_AT_MAX))
    k = kappas.reshape(-1)[lanes]
    lo, hi = np.full(k.shape, BETA_MIN), np.full(k.shape, BETA_MAX)
    while lanes.size:
        mid = 0.5 * (lo + hi)
        mids, at = np.unique(mid, return_inverse=True)
        k_mid = np.array([math.gamma(5.0 / m) * math.gamma(1.0 / m) / math.gamma(3.0 / m) ** 2
                          for m in mids.tolist()])[at]
        done = ((hi - lo) <= 1e-9 * hi) | (np.abs(k_mid - k) <= 1e-6 * k)
        out[lanes[done]] = mid[done]
        go_up, on = k_mid > k, ~done
        lo, hi = np.where(go_up, mid, lo)[on], np.where(go_up, hi, mid)[on]
        lanes, k = lanes[on], k[on]
    return beta if isinstance(kappa, np.ndarray) else float(beta)


def check_noise_var(noise_var):
    """Raise unless the additive channel's variance is finite and > 0."""
    if not 0 < noise_var < math.inf:
        raise ValueError(f"noise variance must be finite and > 0, got {noise_var}")


def noisy_moments(var_obs, kurt_obs, noise_var):
    """(variance, kurtosis) after the additive Gaussian channel.

    variance = var + noise_var; kurtosis = kurt * (var / variance)^2.
    """
    check_noise_var(noise_var)
    if var_obs < 0:
        raise ValueError(f"variance must be >= 0, got {var_obs}")
    variance = var_obs + noise_var
    return variance, kurt_obs * (var_obs / variance) ** 2


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
