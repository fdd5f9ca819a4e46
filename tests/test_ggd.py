import math

import numpy as np
import pytest

from stgreed.ggd import (BETA_MAX, BETA_MIN, alpha_from_sigma_beta,
                         beta_from_kurtosis, gamma_fn, ggd_entropy,
                         ggd_kurtosis, noisy_moments)

from conftest import sample_ggd


def test_gamma_identities():
    assert abs(gamma_fn(1.0) - 1.0) < 1e-14
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-12
    assert abs(gamma_fn(5.0) * gamma_fn(1.0) / gamma_fn(3.0) ** 2 - 6.0) < 1e-12


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_fn(0.0)
    with pytest.raises(ValueError):
        gamma_fn(-1.0)


def test_kurtosis_special_cases():
    assert abs(ggd_kurtosis(2.0) - 3.0) <= 1e-10  # Gaussian
    assert abs(ggd_kurtosis(1.0) - 6.0) <= 1e-10  # Laplacian


def test_kurtosis_strictly_decreasing():
    grid = np.linspace(BETA_MIN, BETA_MAX, 1000)
    vals = np.array([ggd_kurtosis(b) for b in grid])
    assert np.all(np.diff(vals) < 0)


def test_beta_from_kurtosis_round_trips():
    assert abs(beta_from_kurtosis(3.0) - 2.0) < 1e-4
    assert abs(beta_from_kurtosis(6.0) - 1.0) < 1e-4


def test_beta_from_kurtosis_clamps():
    assert ggd_kurtosis(BETA_MAX) > 1.5  # 1.5 is below the GGD infimum
    assert beta_from_kurtosis(1.5) == BETA_MAX
    assert beta_from_kurtosis(0.0) == BETA_MAX
    assert beta_from_kurtosis(1e16) == BETA_MIN


def test_beta_from_kurtosis_rejects_nan():
    with pytest.raises(ValueError):
        beta_from_kurtosis(float("nan"))


def test_inverse_composes_with_forward():
    for beta in np.linspace(0.2, 8.0, 25):
        assert abs(beta_from_kurtosis(ggd_kurtosis(beta)) - beta) < 1e-4 * beta


def test_noisy_moments_examples():
    variance, kurtosis = noisy_moments(1.0, 6.0, 0.1)
    assert abs(variance - 1.1) < 1e-12
    assert abs(kurtosis - 6.0 * (1.0 / 1.1) ** 2) < 1e-12

    assert noisy_moments(0.0, 0.0, 0.1) == (0.1, 0.0)

    _, kurtosis = noisy_moments(4.0, 3.0, 0.1)
    assert abs(kurtosis - 3.0 * (4.0 / 4.1) ** 2) < 1e-12
    assert abs(kurtosis - 2.8554) < 1e-4


def test_noisy_moments_monotone_in_noise():
    prev = math.inf
    for nv in (0.01, 0.1, 1.0, 10.0):
        _, k = noisy_moments(2.0, 5.0, nv)
        assert k < prev
        prev = k


def test_noisy_moments_rejects_negative():
    with pytest.raises(ValueError):
        noisy_moments(-1.0, 3.0, 0.1)
    with pytest.raises(ValueError):
        noisy_moments(1.0, 3.0, 0.0)


@pytest.mark.parametrize("noise_var", [math.inf, math.nan])
def test_noisy_moments_rejects_non_finite_noise_var(noise_var):
    with pytest.raises(ValueError, match=f"noise variance must be finite and > 0, got {noise_var}"):
        noisy_moments(1.0, 3.0, noise_var)


def test_alpha_from_sigma_beta():
    assert abs(alpha_from_sigma_beta(1.0, 2.0) - math.sqrt(2.0)) < 1e-12
    assert alpha_from_sigma_beta(0.0, 3.0) == 0.0
    assert abs(alpha_from_sigma_beta(1.0, 1.0) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_entropy_closed_forms():
    # Gaussian sigma=1: alpha = sqrt(2), entropy = 0.5*ln(2*pi*e)
    assert abs(ggd_entropy(math.sqrt(2.0), 2.0) - 0.5 * (1 + math.log(2 * math.pi))) <= 1e-10
    # Laplace b=1: alpha = 1, entropy = 1 + ln 2
    assert abs(ggd_entropy(1.0, 1.0) - (1 + math.log(2.0))) <= 1e-10


def test_entropy_scale_shift():
    for c in (0.5, 2.0, 10.0):
        for beta in (0.7, 1.0, 2.0, 4.0):
            lhs = ggd_entropy(c * 1.3, beta)
            rhs = ggd_entropy(1.3, beta) + math.log(c)
            assert abs(lhs - rhs) < 1e-12


def test_entropy_rejects_zero_alpha():
    with pytest.raises(ValueError):
        ggd_entropy(0.0, 2.0)


@pytest.mark.parametrize("beta0", [0.5, 1.0, 2.0, 4.0])
def test_kurtosis_matching_recovers_shape(rng, beta0):
    x = sample_ggd(rng, 1.0, beta0, 200_000)
    m2 = np.mean((x - x.mean()) ** 2)
    m4 = np.mean((x - x.mean()) ** 4)
    beta = beta_from_kurtosis(m4 / m2 ** 2)
    assert abs(beta - beta0) < 0.05 * beta0


@pytest.mark.parametrize("beta0", [0.5, 1.0, 2.0, 4.0])
def test_entropy_matches_monte_carlo(rng, beta0):
    x = sample_ggd(rng, 1.0, beta0, 1_000_000)
    counts, edges = np.histogram(x, bins=400)
    widths = np.diff(edges)
    p = counts / counts.sum()
    nz = p > 0
    h_mc = -np.sum(p[nz] * np.log(p[nz] / widths[nz]))
    h_cf = ggd_entropy(1.0, beta0)
    assert abs(h_mc - h_cf) < 0.015 * abs(h_cf)
