from dataclasses import replace

import numpy as np
import pytest

from qasfg.trajectory import (
    TrajectoryError, TrajectorySpec, _grid_factors, _theta, angle_profiles,
    beta_profile, boundary_check, delta_k_profile,
)

KAPPA, LENGTH = 7623.0, 1e-3


@pytest.fixture(scope="module")
def angles():
    return angle_profiles(TrajectorySpec(KAPPA, LENGTH))


@pytest.fixture(scope="module")
def mismatch(angles):
    return delta_k_profile(angles)


def test_spec_validation():
    with pytest.raises(TrajectoryError):
        TrajectorySpec(3000.0, 1e-3)  # kappa*L < pi
    with pytest.raises(TrajectoryError):
        TrajectorySpec(KAPPA, 1e-3, grid_n=4000)  # even
    with pytest.raises(TrajectoryError):
        TrajectorySpec(KAPPA, 1e-3, grid_n=501)  # too small
    with pytest.raises(TrajectoryError):
        TrajectorySpec(KAPPA, -1e-3)


def test_theta_endpoints(angles):
    assert angles.theta[0] == 0.0
    assert angles.theta[-1] == pytest.approx(np.pi, rel=1e-12)


def test_theta_midpoint(angles):
    mid = len(angles.z) // 2
    assert angles.theta[mid] == pytest.approx(np.pi / 2, rel=1e-12)


def test_theta_dot_midpoint_oracle(angles):
    # symbolic differentiation of the quintic gives kappa - 1.875 (kL - pi)/L
    expected = KAPPA - 1.875 * (KAPPA * LENGTH - np.pi) / LENGTH
    mid = len(angles.z) // 2
    assert angles.theta_dot[mid] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-779.64, abs=0.01)


def test_beta_endpoints_and_midpoint(angles):
    assert angles.beta[0] == pytest.approx(-np.pi / 2, rel=1e-12)
    assert angles.beta[-1] == pytest.approx(-np.pi / 2, rel=1e-12)
    mid = len(angles.z) // 2
    sin_beta_mid = -angles.theta_dot[mid] / KAPPA
    assert np.sin(angles.beta[mid]) == pytest.approx(sin_beta_mid, rel=1e-12)
    assert sin_beta_mid == pytest.approx(0.102274, abs=1e-5)


def test_beta_profile_rejects_overspeed():
    with pytest.raises(TrajectoryError):
        beta_profile(100.0, np.array([0.0, 101.0, 0.0]))


def test_defining_identity_residual(angles):
    # theta' = -kappa sin(beta) at every node
    residual = np.abs(angles.theta_dot + KAPPA * np.sin(angles.beta))
    assert residual.max() <= 1e-9 * KAPPA


def test_auxiliary_equation_residual(angles, mismatch):
    # beta' + kappa cot(theta) cos(beta) + dk = 0, with beta' reconstructed
    # by central finite differences on the sampled beta (interior nodes).
    z, beta, theta = angles.z, angles.beta, angles.theta
    beta_dot_fd = (beta[2:] - beta[:-2]) / (z[2] - z[0])
    cos_beta = np.cos(beta[1:-1])
    residual = np.abs(beta_dot_fd
                      + KAPPA * (np.cos(theta[1:-1]) / np.sin(theta[1:-1])) * cos_beta
                      + mismatch.delta_k[1:-1])
    assert residual.max() <= 1e-6 * np.abs(mismatch.delta_k).max()


def test_theta_dot_symmetry(angles):
    td = angles.theta_dot
    assert np.abs(td - td[::-1]).max() <= 1e-9 * np.abs(td).max()
    tdd = angles.theta_ddot
    assert np.abs(tdd + tdd[::-1]).max() <= 1e-9 * np.abs(tdd).max()


def test_alpha_starts_at_zero_and_is_finite(angles):
    assert angles.alpha[0] == 0.0
    assert np.all(np.isfinite(angles.alpha)) and np.all(np.isfinite(angles.m))
    assert np.array_equal(angles.m, 2.0 * angles.alpha - angles.beta)
    assert np.all(np.isfinite(angles.m_select))


def test_alpha_grid_self_convergence():
    a1 = angle_profiles(TrajectorySpec(KAPPA, LENGTH, 2001)).alpha[-1]
    a2 = angle_profiles(TrajectorySpec(KAPPA, LENGTH, 4001)).alpha[-1]
    assert abs(a2 - a1) < 1e-6


def test_delta_k_midpoint_zero(angles, mismatch):
    mid = len(angles.z) // 2
    assert abs(mismatch.delta_k[mid]) < 1e-9 * np.abs(mismatch.delta_k).max()


def test_delta_k_endpoint_limits(angles, mismatch):
    d = KAPPA * LENGTH - np.pi
    edge = 2.0 * np.sqrt(60.0 * d / (KAPPA * LENGTH ** 3))
    assert mismatch.delta_k[0] == pytest.approx(-edge, rel=1e-12)
    assert mismatch.delta_k[-1] == pytest.approx(edge, rel=1e-12)
    assert edge == pytest.approx(1.1878e4, rel=1e-3)


def test_delta_k_endpoint_matches_direct_evaluation():
    # evaluate the interior formula very close to z = 0 and compare
    k, L = KAPPA, LENGTH
    z = 1e-6 * L
    s = z / L
    d = k * L - np.pi
    theta = k * z - d * (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)
    theta_dot = k - (30.0 * d / L) * s ** 2 * (1 - s) ** 2
    theta_ddot = -(60.0 * d / L ** 2) * s * (1 - s) * (1 - 2 * s)
    cos_beta = np.sqrt(1.0 - (theta_dot / k) ** 2)
    direct = theta_ddot / (k * cos_beta) - k * (np.cos(theta) / np.sin(theta)) * cos_beta
    edge = -2.0 * np.sqrt(60.0 * d / (k * L ** 3))
    assert direct == pytest.approx(edge, rel=1e-3)


def test_delta_k_antisymmetry(angles, mismatch):
    dk = mismatch.delta_k
    assert np.abs(dk + dk[::-1]).max() <= 1e-6 * np.abs(dk).max()


def test_phi_accumulates_from_zero(mismatch):
    assert mismatch.phi[0] == 0.0
    assert np.all(np.isfinite(mismatch.phi))


def test_scale_covariance():
    # equal kappa*L: theta vs s identical, dk scales as 1/L
    a1 = angle_profiles(TrajectorySpec(7623.0, 1e-3))
    a2 = angle_profiles(TrajectorySpec(3811.5, 2e-3))
    assert np.abs(a1.theta - a2.theta).max() < 1e-9
    d1 = delta_k_profile(a1).delta_k
    d2 = delta_k_profile(a2).delta_k
    assert np.abs(d1 - 2.0 * d2).max() <= 1e-9 * np.abs(d1).max()


def test_profile_invalid_when_theta_leaves_range():
    with pytest.raises(TrajectoryError):
        angle_profiles(TrajectorySpec(25000.0, 1e-3))  # kappa*L = 25


def test_boundary_check_passes(angles, mismatch):
    report = boundary_check(angles, mismatch)
    assert report["all_ok"]
    assert not report["near_degenerate"]


def test_boundary_check_flags_near_degenerate():
    kappa = (np.pi + 1e-6) / 1e-3
    a = angle_profiles(TrajectorySpec(kappa, 1e-3))
    m = delta_k_profile(a)
    report = boundary_check(a, m)
    assert report["all_ok"]
    assert report["near_degenerate"]
    assert abs(m.delta_k[0]) < 20.0  # nearly unchirped


def test_boundary_check_catches_tampering(angles, mismatch):
    theta_bad = angles.theta.copy()
    theta_bad[-1] = np.pi - 0.01
    report = boundary_check(replace(angles, theta=theta_bad), mismatch)
    assert not report["all_ok"]
    assert not report["theta_end"]["ok"]


def _closed_form_theta(k, L, grid_n):
    """The trajectory formed inline, every grid array rebuilt per call: the
    bit-for-bit reference of _theta on cached grid factors."""
    z = np.linspace(0.0, L, grid_n)
    s = z / L
    d = k * L - np.pi
    theta = k * z - d * (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)
    theta_dot = k - (30.0 * d / L) * s ** 2 * (1 - s) ** 2
    theta_ddot = -(60.0 * d / L ** 2) * s * (1 - s) * (1 - 2 * s)
    return z, theta, theta_dot, theta_ddot


@pytest.mark.parametrize("grid_n", [1001, 4001])
@pytest.mark.parametrize("length", [0.2e-3, 1e-3, 20e-3, 1.0])
def test_theta_on_grid_factors_is_the_closed_form(length, grid_n):
    grid = _grid_factors(length, grid_n)
    column = np.linspace(1.05 * np.pi, 25.0, 9)[:, None] / length
    for k in (7.3 / length, float(column[4, 0]), column):
        ref = _closed_form_theta(k, length, grid_n)
        assert all(np.array_equal(a, b) for a, b in zip(_theta(k, grid), ref))
