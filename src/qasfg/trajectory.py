"""Invariant-based inverse engineering of the phase-mismatch profile.

Builds the polynomial mixing-angle trajectory theta(z), the auxiliary angle
beta(z), the accumulated invariant phases, and the synthesized mismatch
Delta-k(z) for a constant coupling rate kappa over a crystal of length L.

Conventions (the unique mutually consistent set):
    theta' = -kappa sin(beta)          ->  beta = arcsin(-theta'/kappa)
    cos(beta) = +sqrt(1 - (theta'/kappa)^2) everywhere
    beta' = -kappa cot(theta) cos(beta) - dk(z)
Removable endpoint singularities are replaced by their closed-form limits.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrajectoryError", "TrajectorySpec", "AngleProfiles", "MismatchProfile",
    "beta_profile", "angle_profiles", "delta_k_profile",
    "boundary_check",
]


class TrajectoryError(ValueError):
    """Invalid trajectory spec or profile (e.g. kappa*L <= pi)."""


def _check_grid_n(grid_n):
    """Raise TrajectoryError unless grid_n is odd, as the Simpson rules below
    require, and at least 1001."""
    if grid_n < 1001 or grid_n % 2 == 0:
        raise TrajectoryError(f"grid size must be odd and >= 1001, got {grid_n}")


def _simpson(y, z):
    """Composite Simpson integral of y over the last axis, sampled on the
    uniform grid z with an odd number of samples."""
    dx = (z[-1] - z[0]) / (z.size - 1)
    return np.sum(4.0 * y[..., 1:-1:2] + y[..., :-2:2] + y[..., 2::2],
                  axis=-1) * (dx / 3.0)


def _cumulative_simpson(y, z):
    """Running integral of y over the last axis from z[0], on the uniform grid
    z with an odd number of samples: the composite rule at even samples, plus
    the integral of the panel's parabola over its first cell at odd ones."""
    dx = (z[-1] - z[0]) / (z.size - 1)
    left, mid, right = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]
    out = np.empty_like(y)
    out[..., 0] = 0.0
    out[..., 2::2] = np.cumsum((4.0 * mid + left + right) * (dx / 3.0), axis=-1)
    out[..., 1::2] = out[..., :-1:2] + (5.0 * left + 8.0 * mid - right) * (dx / 12.0)
    return out


@dataclass(frozen=True)
class TrajectorySpec:
    """Constant coupling rate kappa (rad/m), crystal length L (m), grid size N."""

    kappa: float
    length: float
    grid_n: int = 4001

    def __post_init__(self):
        if self.length <= 0:
            raise TrajectoryError(f"length must be positive, got {self.length}")
        if self.kappa * self.length <= np.pi:
            raise TrajectoryError(
                f"kappa*L must exceed pi for a real profile; got kappa*L = "
                f"{self.kappa * self.length:.6f}")
        _check_grid_n(self.grid_n)


@dataclass(frozen=True)
class AngleProfiles:
    """Sampled trajectory angles and accumulated phases on a uniform grid.

    alpha and m = 2*alpha - beta use the term-wise phase-rate grouping
    beta' + (theta' cot beta)/sin(theta), whose endpoint limits are finite;
    these drive the quantitative efficiency-deficit predictions.
    m_select accumulates the single-fraction grouping
    (beta' + theta' cot beta)/sin(theta) and carries no beta term; it is the
    phase under which the tabulated robustness-optimal couplings of the
    reference designs are selected.
    """

    kappa: float
    length: float
    z: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    theta_ddot: np.ndarray
    beta: np.ndarray
    beta_dot: np.ndarray
    alpha: np.ndarray
    m: np.ndarray
    m_select: np.ndarray
    edge_rate: float


@dataclass(frozen=True)
class MismatchProfile:
    """Synthesized mismatch dk(z) and its accumulated phase phi(z)."""

    z: np.ndarray
    delta_k: np.ndarray
    phi: np.ndarray
    kappa: float
    length: float


class _GridFactors(NamedTuple):
    """The arrays of the closed-form trajectory that depend only on the
    length L and the grid size: z, s = z/L, the polynomial
    10 s^3 - 15 s^4 + 6 s^5 and the factors s^2, (1 - s)^2, 1 - s and
    1 - 2 s. Each is cached as _theta's expression forms it, never a product
    of two of them, so _theta rounds as if it formed them itself."""

    length: float
    z: np.ndarray
    s: np.ndarray
    poly: np.ndarray
    s2: np.ndarray
    one_minus_s2: np.ndarray
    one_minus_s: np.ndarray
    one_minus_2s: np.ndarray


def _grid_factors(L, grid_n):
    """The grid factors of _theta for the length L on grid_n nodes."""
    z = np.linspace(0.0, L, grid_n)
    s = z / L
    return _GridFactors(L, z, s, 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5,
                        s ** 2, (1 - s) ** 2, 1 - s, 1 - 2 * s)


def _theta(k, grid):
    """Closed-form polynomial trajectory on the grid factors grid:
    (z, theta, theta', theta'').

    theta(z) = kappa z - (kappa L - pi)(10 s^3 - 15 s^4 + 6 s^5), s = z/L,
    with derivatives evaluated analytically. k is a float, or an (R, 1)
    column of couplings with one trajectory per row.
    """
    L = grid.length
    d = k * L - np.pi
    theta = k * grid.z - d * grid.poly
    theta_dot = k - 30.0 * d / L * grid.s2 * grid.one_minus_s2
    theta_ddot = -(60.0 * d / L ** 2) * grid.s * grid.one_minus_s * grid.one_minus_2s
    return grid.z, theta, theta_dot, theta_ddot


def beta_profile(kappa, theta_dot):
    """beta = arcsin(-theta'/kappa) on the principal branch (cos beta >= 0)."""
    sin_beta = -np.asarray(theta_dot) / kappa
    excess = np.max(np.abs(sin_beta)) - 1.0
    if excess > 1e-12:
        raise TrajectoryError(
            f"|theta'| exceeds kappa by relative {excess:.3e}; no real beta "
            "(kappa*L <= pi regime)")
    return np.arcsin(np.clip(sin_beta, -1.0, 1.0))


def _cos_beta(k, theta_dot):
    """cos(beta) = sqrt(1 - (theta'/kappa)^2) >= 0, clipped at 0."""
    c = theta_dot / k
    return np.sqrt(np.maximum(1.0 - c * c, 0.0))


def _select_phase(k, z, theta_dot, theta_ddot, sin_theta):
    """Selector phase m_select: the running integral of the single-fraction
    rate (beta' + theta' cot beta)/sin(theta). With beta' = -theta''/(kappa
    cos beta) and theta' cot beta = -kappa cos beta the rate is
    -(theta''/(kappa cos beta) + kappa cos beta)/sin(theta). Its 1/z endpoint
    divergence is clipped to the neighbouring interior value (the q
    integrands vanish there, and the accumulated phase is grid-stable; see
    tests). k is a float or an (R, 1) column, one trajectory per row."""
    rate = _cos_beta(k, theta_dot) * -k
    inner = rate[..., 1:-1]
    inner += theta_ddot[..., 1:-1] / inner
    inner /= sin_theta[..., 1:-1]
    rate[..., 0], rate[..., -1] = rate[..., 1], rate[..., -2]
    return _cumulative_simpson(rate, z)


def angle_profiles(spec):
    """Build the full sampled trajectory for a valid spec."""
    k, L = spec.kappa, spec.length
    z, theta, theta_dot, theta_ddot = _theta(k, _grid_factors(L, spec.grid_n))
    beta = beta_profile(k, theta_dot)
    cos_beta = _cos_beta(k, theta_dot)
    # sqrt(60 (kL - pi) / (k L^3)); |dk| at the endpoints is twice this.
    d_edge = np.sqrt(60.0 * (k * L - np.pi) / (k * L ** 3))
    sin_theta = np.sin(theta)
    if not np.all(sin_theta[1:-1] > 0.0):
        raise TrajectoryError(
            f"theta leaves (0, pi) on the interior for kappa*L = {k * L:.4f}; "
            "the phase integrand is singular and the profile is invalid")

    # beta' = -theta''/(kappa cos beta); removable 0/0 at the endpoints.
    beta_dot = np.empty_like(theta)
    beta_dot[1:-1] = -theta_ddot[1:-1] / (k * cos_beta[1:-1])
    beta_dot[0], beta_dot[-1] = d_edge, -d_edge

    # theta' cot(beta) = -kappa cos(beta) identically (safe where theta'=0).
    term = np.empty_like(theta)
    term[1:-1] = -k * cos_beta[1:-1] / sin_theta[1:-1]
    term[0] = term[-1] = -d_edge

    rate = beta_dot + term
    alpha = 0.5 * _cumulative_simpson(rate, z)
    m = 2.0 * alpha - beta
    m_select = _select_phase(k, z, theta_dot, theta_ddot, sin_theta)

    return AngleProfiles(
        kappa=k, length=L, z=z, theta=theta, theta_dot=theta_dot,
        theta_ddot=theta_ddot, beta=beta, beta_dot=beta_dot, alpha=alpha,
        m=m, m_select=m_select, edge_rate=d_edge)


def delta_k_profile(angles):
    """Synthesized mismatch dk(z) and accumulated phase phi(z).

    Interior: dk = theta''/(kappa cos beta) - kappa cot(theta) cos(beta).
    Endpoints: the closed-form limits dk(0) = -2*edge_rate, dk(L) = +2*edge_rate.
    """
    k = angles.kappa
    z, theta = angles.z, angles.theta
    cos_beta = _cos_beta(k, angles.theta_dot)
    sin_theta = np.sin(theta)

    dk = np.empty_like(z)
    dk[1:-1] = (angles.theta_ddot[1:-1] / (k * cos_beta[1:-1])
                - k * (np.cos(theta[1:-1]) / sin_theta[1:-1]) * cos_beta[1:-1])
    dk[0] = -2.0 * angles.edge_rate
    dk[-1] = 2.0 * angles.edge_rate
    if not np.all(np.isfinite(dk)):
        raise TrajectoryError("non-finite mismatch profile")

    phi = _cumulative_simpson(dk, z)
    return MismatchProfile(z=z, delta_k=dk, phi=phi, kappa=k, length=angles.length)


def boundary_check(angles, mismatch):
    """Verify the design boundary conditions on the sampled arrays, the
    angle conditions to 1e-9 of their scale.

    Returns a dict with one entry per condition: {"ok": bool, "value": float,
    "expected": float, or None where no value is expected}, plus "all_ok"
    and a "near_degenerate" flag raised when kappa*L is so close to pi that
    the endpoint mismatch nearly vanishes.
    """
    k, L, rel_tol = angles.kappa, angles.length, 1e-9
    scale_ddot = max(abs(angles.theta_ddot).max(), 1.0)

    def entry(value, expected, tol):
        return {"ok": bool(abs(value - expected) <= tol),
                "value": float(value), "expected": float(expected)}

    report = {
        "theta_start": entry(angles.theta[0], 0.0, rel_tol * np.pi),
        "theta_end": entry(angles.theta[-1], np.pi, rel_tol * np.pi),
        "theta_dot_start": entry(angles.theta_dot[0], k, rel_tol * k),
        "theta_dot_end": entry(angles.theta_dot[-1], k, rel_tol * k),
        "theta_ddot_start": entry(angles.theta_ddot[0], 0.0, rel_tol * scale_ddot),
        "theta_ddot_end": entry(angles.theta_ddot[-1], 0.0, rel_tol * scale_ddot),
        "delta_k_start": entry(mismatch.delta_k[0], -2 * angles.edge_rate,
                               1e-6 * max(2 * angles.edge_rate, 1.0)),
        "delta_k_end": entry(mismatch.delta_k[-1], 2 * angles.edge_rate,
                             1e-6 * max(2 * angles.edge_rate, 1.0)),
        "delta_k_finite": {"ok": bool(np.all(np.isfinite(mismatch.delta_k))),
                           "value": float(np.max(np.abs(mismatch.delta_k))),
                           "expected": None},
    }
    report["all_ok"] = all(v["ok"] for v in report.values())
    report["near_degenerate"] = bool(k * L - np.pi < 1e-3)
    return report
