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


def _simpson(y, z, half=None):
    """Composite Simpson integral of y over the last axis, sampled on the
    uniform grid z with an odd number of samples. The panel sums go to
    half, an array shaped like y[..., 1:-1:2], or to a new array."""
    dx = (z[-1] - z[0]) / (z.size - 1)
    panels = np.multiply(4.0, y[..., 1:-1:2], out=half)
    panels += y[..., :-2:2]
    panels += y[..., 2::2]
    return np.sum(panels, axis=-1) * (dx / 3.0)


def _cumulative_simpson(y, z, out=None, half=(None, None)):
    """Running integral of y over the last axis from z[0], on the uniform grid
    z with an odd number of samples: the composite rule at even samples, plus
    the integral of the panel's parabola over its first cell at odd ones.
    It is written to out and the panel terms to the two half arrays (shaped
    as in _simpson), or to new arrays."""
    dx = (z[-1] - z[0]) / (z.size - 1)
    left, mid, right = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]
    if out is None:
        out = np.empty_like(y)
    out[..., 0] = 0.0
    panels = np.multiply(4.0, mid, out=half[0])
    panels += left
    panels += right
    panels *= dx / 3.0
    np.cumsum(panels, axis=-1, out=out[..., 2::2])
    first = np.multiply(5.0, left, out=panels)
    first += np.multiply(8.0, mid, out=half[1])
    first -= right
    first *= dx / 12.0
    np.add(out[..., :-1:2], first, out=out[..., 1::2])
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


def _theta(k, grid, out=(None, None, None)):
    """Closed-form polynomial trajectory on the grid factors grid:
    (z, theta, theta', theta'').

    theta(z) = kappa z - (kappa L - pi)(10 s^3 - 15 s^4 + 6 s^5), s = z/L,
    with derivatives evaluated analytically. k is a float, or an (R, 1)
    column of couplings with one trajectory per row. theta, theta' and
    theta'' are written to the three arrays of out, or to new arrays.
    """
    L = grid.length
    theta, theta_dot, theta_ddot = out
    d = k * L - np.pi
    # theta'' holds d * poly until theta is formed
    d_poly = np.multiply(d, grid.poly, out=theta_ddot)
    theta = np.multiply(k, grid.z, out=theta)
    theta -= d_poly
    theta_dot = np.multiply(30.0 * d / L, grid.s2, out=theta_dot)
    theta_dot *= grid.one_minus_s2
    np.subtract(k, theta_dot, out=theta_dot)
    theta_ddot = np.multiply(-(60.0 * d / L ** 2), grid.s, out=d_poly)
    theta_ddot *= grid.one_minus_s
    theta_ddot *= grid.one_minus_2s
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


def _cos_beta(k, theta_dot, out=None):
    """cos(beta) = sqrt(1 - (theta'/kappa)^2) >= 0, clipped at 0, written to
    out or to a new array."""
    c = np.divide(theta_dot, k, out=out)
    np.multiply(c, c, out=c)
    np.subtract(1.0, c, out=c)
    np.maximum(c, 0.0, out=c)
    return np.sqrt(c, out=c)


def _select_phase(k, z, theta_dot, theta_ddot, sin_theta, rate=None, out=None,
                  half=(None, None)):
    """Selector phase m_select: the running integral of the single-fraction
    rate (beta' + theta' cot beta)/sin(theta). With beta' = -theta''/(kappa
    cos beta) and theta' cot beta = -kappa cos beta the rate is
    -(theta''/(kappa cos beta) + kappa cos beta)/sin(theta). Its 1/z endpoint
    divergence is clipped to the neighbouring interior value (the q
    integrands vanish there, and the accumulated phase is grid-stable; see
    tests). k is a float or an (R, 1) column, one trajectory per row. The
    rate is formed in rate and the phase in out, with half as the Simpson
    panel arrays of _cumulative_simpson; each that is None is a new array.
    The inputs are not modified."""
    rate = _cos_beta(k, theta_dot, rate)
    rate *= -k
    if out is None:
        out = np.empty_like(rate)
    inner = rate[..., 1:-1]
    inner += np.divide(theta_ddot[..., 1:-1], inner, out=out[..., 1:-1])
    inner /= sin_theta[..., 1:-1]
    rate[..., 0], rate[..., -1] = rate[..., 1], rate[..., -2]
    return _cumulative_simpson(rate, z, out, half)


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


def boundary_check(angles, mismatch, rel_tol=1e-9):
    """Verify the design boundary conditions on the sampled arrays.

    Returns a dict with one entry per condition: {"ok": bool, "value": float,
    "expected": float, or None where no value is expected}, plus "all_ok"
    and a "near_degenerate" flag raised when kappa*L is so close to pi that
    the endpoint mismatch nearly vanishes.
    """
    k, L = angles.kappa, angles.length
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
