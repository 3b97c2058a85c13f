"""Error-sensitivity integrals, the first-order perturbed efficiency, and
the robustness-optimal coupling search.

Two phase conventions coexist (see trajectory.AngleProfiles): the selector
phase m_select ranks designs and locates the reference optimal couplings;
the term-wise phase m feeds the quantitative second-order deficit
predictions, which match direct coupled-wave simulation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .trajectory import TrajectoryError, TrajectorySpec, angle_profiles

__all__ = [
    "OptimizeResult", "q_deltak", "q_kappa", "perturbation_coefficients",
    "first_order_efficiency", "eta_from_period_error", "optimize_kappa",
]

TARGETS = ("deltak", "kappa")

# Dimensionless default search window for kappa*L. The lower edge excludes
# the kappa*L <= pi regime where no trajectory exists; the upper edge stays
# clear of kappa*L ~ 19 where theta grazes pi and the interference integrals
# develop spurious deep dips on degenerate profiles.
KL_SEARCH_MIN = 1.05 * np.pi
KL_SEARCH_MAX = 10.0


@dataclass(frozen=True)
class OptimizeResult:
    kappa_opt: float  # rad/m
    q_opt: float
    target: str
    length: float
    at_boundary: bool
    trace_kappa: np.ndarray
    trace_q: np.ndarray


def q_deltak(angles):
    """Mismatch-error sensitivity (1/4)|int e^{i m_select} sin(theta) dz|^2, m^2."""
    f = np.exp(1j * angles.m_select) * np.sin(angles.theta)
    return 0.25 * np.abs(simpson(f, x=angles.z)) ** 2


def q_kappa(angles):
    """Coupling-error sensitivity (1/4)|int e^{i m_select} 2 theta' sin^2(theta) dz|^2."""
    f = np.exp(1j * angles.m_select) * 2.0 * angles.theta_dot * np.sin(angles.theta) ** 2
    return 0.25 * np.abs(simpson(f, x=angles.z)) ** 2


def perturbation_coefficients(angles):
    """Second-order deficit coefficients (c_deltak [m^2], c_kappa [1]).

    These use the term-wise phase m = 2*alpha - beta and give
    1 - eta ~= eta_dk^2 c_deltak + eta_k^2 c_kappa, matching direct
    simulation in the perturbative regime.
    """
    phase = np.exp(1j * angles.m)
    s1 = simpson(phase * np.sin(angles.theta), x=angles.z)
    s2 = simpson(phase * 2.0 * angles.theta_dot * np.sin(angles.theta) ** 2, x=angles.z)
    return 0.25 * np.abs(s1) ** 2, 0.25 * np.abs(s2) ** 2


def first_order_efficiency(angles, eta_deltak=0.0, eta_kappa=0.0):
    """First-order perturbed efficiency, clamped to [0, 1]:

        1 - (1/4)|int e^{i m} (i eta_dk sin(theta)
                               + 2 eta_k theta' sin^2(theta)) dz|^2.

    eta_deltak may be a scalar or a profile sampled on the angles grid
    (e.g. a period-error amplitude varying with the local period).
    """
    phase = np.exp(1j * angles.m)
    integ = phase * (1j * np.asarray(eta_deltak) * np.sin(angles.theta)
                     + 2.0 * eta_kappa * angles.theta_dot
                     * np.sin(angles.theta) ** 2)
    full = 1.0 - 0.25 * np.abs(simpson(integ, x=angles.z)) ** 2
    return float(min(max(full, 0.0), 1.0))


def eta_from_period_error(rel_error, period):
    """Mismatch error amplitude -2 pi (dLambda/Lambda) / Lambda for a uniform
    relative period offset. period may be a scalar or the sampled profile."""
    if abs(rel_error) >= 1.0:
        raise ValueError(f"relative period error must satisfy |e| < 1, got {rel_error}")
    out = -2.0 * np.pi * rel_error / np.asarray(period, dtype=float)
    return float(out) if np.ndim(period) == 0 else out


def _q_eval(kappa, length, grid_n, qfun):
    try:
        return qfun(angle_profiles(TrajectorySpec(kappa, length, grid_n)))
    except TrajectoryError:
        return np.inf


def optimize_kappa(length, target="deltak", search_range=None, scan_points=400,
                   tol=0.1, grid_n=4001):
    """Robustness-optimal coupling for the chosen error channel.

    Coarse uniform scan over the search range followed by golden-section
    refinement to within tol (rad/m). Invalid trajectories evaluate to +inf.
    A minimum on the range boundary is reported via at_boundary, not hidden.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")
    qfun = q_deltak if target == "deltak" else q_kappa
    if search_range is None:
        search_range = (KL_SEARCH_MIN / length, KL_SEARCH_MAX / length)
    lo, hi = search_range
    if not (hi > lo > 0.0):
        raise ValueError(f"invalid search range ({lo}, {hi})")
    if lo * length <= np.pi:
        raise ValueError(
            f"search range must satisfy kappa*L > pi; lower bound gives "
            f"kappa*L = {lo * length:.4f}")
    if scan_points < 400:
        raise ValueError(f"scan needs at least 400 points, got {scan_points}")

    ks = np.linspace(lo, hi, scan_points)
    qs = np.array([_q_eval(k, length, grid_n, qfun) for k in ks])
    if not np.any(np.isfinite(qs)):
        raise ValueError("no valid trajectory in the search range")
    best = int(np.argmin(qs))
    at_boundary = best in (0, scan_points - 1)

    a = ks[max(best - 1, 0)]
    b = ks[min(best + 1, scan_points - 1)]
    inv_gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_gr * (b - a)
    d = a + inv_gr * (b - a)
    qc = _q_eval(c, length, grid_n, qfun)
    qd = _q_eval(d, length, grid_n, qfun)
    while b - a > tol:
        if qc < qd:
            b, d, qd = d, c, qc
            c = b - inv_gr * (b - a)
            qc = _q_eval(c, length, grid_n, qfun)
        else:
            a, c, qc = c, d, qd
            d = a + inv_gr * (b - a)
            qd = _q_eval(d, length, grid_n, qfun)
    kappa_opt = 0.5 * (a + b)
    return OptimizeResult(
        kappa_opt=float(kappa_opt),
        q_opt=float(_q_eval(kappa_opt, length, grid_n, qfun)),
        target=target, length=length, at_boundary=at_boundary,
        trace_kappa=ks, trace_q=qs)
