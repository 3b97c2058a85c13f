"""Error-sensitivity integrals, the first-order perturbed efficiency, and
the robustness-optimal coupling search.

Two phase conventions coexist (see trajectory.AngleProfiles): the selector
phase m_select ranks designs and locates the reference optimal couplings;
the term-wise phase m feeds the quantitative second-order deficit
predictions, which match direct coupled-wave simulation.

q has one formula (_q_integral). q_deltak / q_kappa apply it to an
AngleProfiles; the kappa* search applies it through the kernel _q, which
builds only what q reads and gives the same numbers.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .trajectory import _check_grid_n, _grid_factors, _select_phase, _simpson, _theta

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

# Grid samples in each row block of the kappa*L scan: each temporary of a
# block is about 64 KiB, below glibc's default 128 KiB mmap threshold, so
# the block temporaries come from the heap, not from fresh mappings that
# each block would fault in again.
SCAN_SAMPLES = 1 << 13

# Grid nodes of every kappa*L scan row, whatever the design grid: the rows
# only rank the couplings to pick the golden section's bracket, and the
# ranking is confirmed on the design grid.
SCAN_GRID_N = 251

# Couplings of every kappa*L scan, and the width (rad/m) of kappa at which
# the golden section stops.
SCAN_POINTS = 400
TOL = 0.1


@dataclass(frozen=True)
class OptimizeResult:
    kappa_opt: float  # rad/m
    q_opt: float
    target: str
    length: float
    at_boundary: bool
    trace_kappa: np.ndarray
    trace_q: np.ndarray


def _q_integral(target, m_select, sin_theta, theta_dot, z):
    """(1/4)|int e^{i m_select} g dz|^2 over the last axis, with g = sin(theta)
    for the deltak target and 2 theta' sin^2(theta) for kappa, as
    (1/4)(Re^2 + Im^2) of the cos and sin integrals."""
    if target == "deltak":
        g = sin_theta
    else:
        g = sin_theta * sin_theta * theta_dot * 2.0
    re = _simpson(np.cos(m_select) * g, z)
    im = _simpson(np.sin(m_select) * g, z)
    return 0.25 * (re * re + im * im)


def q_deltak(angles):
    """Mismatch-error sensitivity (1/4)|int e^{i m_select} sin(theta) dz|^2, m^2."""
    return _q_integral("deltak", angles.m_select, np.sin(angles.theta),
                       angles.theta_dot, angles.z)


def q_kappa(angles):
    """Coupling-error sensitivity (1/4)|int e^{i m_select} 2 theta' sin^2(theta) dz|^2."""
    return _q_integral("kappa", angles.m_select, np.sin(angles.theta),
                       angles.theta_dot, angles.z)


def _q(k, length, grid_n, target, grid=None):
    """q of the target for the coupling k, a float or an (R, 1) column of
    couplings (one row each), and whether theta stays inside (0, pi) on the
    interior. The same numbers as q_deltak / q_kappa of angle_profiles, from
    only what q reads: theta, theta', theta'', sin(theta) once, cos(beta),
    m_select and the target integrand. q of a row whose theta leaves (0, pi)
    is meaningless. grid is _grid_factors(length, grid_n), built here when
    None."""
    if grid is None:
        grid = _grid_factors(length, grid_n)
    z, theta, theta_dot, theta_ddot = _theta(k, grid)
    sin_theta = np.sin(theta)
    inside = np.min(sin_theta[..., 1:-1], axis=-1) > 0.0
    m_select = _select_phase(k, z, theta_dot, theta_ddot, sin_theta)
    return _q_integral(target, m_select, sin_theta, theta_dot, z), inside


def perturbation_coefficients(angles):
    """Second-order deficit coefficients (c_deltak [m^2], c_kappa [1]).

    These use the term-wise phase m = 2*alpha - beta and give
    1 - eta ~= eta_dk^2 c_deltak + eta_k^2 c_kappa, matching direct
    simulation in the perturbative regime.
    """
    phase = np.exp(1j * angles.m)
    s1 = _simpson(phase * np.sin(angles.theta), angles.z)
    s2 = _simpson(phase * 2.0 * angles.theta_dot * np.sin(angles.theta) ** 2, angles.z)
    return 0.25 * np.abs(s1) ** 2, 0.25 * np.abs(s2) ** 2


def _first_order_estimates(angles, amplitudes, eta_deltak=0.0, eta_kappa=0.0):
    """first_order_efficiency at each error profile amplitudes[i] *
    (eta_deltak, eta_kappa), from its integral at unit amplitude taken once:
    1 - (1/4)|amplitude * integral|^2, clamped to [0, 1]."""
    sin = np.sin(angles.theta)
    bracket = (2.0 * eta_kappa * angles.theta_dot * sin ** 2).astype(complex)
    bracket.imag = np.asarray(eta_deltak) * sin
    unit = _simpson(np.exp(1j * angles.m) * bracket, angles.z)
    return np.clip(1.0 - 0.25 * np.abs(amplitudes * unit) ** 2, 0.0, 1.0)


def first_order_efficiency(angles, eta_deltak=0.0, eta_kappa=0.0):
    """First-order perturbed efficiency, clamped to [0, 1]:

        1 - (1/4)|int e^{i m} (i eta_dk sin(theta)
                               + 2 eta_k theta' sin^2(theta)) dz|^2.

    eta_deltak may be a scalar or a profile sampled on the angles grid
    (e.g. a period-error amplitude varying with the local period).
    """
    return float(_first_order_estimates(angles, 1.0, eta_deltak, eta_kappa))


def eta_from_period_error(rel_error, period):
    """Mismatch error amplitude -2 pi (dLambda/Lambda) / Lambda for a uniform
    relative period offset. period may be a scalar or the sampled profile."""
    if abs(rel_error) >= 1.0:
        raise ValueError(f"relative period error must satisfy |e| < 1, got {rel_error}")
    out = -2.0 * np.pi * rel_error / np.asarray(period, dtype=float)
    return float(out) if np.ndim(period) == 0 else out


def _q_eval(kappa, grid, target):
    """q at one coupling of the real problem on the grid factors grid, +inf
    where there is no valid trajectory (kappa*L <= pi, or theta leaving
    (0, pi))."""
    if kappa * grid.length <= np.pi:
        return np.inf
    q, inside = _q(kappa, grid.length, grid.z.size, target, grid)
    return q if inside else np.inf


INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _downhill(xs, qs, grid_n, target):
    """Index of the scan row that centres the golden section's bracket: the
    argmin of the SCAN_GRID_N rows qs, moved to its lowest neighbour while
    that neighbour is lower on grid_n, so it stops at a local minimum of the
    unit-length q on grid_n. A row whose theta leaves (0, pi) on grid_n is
    +inf, so uphill. Ties go to the lower index, as in np.argmin."""
    best = int(np.argmin(qs))
    if not np.isfinite(qs[best]):  # no valid row: optimize_kappa raises
        return best
    grid = _grid_factors(1.0, grid_n)
    fine = {}

    def q_at(i):
        if i not in fine:
            fine[i] = _q_eval(xs[i], grid, target)
        return fine[i]

    while True:
        step = min(range(max(best - 1, 0), min(best + 2, len(xs))), key=q_at)
        if step == best:
            return best
        best = step


def _golden(searches, xs, best, grid_n, target, width):
    """The final bracket (a, b) in x = kappa*L of the golden section on the
    unit-length problem on grid_n: from the rows beside the confirmed row
    best to the first state (a, b, c, d, qc, qd) with b - a <= width, or
    that floating point cannot shrink. Its points and comparisons do not
    depend on the length, so the states are memoised in searches[grid_n]
    beside the confirmed row, and a search walks them and solves only the
    states past the last one, as a narrower width asks."""
    states = searches.setdefault(grid_n, (best, ()))[1]
    for a, b, c, d, _, _ in states:
        if not (b - a > width and a < c < d < b):
            return a, b
    grid = _grid_factors(1.0, grid_n)
    states = list(states)
    if not states:
        a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
        c = b - INV_GOLDEN * (b - a)
        d = a + INV_GOLDEN * (b - a)
        states.append((a, b, c, d, _q_eval(c, grid, target), _q_eval(d, grid, target)))
    a, b, c, d, qc, qd = states[-1]
    while b - a > width and a < c < d < b:
        if qc < qd:
            b, d, qd = d, c, qc
            c = b - INV_GOLDEN * (b - a)
            qc = _q_eval(c, grid, target)
        else:
            a, c, qc = c, d, qd
            d = a + INV_GOLDEN * (b - a)
            qd = _q_eval(d, grid, target)
        states.append((a, b, c, d, qc, qd))
    # racing callers extend their own copies; the longest is kept
    if len(states) > len(searches[grid_n][1]):
        searches[grid_n] = (best, tuple(states))
    return a, b


@lru_cache(maxsize=64)
def _scan_rows(target, x_lo, x_hi):
    """The couplings xs = linspace(x_lo, x_hi, SCAN_POINTS), the sensitivity
    qs = Q(xs) of the unit-length problem on SCAN_GRID_N nodes (+inf where
    theta leaves (0, pi)), and searches, a dict mapping each grid_n already
    confirmed to its row index and the golden-section states memoised from
    that row's bracket.

    q is scale-free: q_deltak(kappa, L) = L^2 Q(kappa L) and
    q_kappa(kappa, L) = Q(kappa L), so one scan serves every length. Each
    row is the kernel _q at x on SCAN_GRID_N nodes, bit for bit what _q
    gives for x alone: theta from the closed-form trajectory, then only
    sin(theta), the selector phase and the target integral, never beta,
    alpha or m. Up to kappa*L 18 the rows differ from rows on a finer grid
    by about 1e-3 relative at most (more where theta grazes pi) and rank
    the couplings as the design grid does; _downhill confirms the argmin
    on grid_n.

    The rows are solved on the calling thread in blocks of
    SCAN_SAMPLES // SCAN_GRID_N rows on grid factors built once per scan;
    every row is the same whatever the block. An exception leaves nothing
    cached. The arrays are shared between callers and therefore read-only.
    """
    xs = np.linspace(x_lo, x_hi, SCAN_POINTS)
    qs = np.empty(SCAN_POINTS)
    grid = _grid_factors(1.0, SCAN_GRID_N)
    rows = max(1, SCAN_SAMPLES // SCAN_GRID_N)
    for i in range(0, SCAN_POINTS, rows):
        q, inside = _q(xs[i:i + rows, None], 1.0, SCAN_GRID_N, target, grid)
        qs[i:i + rows] = np.where(inside, q, np.inf)
    xs.flags.writeable = qs.flags.writeable = False
    return xs, qs, {}


def optimize_kappa(length, target="deltak", search_range=None, grid_n=4001):
    """Robustness-optimal coupling for the chosen error channel.

    Coarse uniform scan of SCAN_POINTS couplings over the search range
    followed by golden-section refinement to within TOL (rad/m). Both run
    in x = kappa*L on the unit-length problem, where q is scale-free (see
    _scan_rows): the scan at SCAN_GRID_N nodes with its minimum confirmed
    on grid_n, the golden section on grid_n until its bracket is at most
    TOL*L wide in x, the same stopping rule as TOL in kappa. Neither
    depends on the length, so both are memoised: designs that share the
    target and kappa*L window share the scan rows, and those that also
    share the grid share the bracket and the golden-section states, which
    a shorter length extends. kappa* is the middle of the final bracket
    over L. q_opt is computed at the real length on grid_n, the one q
    evaluation of a warm search; trace_q holds the scan rows, rescaled to
    the length. Invalid trajectories evaluate to +inf. A minimum on the
    range boundary is reported via at_boundary, not hidden.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    _check_grid_n(grid_n)
    if search_range is None:
        x_lo, x_hi = KL_SEARCH_MIN, KL_SEARCH_MAX
    else:
        lo, hi = search_range
        if not (np.isfinite(hi) and hi > lo > 0.0):
            raise ValueError(f"invalid search range ({lo}, {hi})")
        x_lo, x_hi = lo * length, hi * length
        if x_lo <= np.pi:
            raise ValueError(
                f"search range must satisfy kappa*L > pi; lower bound gives "
                f"kappa*L = {x_lo:.4f}")

    xs, qs_unit, searches = _scan_rows(target, x_lo, x_hi)
    # confirm the row once per grid; racing searches confirm the same one
    if grid_n not in searches:
        searches.setdefault(grid_n, (_downhill(xs, qs_unit, grid_n, target), ()))
    best = searches[grid_n][0]
    if not np.any(np.isfinite(qs_unit)):
        raise ValueError("no valid trajectory in the search range")
    a, b = _golden(searches, xs, best, grid_n, target, TOL * length)
    kappa_opt = 0.5 * (a + b) / length
    ks = xs / length
    qs = qs_unit * length ** 2 if target == "deltak" else qs_unit.copy()
    return OptimizeResult(
        kappa_opt=float(kappa_opt),
        q_opt=float(_q_eval(kappa_opt, _grid_factors(length, grid_n), target)),
        target=target, length=length, at_boundary=best in (0, SCAN_POINTS - 1),
        trace_kappa=ks, trace_q=qs)
