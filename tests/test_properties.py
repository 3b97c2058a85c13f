"""Property tests: scale covariance of the sensitivities and of kappa*, the
numpy Simpson rules against scipy's, the memoised kappa*L scan and its rows
against the single-row q kernel and that kernel against angle_profiles,
its bracket against a row-by-row scan on the design grid, both
recorders (Manley-Rowe and unitarity, agreement with the exact undepleted
solution, step rounding), profile-reversal reciprocity of the exact
undepleted efficiency, and the FWHM and tolerance-interval invariants."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import cumulative_simpson, simpson

from qasfg import sensitivity
from qasfg.experiments import LAB_FRAME_COUPLING, fwhm_interval, tolerance_interval
from qasfg.propagation import (FieldState, simulate_depleted, simulate_undepleted,
                               undepleted_efficiencies)
from qasfg.sensitivity import (KL_SEARCH_MAX, KL_SEARCH_MIN, SCAN_GRID_N, TARGETS, _q,
                               optimize_kappa, q_deltak, q_kappa)
from qasfg.trajectory import (TrajectoryError, TrajectorySpec, _cumulative_simpson,
                              _simpson, angle_profiles, delta_k_profile)

REF_LENGTH = 1e-3
GRID = 1001

lengths = st.floats(0.2e-3, 20e-3)
targets = st.sampled_from(TARGETS)
# Few, reproducible examples: each one builds trajectories or runs a search.
few = settings(max_examples=8, deadline=None, derandomize=True, database=None)
# The propagation and scan bracket properties do not shrink: each shrink step
# reruns 4001-node propagations or several scans, which turns one failing
# example into minutes of reruns.
no_shrink = tuple(p for p in Phase if p is not Phase.shrink)


@few
@given(length=lengths, kl=st.floats(4.0, 9.5))
def test_q_scale_covariance(length, kl):
    ref = angle_profiles(TrajectorySpec(kl / REF_LENGTH, REF_LENGTH, GRID))
    got = angle_profiles(TrajectorySpec(kl / length, length, GRID))
    assert q_deltak(got) / length ** 2 == pytest.approx(
        q_deltak(ref) / REF_LENGTH ** 2, rel=1e-12)
    assert q_kappa(got) == pytest.approx(q_kappa(ref), rel=1e-12)


@few
@given(length=lengths, target=targets)
def test_kappa_opt_scale_covariance(length, target):
    ref = optimize_kappa(REF_LENGTH, target=target, grid_n=GRID)
    got = optimize_kappa(length, target=target, grid_n=GRID)
    # each golden-section result lies within tol/2 = 0.05 rad/m of the minimum
    assert abs(got.kappa_opt * length - ref.kappa_opt * REF_LENGTH) <= \
        0.05 * (length + REF_LENGTH)
    assert got.at_boundary == ref.at_boundary


@few
@given(panels=st.integers(1, 600), span=st.floats(1e-4, 10.0),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       omega=st.floats(0.0, 40.0), complex_valued=st.booleans())
def test_simpson_rules_match_scipy(panels, span, coeffs, omega, complex_valued):
    z = np.linspace(0.0, span, 2 * panels + 1)
    s = z / span
    c0, c1, c2, c3 = coeffs
    y = c0 + c1 * s ** 2 + c2 * np.cos(omega * s + c3)
    if complex_valued:
        y = y * np.exp(1j * omega * s)
    scale = span * (abs(c0) + abs(c1) + abs(c2) + 1.0)
    np.testing.assert_allclose(_simpson(y, z), simpson(y, x=z),
                               rtol=1e-12, atol=1e-13 * scale)
    np.testing.assert_allclose(_cumulative_simpson(y, z),
                               cumulative_simpson(y, x=z, initial=0.0),
                               rtol=1e-12, atol=1e-13 * scale)


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(length=lengths, others=st.lists(lengths, min_size=1, max_size=3),
       target=targets)
def test_optimizer_independent_of_scan_cache(length, others, target):
    sensitivity._scan_rows.cache_clear()
    cold = optimize_kappa(length, target=target, grid_n=GRID)
    warm = optimize_kappa(length, target=target, grid_n=GRID)
    for other in others:
        for t in TARGETS:
            optimize_kappa(other, target=t, grid_n=GRID)
    after = optimize_kappa(length, target=target, grid_n=GRID)
    for r in (warm, after):
        assert (r.kappa_opt, r.q_opt, r.at_boundary) == \
            (cold.kappa_opt, cold.q_opt, cold.at_boundary)
        assert np.array_equal(r.trace_kappa, cold.trace_kappa)
        assert np.array_equal(r.trace_q, cold.trace_q)
    # q_opt is q of the real problem at kappa*, not a rescaled scan value
    qfun = q_deltak if target == "deltak" else q_kappa
    assert cold.q_opt == qfun(angle_profiles(TrajectorySpec(cold.kappa_opt, length, GRID)))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(x_lo=st.floats(KL_SEARCH_MIN, 15.0), width=st.floats(0.5, 6.0),
       target=targets, grid_n=st.sampled_from([1001, 4001]))
def test_scan_rows_are_the_single_row_kernel(x_lo, width, target, grid_n):
    # windows past kappa*L ~ 18.7 hold rows whose theta leaves (0, pi); the
    # rows lie on SCAN_GRID_N nodes whatever the design grid is, and the
    # kernel on the design grid is q of angle_profiles there
    xs, qs, _ = sensitivity._scan_rows(target, x_lo, x_lo + width)
    qfun = q_deltak if target == "deltak" else q_kappa
    for x, q in zip(xs, qs):
        single, inside = _q(x, 1.0, SCAN_GRID_N, target)
        assert q == (single if inside else np.inf)
        fine, inside = _q(x, 1.0, grid_n, target)
        try:
            ref = qfun(angle_profiles(TrajectorySpec(x, 1.0, grid_n)))
        except TrajectoryError:
            assert not inside
            continue
        assert inside
        np.testing.assert_allclose(fine, ref, rtol=1e-13)


def _row_by_row(xs, grid_n, target):
    """q of the unit-length problem at each x on grid_n, +inf where theta
    leaves (0, pi)."""
    rows = [_q(x, 1.0, grid_n, target) for x in xs]
    return np.array([q if inside else np.inf for q, inside in rows])


@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=no_shrink)
@given(length=lengths, target=targets, grid_n=st.sampled_from([2001, 3001]),
       window=st.none() | st.tuples(st.floats(KL_SEARCH_MIN, 15.0),
                                    st.floats(0.5, 6.0)))
def test_scan_bracket_is_the_design_grid_argmin(length, target, grid_n, window):
    # the row the golden section brackets is the argmin of a full scan on grid_n
    if window is None:
        x_lo, x_hi = KL_SEARCH_MIN, KL_SEARCH_MAX
    else:
        lo, hi = window[0] / length, (window[0] + window[1]) / length
        x_lo, x_hi = lo * length, hi * length  # as optimize_kappa forms them
    xs, qs, _ = sensitivity._scan_rows(target, x_lo, x_hi)
    best = sensitivity._downhill(xs, qs, grid_n, target)
    fine = _row_by_row(xs, grid_n, target)
    assert fine[best] <= fine[max(best - 1, 0)]
    assert fine[best] <= fine[min(best + 1, len(xs) - 1)]
    assert best == int(np.argmin(fine))


@pytest.mark.parametrize("grid_n", [1001, 4001])
@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          phases=no_shrink)
@given(x_lo=st.floats(KL_SEARCH_MIN, 17.5), width=st.floats(0.5, 12.0),
       target=targets)
def test_coarse_scan_ranks_as_the_design_grid(grid_n, x_lo, width, target):
    # the premise of ranking on SCAN_GRID_N nodes: on kappa*L windows inside
    # [KL_SEARCH_MIN, 18], the confirmed row is the argmin of a row-by-row
    # scan on grid_n
    xs, qs, _ = sensitivity._scan_rows(target, x_lo, min(x_lo + width, 18.0))
    best = sensitivity._downhill(xs, qs, grid_n, target)
    assert best == int(np.argmin(_row_by_row(xs, grid_n, target)))


@pytest.mark.parametrize("target", TARGETS)
def test_scan_walks_a_near_tie_to_the_design_grid_minimum(monkeypatch, target):
    # Lower the scan row next to the grid_n minimum just below it, so the
    # SCAN_GRID_N argmin sits one row off: the walk moves back on grid_n.
    grid_n = 2001
    sensitivity._scan_rows.cache_clear()
    ref = optimize_kappa(REF_LENGTH, target=target, grid_n=grid_n)
    xs, qs, _ = sensitivity._scan_rows(target, KL_SEARCH_MIN, KL_SEARCH_MAX)
    best = sensitivity._downhill(xs, qs, grid_n, target)
    assert 0 < best < len(xs) - 1
    off = best + 1
    real_q = sensitivity._q

    def nudged(k, length, n, tgt, *args):
        q, inside = real_q(k, length, n, tgt, *args)
        if np.ndim(k) == 2:  # a scan block, not a single row on grid_n
            q = np.where(k[:, 0] == xs[off], qs[best] * (1.0 - 1e-9), q)
        return q, inside

    monkeypatch.setattr(sensitivity, "_q", nudged)
    sensitivity._scan_rows.cache_clear()
    _, nudged_qs, _ = sensitivity._scan_rows(target, KL_SEARCH_MIN, KL_SEARCH_MAX)
    walked = sensitivity._downhill(xs, nudged_qs, grid_n, target)
    r = optimize_kappa(REF_LENGTH, target=target, grid_n=grid_n)
    sensitivity._scan_rows.cache_clear()
    assert int(np.argmin(nudged_qs)) == off
    assert walked == best == int(np.argmin(_row_by_row(xs, grid_n, target)))
    assert (r.kappa_opt, r.q_opt, r.at_boundary) == \
        (ref.kappa_opt, ref.q_opt, ref.at_boundary)


@pytest.mark.parametrize("target", TARGETS)
def test_scan_past_theta_grazing_pi_matches_full_grid_bracket(monkeypatch, target):
    # 15000-25000 /m at 1 mm is kappa*L 15-25: theta grazes pi near 18.7 and
    # rows past it are +inf. A scan ranked on the design grid itself gives
    # the same kappa* and q_opt.
    window, grid_n = (15000.0, 25000.0), 4001
    sensitivity._scan_rows.cache_clear()
    got = optimize_kappa(REF_LENGTH, target=target, search_range=window, grid_n=grid_n)
    assert not np.isfinite(got.trace_q).all()
    with monkeypatch.context() as mp:
        mp.setattr(sensitivity, "SCAN_GRID_N", grid_n)
        sensitivity._scan_rows.cache_clear()
        ref = optimize_kappa(REF_LENGTH, target=target, search_range=window,
                             grid_n=grid_n)
        sensitivity._scan_rows.cache_clear()
    assert (got.kappa_opt, got.q_opt, got.at_boundary) == \
        (ref.kappa_opt, ref.q_opt, ref.at_boundary)
    assert np.array_equal(np.isfinite(got.trace_q), np.isfinite(ref.trace_q))


designed_kl = st.floats(5.5, 9.0)
ratios = st.floats(0.01, 1.2)


def _designed(length, kl):
    """Mismatch profile of the design with coupling kl / length, and the
    lab-frame pair coupling that drives it."""
    mism = delta_k_profile(angle_profiles(TrajectorySpec(kl / length, length, 4001)))
    return mism, LAB_FRAME_COUPLING * kl / length


@settings(few, phases=no_shrink)
@given(length=lengths, kl=designed_kl, ratio=ratios)
def test_depleted_manley_rowe(length, kl, ratio):
    mism, coupling = _designed(length, kl)
    traj = simulate_depleted(mism, coupling, initial=FieldState(ratio, 0.0, 1.0))
    p1, p2, p3 = (np.abs(a) ** 2 for a in (traj.a1, traj.a2, traj.a3))
    assert np.abs(p1 + p3 - ratio ** 2).max() <= 1e-12
    assert np.abs(p2 + p3 - 1.0).max() <= 1e-12
    # the undepleted pair is unitary
    traj = simulate_undepleted(mism, coupling)
    assert np.abs(np.abs(traj.a1) ** 2 + np.abs(traj.a3) ** 2 - 1.0).max() <= 1e-12


@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          phases=no_shrink)
@given(length=lengths, kl=designed_kl)
def test_depleted_small_signal_limit(length, kl):
    mism, coupling = _designed(length, kl)
    weak = simulate_depleted(mism, coupling, initial=FieldState(1e-3, 0.0, 1.0))
    exact = undepleted_efficiencies(mism.z, mism.phi, coupling)[0]
    assert abs(weak.efficiency - exact) <= 1e-9
    assert abs(simulate_undepleted(mism, coupling).efficiency - exact) <= 1e-12


@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          phases=no_shrink)
@given(length=lengths, kl=designed_kl, ratio=ratios)
def test_depleted_steps_round_up_per_cell(length, kl, ratio):
    # 4000 cells: 19999 and 20000 steps both take 5 steps per cell
    mism, coupling = _designed(length, kl)
    runs = [simulate_depleted(mism, coupling, steps=steps,
                              initial=FieldState(ratio, 0.0, 1.0))
            for steps in (19999, 20000)]
    assert runs[0].efficiency == runs[1].efficiency
    for name in ("z", "a1", "a2", "a3"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
    runs = [simulate_undepleted(mism, coupling, steps=steps) for steps in (19999, 20000)]
    assert runs[0].efficiency == runs[1].efficiency
    for name in ("z", "a1", "a3"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))


@few
@given(length=lengths, kl=designed_kl,
       increments=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=400),
       walk_kl=st.floats(0.0, 20.0))
def test_undepleted_profile_reversal_reciprocity(length, kl, increments, walk_kl):
    # each cell's SU(2) matrix is symmetric, so the product over the reversed
    # profile is the transpose of the product and |b|^2 is unchanged
    mism, coupling = _designed(length, kl)
    walk_z = np.linspace(0.0, length, len(increments) + 1)
    walk_phi = np.concatenate([[0.0], np.cumsum(increments)])
    for z, phi, k in ((mism.z, mism.phi, coupling),
                      (walk_z, walk_phi, walk_kl / length)):
        reversed_phi = phi[-1] - phi[::-1]
        assert abs(undepleted_efficiencies(z, reversed_phi, k)[0]
                   - undepleted_efficiencies(z, phi, k)[0]) <= 1e-13


# Random sampled curves: (spacing to the previous sample, value in [0, 1]).
samples = st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0))


@few
@given(x0=st.floats(-10.0, 10.0), curve=st.lists(samples, min_size=2, max_size=60))
def test_fwhm_interval_invariants(x0, curve):
    xs = x0 + np.cumsum([dx for dx, _ in curve])
    ys = np.array([y for _, y in curve])
    x_lo, x_hi, width, truncated = fwhm_interval(xs, ys)
    assert x_lo <= xs[np.argmax(ys)] <= x_hi
    assert width == x_hi - x_lo >= 0.0
    half = ys.max() / 2.0
    assert truncated == (ys[0] >= half or ys[-1] >= half)


@few
@given(left=st.lists(samples, max_size=30), right=st.lists(samples, max_size=30),
       y0=st.floats(0.0, 1.0), threshold=st.floats(0.05, 0.95))
def test_tolerance_interval_invariants(left, right, y0, threshold):
    # a curve sampled at x = 0 and on either side of it
    xs = np.concatenate([-np.cumsum([dx for dx, _ in left])[::-1], [0.0],
                         np.cumsum([dx for dx, _ in right])])
    ys = np.array([y for _, y in left[::-1]] + [y0] + [y for _, y in right])
    interval = tolerance_interval(xs, ys, threshold)
    if y0 < threshold:
        assert interval is None
        return
    lo, hi = interval
    assert lo <= 0.0 <= hi
    assert np.all(ys[(xs > lo) & (xs < hi)] >= threshold)
