"""Property tests: scale covariance of the sensitivities and of kappa*, the
numpy Simpson rules against scipy's, and the memoised kappa*L scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson, simpson

from qasfg.sensitivity import TARGETS, _unit_scan, optimize_kappa, q_deltak, q_kappa
from qasfg.trajectory import (TrajectorySpec, _cumulative_simpson, _simpson,
                              angle_profiles)

REF_LENGTH = 1e-3
GRID = 1001

lengths = st.floats(0.2e-3, 20e-3)
targets = st.sampled_from(TARGETS)
# Few, reproducible examples: each one builds trajectories or runs a search.
few = settings(max_examples=8, deadline=None, derandomize=True, database=None)


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
    _unit_scan.cache_clear()
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
