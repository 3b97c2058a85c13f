import csv
import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qasfg import sensitivity
from qasfg.cli import main
from qasfg.propagation import simulate_undepleted
from qasfg.sensitivity import (
    KL_SEARCH_MAX, KL_SEARCH_MIN, SCAN_GRID_N, SCAN_POINTS, TARGETS, _q,
    eta_from_period_error, first_order_efficiency, optimize_kappa,
    perturbation_coefficients, q_deltak, q_kappa,
)
from qasfg.trajectory import (MismatchProfile, TrajectoryError, TrajectorySpec,
                              _grid_factors, _theta, angle_profiles, delta_k_profile)

L = 1e-3


@pytest.fixture(scope="module")
def angles_76():
    return angle_profiles(TrajectorySpec(7623.0, L))


def test_q_deltak_grid_convergence():
    q1 = q_deltak(angle_profiles(TrajectorySpec(7623.0, L, 2001)))
    q2 = q_deltak(angle_profiles(TrajectorySpec(7623.0, L, 4001)))
    assert abs(q1 - q2) < 1e-4 * q2


def test_q_kappa_grid_convergence():
    q1 = q_kappa(angle_profiles(TrajectorySpec(6133.0, L, 2001)))
    q2 = q_kappa(angle_profiles(TrajectorySpec(6133.0, L, 4001)))
    assert abs(q1 - q2) < 1e-4 * q2


def test_q_deltak_length_squared_scaling():
    qa = q_deltak(angle_profiles(TrajectorySpec(7500.0, 1e-3)))
    qb = q_deltak(angle_profiles(TrajectorySpec(3750.0, 2e-3)))
    assert qb / qa == pytest.approx(4.0, rel=1e-6)


def test_q_kappa_depends_on_kl_only():
    qa = q_kappa(angle_profiles(TrajectorySpec(7500.0, 1e-3)))
    qb = q_kappa(angle_profiles(TrajectorySpec(3750.0, 2e-3)))
    assert qb == pytest.approx(qa, rel=1e-6)


def test_q_invariant_under_global_phase(angles_76):
    shifted = replace(angles_76, m=angles_76.m + 2.345,
                      m_select=angles_76.m_select + 2.345)
    assert q_deltak(shifted) == pytest.approx(q_deltak(angles_76), rel=1e-12)
    assert q_kappa(shifted) == pytest.approx(q_kappa(angles_76), rel=1e-12)


def test_optimizer_deltak_target():
    r = optimize_kappa(L, target="deltak")
    assert 74.2e2 <= r.kappa_opt <= 78.2e2
    assert not r.at_boundary


def test_optimizer_kappa_target():
    r = optimize_kappa(L, target="kappa")
    assert 59.3e2 <= r.kappa_opt <= 63.3e2
    assert not r.at_boundary


def test_optimizer_deterministic():
    r1 = optimize_kappa(L, target="deltak")
    r2 = optimize_kappa(L, target="deltak")
    assert r1.kappa_opt == r2.kappa_opt
    assert r1.q_opt == r2.q_opt


# kappa* of the 1 mm acceptance designs (75.096 / 61.890 /cm as printed), as
# the unit-length search finds them: the golden section in x = kappa*L on the
# unit-length problem, kappa* = the middle of its final bracket over L.
KAPPA_OPT_1MM = {"deltak": 7509.582393514355, "kappa": 6189.019463933283}


@pytest.mark.parametrize("target", ["deltak", "kappa"])
def test_acceptance_kappa_opt_bit_for_bit(target, design_dk, design_k):
    design = design_dk if target == "deltak" else design_k
    assert design.kappa == optimize_kappa(L, target=target).kappa_opt
    assert design.kappa == KAPPA_OPT_1MM[target]


@pytest.mark.parametrize("target", ["deltak", "kappa"])
def test_design_mismatch_is_the_theta_path(target, design_dk, design_k):
    # delta_k of a built design, recomputed from the closed-form trajectory
    design = design_dk if target == "deltak" else design_k
    k, length = design.kappa, design.length
    z, theta, theta_dot, theta_ddot = _theta(k, _grid_factors(length, design.mismatch.z.size))
    cos_beta = np.sqrt(np.clip(1.0 - (theta_dot / k) ** 2, 0.0, None))
    edge = np.sqrt(60.0 * (k * length - np.pi) / (k * length ** 3))
    dk = np.empty_like(z)
    dk[1:-1] = (theta_ddot[1:-1] / (k * cos_beta[1:-1])
                - k * (np.cos(theta[1:-1]) / np.sin(theta[1:-1])) * cos_beta[1:-1])
    dk[0], dk[-1] = -2.0 * edge, 2.0 * edge
    assert np.array_equal(design.mismatch.z, z)
    assert np.array_equal(design.mismatch.delta_k, dk)


def test_optimizer_scaling_law():
    r1 = optimize_kappa(1e-3, target="deltak")
    r2 = optimize_kappa(2e-3, target="deltak")
    assert r2.kappa_opt * 2e-3 == pytest.approx(r1.kappa_opt * 1e-3, rel=5e-3)


def test_optimizer_flags_boundary_minimum():
    r = optimize_kappa(L, target="deltak", search_range=(4000.0, 5000.0))
    assert r.at_boundary


@pytest.mark.parametrize("window,edge", [((6000.0, 6500.0), SCAN_POINTS - 1),
                                         ((8000.0, 9000.0), 0)])
def test_optimizer_flags_a_minimum_on_either_scan_edge(window, edge):
    # kappa* of the 1 mm deltak design lies near 7500 /m: a window below it
    # has its minimum on the last scan row, one above it on the first
    r = optimize_kappa(L, target="deltak", search_range=window, grid_n=1001)
    assert r.at_boundary
    assert int(np.argmin(r.trace_q)) == edge
    assert len(r.trace_kappa) == len(r.trace_q) == SCAN_POINTS


def test_optimizer_rejects_bad_ranges():
    with pytest.raises(ValueError, match="pi"):
        optimize_kappa(L, search_range=(2000.0, 3000.0))
    with pytest.raises(ValueError):
        optimize_kappa(L, search_range=(5000.0, 4000.0))
    with pytest.raises(ValueError, match="search range"):
        optimize_kappa(L, search_range=(5000.0, np.inf))
    with pytest.raises(ValueError):
        optimize_kappa(L, target="frequency")


def test_optimizer_rejects_bad_length_and_grid():
    for length in (0.0, -1e-3, np.inf):
        with pytest.raises(ValueError, match="length"):
            optimize_kappa(length)
    with pytest.raises(TrajectoryError, match="grid size must be odd"):
        optimize_kappa(L, grid_n=1000)


@pytest.mark.parametrize("target", ["deltak", "kappa"])
@pytest.mark.parametrize("window,rtol", [(None, 1e-13), ((15000.0, 25000.0), 1e-10)])
def test_scan_matches_scalar_q(target, window, rtol):
    # The trace is the single-row kernel _q on SCAN_GRID_N nodes, bit for bit,
    # and _q is q of one angle_profiles call per coupling on a 1001 or 4001
    # node grid. The explicit window runs past kappa*L ~ 18.7, where theta
    # leaves (0, pi) and q at the dips is small enough to lose digits to
    # cancellation.
    r = optimize_kappa(L, target=target, search_range=window, grid_n=1001)
    x_lo, x_hi = (KL_SEARCH_MIN, KL_SEARCH_MAX) if window is None else \
        (window[0] * L, window[1] * L)
    xs = np.linspace(x_lo, x_hi, 400)
    assert np.array_equal(r.trace_kappa, xs / L)
    scale = L ** 2 if target == "deltak" else 1.0
    rows = [_q(x, 1.0, SCAN_GRID_N, target) for x in xs]
    assert np.array_equal(r.trace_q, [q * scale if inside else np.inf
                                      for q, inside in rows])
    qfun = q_deltak if target == "deltak" else q_kappa
    for grid_n in (1001, 4001):
        got, ref = [], []
        for kappa in r.trace_kappa:
            q, inside = _q(kappa, L, grid_n, target)
            got.append(q if inside else np.inf)
            try:
                ref.append(qfun(angle_profiles(TrajectorySpec(kappa, L, grid_n))))
            except TrajectoryError:
                ref.append(np.inf)
        got, ref = np.array(got), np.array(ref)
        valid = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), valid)
        assert valid.any() and (window is None or not valid.all())
        np.testing.assert_allclose(got[valid], ref[valid], rtol=rtol)


def test_eta_from_period_error():
    assert eta_from_period_error(0.0, 20e-6) == 0.0
    val = eta_from_period_error(0.01, 20e-6)
    assert val == pytest.approx(-2 * np.pi * 0.01 / 20e-6, rel=1e-12)
    assert val < 0  # longer period lowers the grating wavevector
    arr = eta_from_period_error(0.01, np.array([20e-6, 21e-6]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        eta_from_period_error(1.5, 20e-6)


def test_optimizer_reference_values_regression():
    # frozen converged values; deterministic to the golden tolerance
    assert optimize_kappa(L, target="deltak").kappa_opt == pytest.approx(7509.6, abs=1.0)
    assert optimize_kappa(L, target="kappa").kappa_opt == pytest.approx(6189.0, abs=1.0)


def test_estimate_unperturbed(angles_76):
    assert first_order_efficiency(angles_76) == 1.0


def test_estimate_internal_quadratic_consistency(angles_76):
    c_dk, c_k = perturbation_coefficients(angles_76)
    eta_dk = np.sqrt(1e-4 / c_dk)
    full = first_order_efficiency(angles_76, eta_deltak=eta_dk)
    assert (1 - full) == pytest.approx(eta_dk ** 2 * c_dk, rel=1e-2)
    eta_k = np.sqrt(1e-4 / c_k)
    full = first_order_efficiency(angles_76, eta_kappa=eta_k)
    assert (1 - full) == pytest.approx(eta_k ** 2 * c_k, rel=1e-2)


def test_estimate_clamps_large_perturbations(angles_76):
    assert 0.0 <= first_order_efficiency(angles_76, eta_deltak=1e6, eta_kappa=0.8) <= 1.0
    # the unclamped first-order value at eta_k = 2 is about -3.76
    assert first_order_efficiency(angles_76, eta_kappa=2.0) == 0.0


def _simulated_deficit(kappa, offset=0.0, coupling_scale=1.0, steps=12000):
    angles = angle_profiles(TrajectorySpec(kappa, L))
    m = delta_k_profile(angles)
    eff = MismatchProfile(z=m.z, delta_k=m.delta_k + offset,
                          phi=m.phi + offset * m.z, kappa=kappa, length=L)
    traj = simulate_undepleted(eff, 0.5 * kappa * coupling_scale, steps=steps)
    return 1.0 - traj.efficiency


def test_deltak_coefficient_matches_simulation():
    # generic design point: predicted deficit 1e-3 reproduced within 10%
    kappa = 9000.0
    c_dk, _ = perturbation_coefficients(angle_profiles(TrajectorySpec(kappa, L)))
    offset = np.sqrt(1e-3 / c_dk)
    deficit = _simulated_deficit(kappa, offset=offset)
    assert deficit == pytest.approx(1e-3, rel=0.10)


def test_kappa_coefficient_matches_simulation():
    kappa = 9000.0
    _, c_k = perturbation_coefficients(angle_profiles(TrajectorySpec(kappa, L)))
    eta_k = np.sqrt(1e-3 / c_k)
    deficit = _simulated_deficit(kappa, coupling_scale=1.0 + eta_k)
    assert deficit == pytest.approx(1e-3, rel=0.10)


def test_small_offset_agreement_on_design():
    # uniform mismatch offset within 2% of the profile extreme: the full
    # first-order estimate tracks simulation to within 10% of the deficit
    kappa = 9000.0
    angles = angle_profiles(TrajectorySpec(kappa, L))
    extreme = 2.0 * angles.edge_rate
    offset = 0.02 * extreme
    full = first_order_efficiency(angles, eta_deltak=offset)
    deficit = _simulated_deficit(kappa, offset=offset)
    assert deficit == pytest.approx(1 - full, rel=0.10)


def test_trace_export(tmp_path):
    # kappa_trace.csv holds the whole Q(kappa) trace of the search, in /cm:
    # the scan rows on SCAN_GRID_N nodes, whatever grid_N kappa* is found on
    scan = [sensitivity._q(x, 1.0, SCAN_GRID_N, "deltak")
            for x in np.linspace(KL_SEARCH_MIN, KL_SEARCH_MAX, 400)]
    columns = []
    for grid_n in (1001, 4001):
        r = optimize_kappa(L, target="deltak", grid_n=grid_n)
        cfg = tmp_path / f"config{grid_n}.json"
        cfg.write_text(json.dumps({"design": {"L_mm": L * 1e3, "grid_N": grid_n}}))
        out = tmp_path / f"out{grid_n}"
        assert main(["sweep", "kappa-trace", "--config", str(cfg),
                     "--out", str(out)]) == 0
        with open(out / "kappa_trace.csv", newline="") as fh:
            rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert rows[0] == ["kappa_per_cm", "q_value"]
        assert len(rows) - 1 == len(r.trace_kappa)
        assert [float(row[0]) for row in rows[1:]] == list(r.trace_kappa / 100.0)
        assert [float(row[1]) for row in rows[1:]] == \
            [q * L ** 2 if inside else np.inf for q, inside in scan]
        columns.append([row[1] for row in rows[1:]])
        summary = json.loads((out / "kappa_trace_summary.json").read_text())
        assert summary["kappa_per_cm"] == r.kappa_opt / 100.0
        assert summary["q_opt"] == r.q_opt
    assert columns[0] == columns[1]


def test_scan_block_error_reaches_caller_uncached(monkeypatch):
    # an error in the second of the scan's 13 row blocks, after the first has
    # filled its rows, reaches optimize_kappa and leaves no partial scan in
    # the cache
    sensitivity._scan_rows.cache_clear()
    clean = optimize_kappa(L, grid_n=1001)
    real_q = sensitivity._q
    calls = []

    def broken_q(k, length, grid_n, target, *args):
        calls.append(np.shape(k))
        if len(calls) == 2:
            raise RuntimeError("broken block")
        return real_q(k, length, grid_n, target, *args)

    sensitivity._scan_rows.cache_clear()
    monkeypatch.setattr(sensitivity, "_q", broken_q)
    with pytest.raises(RuntimeError, match="broken block"):
        optimize_kappa(L, grid_n=1001)
    assert [len(shape) for shape in calls] == [2, 2]  # the first two of 13 row blocks
    assert sensitivity._scan_rows.cache_info().currsize == 0
    monkeypatch.setattr(sensitivity, "_q", real_q)
    again = optimize_kappa(L, grid_n=1001)
    sensitivity._scan_rows.cache_clear()
    assert (again.kappa_opt, again.q_opt) == (clean.kappa_opt, clean.q_opt)
    assert np.array_equal(again.trace_q, clean.trace_q)


@pytest.mark.parametrize("target", TARGETS)
def test_cold_search_traced_peak_under_one_mib(target):
    # the scan's row blocks allocate per op, each temporary about 64 KiB
    sensitivity._scan_rows.cache_clear()
    optimize_kappa(L, target=target, grid_n=4001)  # imports and first-call set-up
    sensitivity._scan_rows.cache_clear()
    tracemalloc.start()
    try:
        optimize_kappa(L, target=target, grid_n=4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sensitivity._scan_rows.cache_clear()
    assert peak < 1 << 20


def _reference_q(k, length, grid_n, target):
    """The q kernel with every grid array rebuilt per call and every
    expression written inline: the bit-for-bit reference of _q."""
    z = np.linspace(0.0, length, grid_n)
    s = z / length
    d = k * length - np.pi
    theta = k * z - d * (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)
    theta_dot = k - (30.0 * d / length) * s ** 2 * (1 - s) ** 2
    theta_ddot = -(60.0 * d / length ** 2) * s * (1 - s) * (1 - 2 * s)
    sin_theta = np.sin(theta)
    inside = np.all(sin_theta[..., 1:-1] > 0.0, axis=-1)
    c = theta_dot / k
    rate = np.sqrt(np.maximum(1.0 - c * c, 0.0)) * -k
    inner = rate[..., 1:-1]
    inner += theta_ddot[..., 1:-1] / inner
    inner /= sin_theta[..., 1:-1]
    rate[..., 0], rate[..., -1] = rate[..., 1], rate[..., -2]
    dx = (z[-1] - z[0]) / (z.size - 1)
    left, mid, right = rate[..., :-2:2], rate[..., 1:-1:2], rate[..., 2::2]
    m_select = np.zeros_like(rate)
    np.cumsum((left + 4.0 * mid + right) * (dx / 3.0), axis=-1,
              out=m_select[..., 2::2])
    m_select[..., 1::2] = (m_select[..., :-1:2]
                           + (5.0 * left + 8.0 * mid - right) * (dx / 12.0))
    g = sin_theta if target == "deltak" else sin_theta * sin_theta * theta_dot * 2.0

    def simpson(y):
        return np.sum(y[..., :-2:2] + 4.0 * y[..., 1:-1:2] + y[..., 2::2],
                      axis=-1) * (dx / 3.0)

    re, im = simpson(np.cos(m_select) * g), simpson(np.sin(m_select) * g)
    return 0.25 * (re * re + im * im), inside


def _same(got, ref):
    # rows whose theta leaves (0, pi) may hold NaN q; their masks must agree
    return all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, ref))


# 75 unit-length rows: the default window, and kappa*L 15-25, where theta
# grazes pi near 18.7 and the rows past it are +inf in a scan
SCAN_WINDOWS = {"default": (KL_SEARCH_MIN, KL_SEARCH_MAX), "grazing": (15.0, 25.0)}


@pytest.mark.parametrize("window", SCAN_WINDOWS)
@pytest.mark.parametrize("grid_n", [1001, 3001, 4001, 5001])
@pytest.mark.parametrize("target", TARGETS)
def test_scan_blocks_on_one_buffer_set_match_reference_kernel(target, grid_n, window):
    # every block allocates its own temporaries, so blocks share no state
    xs = np.linspace(*SCAN_WINDOWS[window], 75)[:, None]
    ref = _reference_q(xs, 1.0, grid_n, target)
    assert window == "default" or not ref[1].all()
    grid = sensitivity._grid_factors(1.0, grid_n)
    # 75 rows in blocks of 65, 32 and 7 end in a partial block
    for rows in (1, 7, 32, 65):
        q, inside = np.empty(75), np.empty(75, dtype=bool)
        for i in range(0, 75, rows):
            q[i:i + rows], inside[i:i + rows] = _q(xs[i:i + rows], 1.0, grid_n,
                                                   target, grid)
        assert _same((q, inside), ref)
    assert _same(_q(xs, 1.0, grid_n, target), ref)


@pytest.mark.parametrize("grid_n", [1001, 4001])
@pytest.mark.parametrize("target", TARGETS)
def test_scan_kernel_scalar_k_at_real_lengths_matches_reference(target, grid_n):
    for length in (0.2e-3, 1e-3, 20e-3):
        grid = sensitivity._grid_factors(length, grid_n)
        for kl in (3.3, 7.5, 12.0, 19.0):
            k = kl / length
            ref = _reference_q(k, length, grid_n, target)
            assert _same(_q(k, length, grid_n, target), ref)
            assert _same(_q(k, length, grid_n, target, grid), ref)


@pytest.mark.parametrize("target", TARGETS)
def test_scan_rows_are_solved_once_for_every_grid(target):
    # the rows do not depend on grid_n; only the confirmed bracket does
    grids = (3001, 4001, 5001)
    sensitivity._scan_rows.cache_clear()
    warm = [optimize_kappa(L, target=target, grid_n=g) for g in grids]
    assert sensitivity._scan_rows.cache_info().misses == 1
    assert sensitivity._scan_rows.cache_info().currsize == 1
    for g, r in zip(grids, warm):
        sensitivity._scan_rows.cache_clear()
        cold = optimize_kappa(L, target=target, grid_n=g)
        assert (r.kappa_opt, r.q_opt, r.at_boundary) == \
            (cold.kappa_opt, cold.q_opt, cold.at_boundary)
        assert np.array_equal(r.trace_q, cold.trace_q)
    sensitivity._scan_rows.cache_clear()
    assert sensitivity._scan_rows.cache_info().currsize == 0


def _kappa_space_search(length, target, grid_n, search_range=None, tol=0.1):
    """The golden section as optimize_kappa ran it before it moved to the
    unit-length problem: in kappa at the real length, from the same scan
    bracket. Returns kappa*, q_opt, at_boundary and the final bracket in
    kappa."""
    if search_range is None:
        x_lo, x_hi = KL_SEARCH_MIN, KL_SEARCH_MAX
    else:
        x_lo, x_hi = search_range[0] * length, search_range[1] * length
    xs, qs, _ = sensitivity._scan_rows(target, x_lo, x_hi)
    best = sensitivity._downhill(xs, qs, grid_n, target)
    ks = xs / length
    grid = _grid_factors(length, grid_n)
    a, b = ks[max(best - 1, 0)], ks[min(best + 1, len(ks) - 1)]
    inv_gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_gr * (b - a)
    d = a + inv_gr * (b - a)
    qc = sensitivity._q_eval(c, grid, target)
    qd = sensitivity._q_eval(d, grid, target)
    while b - a > tol:
        if qc < qd:
            b, d, qd = d, c, qc
            c = b - inv_gr * (b - a)
            qc = sensitivity._q_eval(c, grid, target)
        else:
            a, c, qc = c, d, qd
            d = a + inv_gr * (b - a)
            qd = sensitivity._q_eval(d, grid, target)
    kappa = 0.5 * (a + b)
    return kappa, sensitivity._q_eval(kappa, grid, target), best in (0, len(ks) - 1), (a, b)


@pytest.mark.parametrize("grid_n", [1001, 3001, 4001, 5001])
@pytest.mark.parametrize("target", TARGETS)
def test_unit_length_search_matches_kappa_space_reference(target, grid_n):
    # Seeded lengths of 0.2-20 mm, each in the default kappa*L window and in
    # one seeded explicit window: the unit-length golden section moves
    # kappa* and q_opt only by rounding, and the final brackets of one window
    # nest, the shorter length's inside the longer one's.
    rng = np.random.default_rng(TARGETS.index(target) * 10000 + grid_n)
    lengths = np.sort(np.exp(rng.uniform(np.log(0.2e-3), np.log(20e-3), 4)))
    brackets = []
    for length in lengths:
        kl = (rng.uniform(1.01 * np.pi, 5.5), rng.uniform(8.5, 11.0))
        for window in (None, (kl[0] / length, kl[1] / length)):
            r = optimize_kappa(length, target=target, search_range=window, grid_n=grid_n)
            kappa, q, at_boundary, bracket = _kappa_space_search(length, target,
                                                                 grid_n, window)
            assert r.at_boundary == at_boundary
            assert r.kappa_opt == pytest.approx(kappa, rel=1e-12, abs=0.0)
            assert r.q_opt == pytest.approx(q, rel=1e-14, abs=0.0)
            if window is None:
                brackets.append((r.kappa_opt * length,
                                 bracket[0] * length, bracket[1] * length))
    for (x_short, _, _), (_, a_long, b_long) in zip(brackets, brackets[1:]):
        assert a_long < x_short < b_long


@pytest.mark.parametrize("target", TARGETS)
def test_memoised_search_makes_one_q_call(monkeypatch, target):
    # once one length is searched, a longer one in the same window on the
    # same grid finds its bracket among the memoised golden-section states
    # and evaluates q once, at its real length
    sensitivity._scan_rows.cache_clear()
    optimize_kappa(L, target=target, grid_n=3001)
    real_q = sensitivity._q
    lengths = []

    def counting_q(k, length, *args):
        lengths.append(length)
        return real_q(k, length, *args)

    monkeypatch.setattr(sensitivity, "_q", counting_q)
    warm = optimize_kappa(4 * L, target=target, grid_n=3001)
    assert lengths == [4 * L]
    monkeypatch.setattr(sensitivity, "_q", real_q)
    sensitivity._scan_rows.cache_clear()
    cold = optimize_kappa(4 * L, target=target, grid_n=3001)
    sensitivity._scan_rows.cache_clear()
    assert (warm.kappa_opt, warm.q_opt, warm.at_boundary) == \
        (cold.kappa_opt, cold.q_opt, cold.at_boundary)


def test_racing_searches_keep_a_consistent_memo():
    # Threads search the same window and grid at several lengths at once,
    # with the interpreter switching threads every microsecond. Each result
    # is the serial one, and the memoised states stay a prefix of the one
    # golden-section sequence, whichever extension was stored last.
    lengths = (0.2e-3, 0.5e-3, 1e-3, 3e-3, 10e-3)
    sensitivity._scan_rows.cache_clear()
    serial = {length: optimize_kappa(length, grid_n=1001) for length in lengths}
    searches = sensitivity._scan_rows("deltak", KL_SEARCH_MIN, KL_SEARCH_MAX)[2]
    full = searches[1001][1]
    sensitivity._scan_rows.cache_clear()
    results, errors = [], []

    def worker(order):
        try:
            for length in order:
                results.append((length, optimize_kappa(length, grid_n=1001)))
        except Exception as err:  # reported by the main thread
            errors.append(err)

    rng = np.random.default_rng(5)
    threads = [threading.Thread(target=worker, args=(rng.permutation(lengths),))
               for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 6 * len(lengths)
    for length, r in results:
        assert (r.kappa_opt, r.q_opt) == (serial[length].kappa_opt, serial[length].q_opt)
    searches = sensitivity._scan_rows("deltak", KL_SEARCH_MIN, KL_SEARCH_MAX)[2]
    stored = searches[1001][1]
    sensitivity._scan_rows.cache_clear()
    assert 0 < len(stored) <= len(full) and stored == full[:len(stored)]


def test_golden_section_starts_a_fresh_entry_from_its_row():
    # The row confirmed in one scan entry's dict, the golden section run on
    # a dict that holds nothing yet, as when the entry is evicted and solved
    # again between two searches: it starts from the row it is given, stores
    # it beside its states, and ends on the bracket of the confirmed entry.
    sensitivity._scan_rows.cache_clear()
    xs, qs, searches = sensitivity._scan_rows("deltak", KL_SEARCH_MIN, KL_SEARCH_MAX)
    best = sensitivity._downhill(xs, qs, 1001, "deltak")
    searches.setdefault(1001, (best, ()))  # stored as optimize_kappa stores it
    assert searches == {1001: (best, ())}
    fresh = {}
    bracket = sensitivity._golden(fresh, xs, best, 1001, "deltak", 0.1 * L)
    assert fresh[1001][0] == best and len(fresh[1001][1]) > 0
    assert sensitivity._golden(searches, xs, best, 1001, "deltak", 0.1 * L) == bracket
    assert searches == fresh
    r = optimize_kappa(L, grid_n=1001)
    sensitivity._scan_rows.cache_clear()
    assert r.kappa_opt == 0.5 * (bracket[0] + bracket[1]) / L
