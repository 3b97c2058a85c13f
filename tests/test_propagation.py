import csv
import json
import re
import warnings

import numpy as np
import pytest

from qasfg.cli import main
from qasfg import propagation
from qasfg.experiments import (LAB_FRAME_COUPLING, assemble_design, signal_intensity_sweep,
                               simulate_design)
from qasfg.propagation import (
    _BATCH_POINTS, _TAIL_POINTS, _pass_points, FieldState, PropagationError, constant_mismatch,
    depleted_efficiencies, lz_linear_chirp, simulate_depleted, simulate_undepleted,
    undepleted_efficiencies,
)
from qasfg.trajectory import MismatchProfile, TrajectorySpec, angle_profiles, delta_k_profile

L = 1e-3


def test_zero_coupling_is_identity():
    profile = constant_mismatch(0.0, L)
    traj = simulate_undepleted(profile, 0.0, steps=100)
    assert traj.efficiency == 0.0
    assert abs(traj.a1[-1] - 1.0) < 1e-14
    assert abs(traj.a3[-1]) < 1e-14


@pytest.mark.parametrize("kl", [np.pi / 2, np.pi / 4, 1.1])
def test_phase_matched_closed_form(kl):
    kappa = kl / L
    profile = constant_mismatch(0.0, L)
    traj = simulate_undepleted(profile, kappa, steps=4000)
    assert traj.efficiency == pytest.approx(np.sin(kl) ** 2, abs=1e-10)


def test_half_conversion_efficiency_accessor():
    profile = constant_mismatch(0.0, L)
    traj = simulate_undepleted(profile, (np.pi / 4) / L, steps=4000)
    assert traj.efficiency == pytest.approx(0.5, abs=1e-10)
    assert traj.efficiency == pytest.approx(
        abs(traj.a3[-1]) ** 2 / abs(traj.a1[0]) ** 2, rel=1e-14)


def test_conversion_efficiency_edge_cases():
    profile = constant_mismatch(0.0, L)
    full = simulate_undepleted(profile, (np.pi / 2) / L, steps=4000)
    assert full.efficiency == pytest.approx(1.0, abs=1e-10)
    idle = simulate_undepleted(profile, 0.0, steps=100)
    assert idle.efficiency == 0.0
    # no input signal: the efficiency is reported as 0, not divided by zero
    dark = simulate_undepleted(profile, (np.pi / 2) / L, steps=4000,
                               initial=FieldState(a1=0.0, a3=1.0))
    assert dark.efficiency == 0.0
    dark = simulate_depleted(profile, (np.pi / 2) / L, steps=4000,
                             initial=FieldState(a1=0.0, a3=0.0, a2=1.0))
    assert dark.efficiency == 0.0


def test_flux_conservation_along_design(design_dk):
    traj = simulate_undepleted(design_dk.mismatch, 0.5 * design_dk.kappa,
                               steps=20000)
    drift = np.abs(np.abs(traj.a1) ** 2 + np.abs(traj.a3) ** 2 - 1.0)
    assert drift.max() < 1e-8


def test_rk4_measured_order():
    # self-convergence of the depleted RK4 on one phase-matched profile cell,
    # so the requested 20, 40 and 80 steps are the steps taken
    profile = constant_mismatch(0.0, L, grid_n=2)
    for ratio in (0.5, 1.0):
        e20, e40, e80 = (simulate_depleted(profile, 1.3 / L, steps=steps,
                                           initial=FieldState(ratio, 0.0, 1.0)).efficiency
                         for steps in (20, 40, 80))
        assert np.log2(abs(e20 - e40) / abs(e40 - e80)) >= 3.8


def test_frame_equivalence_constant_mismatch():
    # one exact co-rotating rotation per profile cell vs a lab-frame RK4 with
    # literal exp(+-i dk z) factors in 3000 steps
    dk, kappa, steps = 5000.0, 3000.0, 3000
    profile = constant_mismatch(dk, L)
    traj = simulate_undepleted(profile, kappa, steps=steps)

    h = L / steps
    a1, a3 = 1.0 + 0j, 0.0 + 0j
    ck = -1j * kappa
    for n in range(steps):
        zs = (n * h, n * h + h / 2, (n + 1) * h)
        es = [np.exp(-1j * dk * z) for z in zs]
        k1a, k1b = ck * a3 * es[0], ck * a1 / es[0]
        t1, t3 = a1 + 0.5 * h * k1a, a3 + 0.5 * h * k1b
        k2a, k2b = ck * t3 * es[1], ck * t1 / es[1]
        t1, t3 = a1 + 0.5 * h * k2a, a3 + 0.5 * h * k2b
        k3a, k3b = ck * t3 * es[1], ck * t1 / es[1]
        t1, t3 = a1 + h * k3a, a3 + h * k3b
        k4a, k4b = ck * t3 * es[2], ck * t1 / es[2]
        a1 = a1 + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
        a3 = a3 + (h / 6) * (k1b + 2 * k2b + 2 * k3b + k4b)
    assert abs(traj.a1[-1] - a1) < 1e-9
    assert abs(traj.a3[-1] - a3) < 1e-9


def test_agrees_with_independent_integrator(design_dk):
    # cross-check the recorder against scipy's DOP853 on the same ODE
    # (same linear interpolation of the accumulated phase)
    from scipy.integrate import solve_ivp

    m = design_dk.mismatch
    kappa = 0.5 * design_dk.kappa

    def rhs(z, y):
        a1, a3 = y[0] + 1j * y[1], y[2] + 1j * y[3]
        e = np.exp(-1j * np.interp(z, m.z, m.phi))
        d1 = -1j * kappa * a3 * e
        d3 = -1j * kappa * a1 / e
        return [d1.real, d1.imag, d3.real, d3.imag]

    sol = solve_ivp(rhs, (0.0, m.length), [1.0, 0.0, 0.0, 0.0],
                    method="DOP853", rtol=1e-11, atol=1e-12)
    a1_ref = sol.y[0, -1] + 1j * sol.y[1, -1]
    a3_ref = sol.y[2, -1] + 1j * sol.y[3, -1]

    traj = simulate_undepleted(m, kappa, steps=20000)
    assert abs(traj.a1[-1] - a1_ref) < 1e-7
    assert abs(traj.a3[-1] - a3_ref) < 1e-7


@pytest.mark.parametrize("case", ["constant", "chirp", "designed"])
def test_recorder_matches_exact_propagator(case, design_dk):
    # the recorder's sequential rotations against the pairwise tree on the
    # prefix of the profile that ends at every 5th record (4000 cells record
    # every 2nd node, so every 10th node here)
    profile, coupling = {
        "constant": (constant_mismatch(5000.0, L), 3000.0),
        "chirp": (lz_linear_chirp(-2e4, 2e4, L), 4000.0),
        "designed": (design_dk.mismatch, 0.5 * design_dk.kappa),
    }[case]
    traj = simulate_undepleted(profile, coupling)
    assert np.array_equal(traj.z, profile.z[::2])
    tree = [undepleted_efficiencies(profile.z[:j + 1], profile.phi[:j + 1], coupling)
            for j in range(10, len(profile.z), 10)]
    assert all(eta.shape == (1,) for eta in tree)
    assert np.abs(np.abs(traj.a3[5::5]) ** 2 - np.concatenate(tree)).max() <= 1e-13


def test_exact_propagator_batch_independent(design_dk):
    # a point's eta is the same to the bit alone, in any order, and on
    # either side of a pass boundary (4, 16, 3, 63 and 31 points per pass)
    # and of a tail row group. At 4001, 1001 and 258 nodes these points in
    # one row group would make a tail temporary pass the 256 kB at which
    # numpy reuses it in place and swaps a product's operands. At 5001, 258
    # and 514 nodes the passes hand an odd cell count (157, 129, 129) to the
    # tail. Design grids are odd, so the even ones interpolate the phase.
    base = design_dk.mismatch
    for grid_n in (4001, 1001, 5001, 258, 514):
        if grid_n % 2:
            m = assemble_design(design_dk.kappa, design_dk.length, "deltak",
                                grid_n=grid_n).mismatch
            z, phi0 = m.z, m.phi
        else:
            z = np.linspace(0.0, base.length, grid_n)
            phi0 = np.interp(z, base.z, base.phi)
        points = 2 * _TAIL_POINTS + 2 * _pass_points(grid_n - 1) + 3
        scales = 1.0 / (1.0 + np.linspace(-0.05, 0.05, points))
        phi = 1e3 * z * (1.0 - scales[:, None]) + phi0 * scales[:, None]
        couplings = 0.5 * design_dk.kappa * np.linspace(0.9, 1.1, points)
        batch = undepleted_efficiencies(z, phi, couplings)
        alone = [undepleted_efficiencies(z, phi[i], couplings[i])[0]
                 for i in range(points)]
        assert np.array_equal(batch, alone)
        order = np.random.default_rng(7).permutation(points)
        assert np.array_equal(undepleted_efficiencies(z, phi[order], couplings[order]),
                              batch[order])
        shifted = undepleted_efficiencies(np.tile(z, (points - 5, 1)), phi[5:],
                                          couplings[5:])
        assert np.array_equal(shifted, batch[5:])


def _reference_cells(k, d, h):
    """The cells as first written, with mixed real-complex products:
    (a, b) of [[a, b], [b, a*]] with b = i beta."""
    w = np.sqrt(k * k + 0.25 * d * d)
    wh = w * h
    sw = np.divide(np.sin(wh), w, out=h.copy(), where=w > 0)
    return np.cos(wh) + 0.5j * sw * d, -1j * sw * k


def _reference_efficiencies(z, phi, coupling):
    """The pairwise tree as first written: complex cells and every level
    on complex arrays, down to one cell, one point at a time."""
    eta = []
    for zi, phii, k in zip(z, phi, coupling):
        h = np.diff(zi)[None]
        a, b = _reference_cells(k, np.diff(phii)[None] / h, h)
        while a.shape[1] > 1:
            n = a.shape[1] // 2 * 2
            a1, b1, a2, b2 = a[:, 0:n:2], b[:, 0:n:2], a[:, 1:n:2], b[:, 1:n:2]
            a, b = (np.concatenate([a2 * a1 - b2 * b1.conj(), a[:, n:]], axis=1),
                    np.concatenate([a2 * b1 + b2 * a1.conj(), b[:, n:]], axis=1))
        eta.append(np.abs(b[0, 0]) ** 2)
    return np.array(eta)


def test_exact_propagator_matches_complex_tree_bitwise():
    # real-form cells, a real-arithmetic first level and the shared tail
    # round exactly as complex cells multiplied level by level: random cell
    # widths, mismatches and couplings, with zero-mismatch cells and zero
    # couplings, on grids with odd carries in the passes and in the tail
    rng = np.random.default_rng(11)
    for grid_n in (2, 3, 8, 258, 514, 4001):
        points = 9
        z = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, grid_n - 1))]) * 1e-6
        z = np.broadcast_to(z, (points, grid_n))
        phi = np.cumsum(rng.uniform(-3e5, 3e5, (points, grid_n)), axis=1) * 1e-6
        phi[:, grid_n // 2:grid_n // 2 + 2] = phi[:, grid_n // 2 - 1, None]  # d = 0
        coupling = rng.uniform(0.0, 4e4, points)
        coupling[:2] = 0.0
        ref = _reference_efficiencies(z, phi, coupling)
        assert np.array_equal(undepleted_efficiencies(z, phi, coupling).view(np.uint64),
                              ref.view(np.uint64))
        h = np.diff(z, axis=1)
        d = np.diff(phi, axis=1) / h
        a, beta = propagation._rotations(coupling[:, None], d, h)
        ref_a, ref_b = _reference_cells(coupling[:, None], d, h)
        assert np.array_equal(a, ref_a) and np.array_equal(beta, ref_b.imag)
        assert not ref_b.real.any()


def _sequential_product_eta(z, phi, coupling):
    """Left-to-right product of the cells' matrix exponentials."""
    from scipy.linalg import expm

    u = np.eye(2, dtype=complex)
    for h, dphi in zip(np.diff(z), np.diff(phi)):
        d = dphi / h
        u = expm(1j * h * np.array([[d / 2, -coupling], [-coupling, -d / 2]])) @ u
    return abs(u[1, 0]) ** 2


def test_exact_propagator_edge_cases():
    rng = np.random.default_rng(3)
    for cells in (1, 2, 7, 12):
        z = np.sort(rng.uniform(0.0, L, cells + 1))
        z[0], z[-1] = 0.0, L
        phi = np.cumsum(rng.uniform(-30.0, 30.0, cells + 1))
        eta = undepleted_efficiencies(z, phi, 2500.0)
        assert eta == pytest.approx(_sequential_product_eta(z, phi, 2500.0), abs=1e-13)
    flat = constant_mismatch(0.0, L, grid_n=8)
    assert undepleted_efficiencies(flat.z, flat.phi, 1.1 / L)[0] == pytest.approx(
        np.sin(1.1) ** 2, abs=1e-14)
    chirp = lz_linear_chirp(-1e4, 1e4, L)
    assert undepleted_efficiencies(chirp.z, chirp.phi, 0.0)[0] == 0.0
    assert undepleted_efficiencies(flat.z, flat.phi, 0.0)[0] == 0.0


def test_step_guard():
    profile = constant_mismatch(0.0, L)
    for kappa, steps in ((40000.0, 20), (1000.0, 0)):
        with pytest.raises(PropagationError):
            simulate_depleted(profile, kappa, steps=steps, initial=FieldState(1.0, 0.0, 1.0))


def test_undepleted_ignores_steps(design_dk):
    # one exact rotation per cell whatever steps asks for, even one step in all
    coupling = LAB_FRAME_COUPLING * design_dk.kappa
    ref = simulate_undepleted(design_dk.mismatch, coupling)
    traj = simulate_undepleted(design_dk.mismatch, coupling, steps=1)
    assert traj.efficiency == ref.efficiency and traj.steps == ref.steps == 4000
    for name in ("z", "a1", "a3"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name))


def test_lz_profile_shape():
    chirp = lz_linear_chirp(-1e4, 1e4, L)
    assert chirp.delta_k[0] == -1e4
    assert chirp.delta_k[-1] == 1e4
    mid = len(chirp.z) // 2
    assert chirp.delta_k[mid] == pytest.approx(0.0, abs=1e-9)
    # phi equals the running integral of dk
    phi_num = np.concatenate([[0.0], np.cumsum(
        0.5 * (chirp.delta_k[1:] + chirp.delta_k[:-1]) * np.diff(chirp.z))])
    assert np.abs(chirp.phi - phi_num).max() < 1e-6 * np.abs(chirp.phi).max()
    flat = lz_linear_chirp(0.0, 0.0, L)
    assert np.all(flat.delta_k == 0.0) and np.all(flat.phi == 0.0)
    with pytest.raises(PropagationError):
        lz_linear_chirp(0.0, 1.0, -1.0)


def test_depleted_requires_pump():
    profile = constant_mismatch(0.0, L)
    with pytest.raises(PropagationError):
        simulate_depleted(profile, 1000.0, steps=100, initial=FieldState(1.0, 0.0))


def test_depleted_zero_pump_no_conversion():
    profile = constant_mismatch(0.0, L)
    traj = simulate_depleted(profile, 2000.0, steps=400,
                             initial=FieldState(1.0, 0.0, a2=0.0))
    assert traj.efficiency == pytest.approx(0.0, abs=1e-12)


def test_depleted_reduces_to_undepleted(design_dk):
    coupling = 0.5 * design_dk.kappa
    und = simulate_undepleted(design_dk.mismatch, coupling, steps=8000)
    dep = simulate_depleted(design_dk.mismatch, coupling, steps=8000,
                            initial=FieldState(1e-3, 0.0, a2=1.0))
    assert abs(dep.efficiency - und.efficiency) < 1e-3


def test_depleted_manley_rowe(design_dk):
    traj = simulate_depleted(design_dk.mismatch, 0.5 * design_dk.kappa,
                             steps=12000, initial=FieldState(1.0, 0.0, a2=1.0))
    n1 = np.abs(traj.a1) ** 2 + np.abs(traj.a3) ** 2
    n2 = np.abs(traj.a2) ** 2 + np.abs(traj.a3) ** 2
    assert np.abs(n1 - n1[0]).max() < 1e-8
    assert np.abs(n2 - n2[0]).max() < 1e-8
    assert 0.0 < traj.efficiency < 1.0


@pytest.mark.parametrize("ratio", [0.05, 0.5, 1.2])
def test_depleted_matches_solve_ivp(design_dk, ratio):
    # Independent reference: scipy's adaptive DOP853, one call per profile
    # cell (on which the co-rotating system c3 = a3 e^{-i phi} is autonomous)
    from scipy.integrate import solve_ivp
    kt = LAB_FRAME_COUPLING * design_dk.kappa
    z, phi = design_dk.mismatch.z, design_dk.mismatch.phi
    ys = [np.array([ratio, 0.0, 1.0, 0.0, 0.0, 0.0])]
    for z0, z1, d in zip(z[:-1], z[1:], np.diff(phi) / np.diff(z)):
        def rhs(_, y, d=d):
            a1, a2, c3 = complex(y[0], y[1]), complex(y[2], y[3]), complex(y[4], y[5])
            f1, f2 = -1j * kt * c3 * a2.conjugate(), -1j * kt * c3 * a1.conjugate()
            f3 = -1j * (kt * a1 * a2 + d * c3)
            return [f1.real, f1.imag, f2.real, f2.imag, f3.real, f3.imag]
        ys.append(solve_ivp(rhs, (z0, z1), ys[-1], method="DOP853",
                            rtol=1e-12, atol=1e-14).y[:, -1])
    y = np.array(ys)
    a1, a2, a3 = y[:, 0] + 1j * y[:, 1], y[:, 2] + 1j * y[:, 3], y[:, 4] + 1j * y[:, 5]
    a3 = a3 * np.exp(1j * phi)  # back to the lab frame
    traj = simulate_design(design_dk, depleted=True, signal_pump_ratio=ratio)
    assert abs(traj.efficiency - abs(a3[-1]) ** 2 / ratio ** 2) <= 1e-10
    # the sweep's reduced real system, at its own Taylor step count
    swept = depleted_efficiencies(design_dk.mismatch, kt, [ratio])[0]
    assert abs(swept - abs(a3[-1]) ** 2 / ratio ** 2) <= 1e-10
    # 4000 cells of 5 steps each, recorded at every other node
    assert np.array_equal(traj.z, z[::2])
    for got, ref in ((traj.a1, a1), (traj.a2, a2), (traj.a3, a3)):
        assert np.abs(got - ref[::2]).max() <= 1e-10


@pytest.mark.parametrize("depleted", [False, True])
def test_recording_never_changes_the_fields(design_dk, depleted, monkeypatch):
    # 6002 cells record at every 3rd node and the last, which ends a block of
    # 2 cells; the final eta equals an unrecorded run to the bit
    m = assemble_design(design_dk.kappa, design_dk.length, "deltak", grid_n=6003).mismatch
    coupling = LAB_FRAME_COUPLING * design_dk.kappa
    calls, record = [], propagation._record

    def spy(*args):
        calls.append(args)
        return record(*args)
    monkeypatch.setattr(propagation, "_record", spy)
    if depleted:
        traj = simulate_depleted(m, coupling, steps=6002, initial=FieldState(0.8, 0.0, 1.0))
        _, _, _, cells, state, _, _ = calls[0]
        c3 = propagation._rk4(cells, 1, *state)[2]  # 6002 steps: 1 per cell
        assert abs(c3) ** 2 / abs(0.8) ** 2 == traj.efficiency
    else:
        traj = simulate_undepleted(m, coupling)
        _, _, advance, cells, state, _, _ = calls[0]
        assert advance is propagation._exact_steps
        c3 = propagation._exact_steps(cells, *state)[1]
        assert abs(c3) ** 2 == traj.efficiency
    assert traj.steps == 6002
    assert np.array_equal(traj.z, np.append(m.z[::3], m.z[-1]))


@pytest.mark.parametrize("design", ["design_dk", "design_k"])
def test_batched_sweep_matches_simulate_depleted(design, request):
    # a sweep integrates the reduced real system by Taylor steps, alone on
    # floats below _BATCH_POINTS ratios and together on arrays from there on:
    # both are within 1e-12 of simulate_depleted's complex RK4 at 1 step per
    # cell (the sweep ignores its steps)
    design = request.getfixturevalue(design)
    coupling = LAB_FRAME_COUPLING * design.kappa
    for samples in (_BATCH_POINTS - 1, _BATCH_POINTS, 41):
        result = signal_intensity_sweep(design, ratio_min=0.01, ratio_max=1.2,
                                        samples=samples, steps=4000)
        ratios, etas = result.values, result.efficiencies
        alone = np.array([simulate_depleted(
            design.mismatch, coupling, steps=4000,
            initial=FieldState(r, 0.0, 1.0)).efficiency for r in ratios])
        assert np.abs(etas - alone).max() <= 1e-12
        # no more signal photons converted than there are pump photons
        assert np.all(etas * ratios ** 2 <= 1.0 + 1e-12)


def test_batched_efficiencies_batch_independent(design_dk, monkeypatch):
    # a ratio's batched result does not depend on its batch or its place in it
    m, coupling = design_dk.mismatch, LAB_FRAME_COUPLING * design_dk.kappa
    ratios = np.linspace(0.05, 1.2, 41)
    batch = depleted_efficiencies(m, coupling, ratios)
    assert np.array_equal(depleted_efficiencies(m, coupling, ratios[::-1]), batch[::-1])
    monkeypatch.setattr(propagation, "_BATCH_POINTS", 1)
    for i in (0, 20, 40):
        assert np.array_equal(depleted_efficiencies(m, coupling, ratios[i:i + 1]),
                              batch[i:i + 1])


@pytest.mark.parametrize("grid", ["uniform", "geometric"])
def test_float_and_array_paths_are_bit_identical(design_dk, grid, monkeypatch):
    # one ratio's floats and an array of ratios run the same _reduced_taylor,
    # so a ratio's eta has the same bits on either path, in any order or block;
    # on the 1 mm design, where every ratio takes 1 step per cell, and on a
    # geometric grid, where one batch mixes 5, 6 and 10 steps per cell (3.0
    # takes 10), within 1e-12 of _rk4 at 1 and 10 RK4 steps per cell
    m, coupling = design_dk.mismatch, LAB_FRAME_COUPLING * design_dk.kappa
    steps, ratios = 4000, np.linspace(0.05, 1.2, 7)
    if grid == "geometric":
        z = (np.geomspace(1.0, 1001.0, 2001) - 1.0) * (L / 1000.0)
        m = MismatchProfile(z=z, delta_k=np.interp(z, m.z, m.delta_k),
                            phi=np.interp(z, m.z, m.phi), kappa=np.nan, length=z[-1])
        steps, ratios = 20000, np.append(ratios, 3.0)
    monkeypatch.setattr(propagation, "_BATCH_POINTS", 10 ** 6)
    floats = depleted_efficiencies(m, coupling, ratios)
    monkeypatch.setattr(propagation, "_BATCH_POINTS", 1)
    assert np.array_equal(depleted_efficiencies(m, coupling, ratios), floats)
    assert np.array_equal(depleted_efficiencies(m, coupling, ratios[::-1]), floats[::-1])
    monkeypatch.setattr(propagation, "_BATCH_BLOCK", 3)
    assert np.array_equal(depleted_efficiencies(m, coupling, ratios), floats)
    for i in (0, 3, 6):
        alone = simulate_depleted(m, coupling, steps=steps,
                                  initial=FieldState(ratios[i], 0.0, 1.0))
        assert abs(floats[i] - alone.efficiency) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coupling_is_rejected(bad):
    # every propagator names the coupling before any work, rather than
    # returning NaN or failing inside its step check
    profile = constant_mismatch(0.0, L, grid_n=11)
    with pytest.raises(PropagationError, match="kappa must be finite"):
        simulate_undepleted(profile, bad)
    with pytest.raises(PropagationError, match="kappa must be finite"):
        simulate_depleted(profile, bad, initial=FieldState(0.5, 0.0, 1.0))
    with pytest.raises(PropagationError, match="kappa must be finite"):
        depleted_efficiencies(profile, bad, [0.5])
    for coupling in (bad, [1.3 / L, bad]):
        with pytest.raises(PropagationError, match="coupling must be finite"):
            undepleted_efficiencies(profile.z, [profile.phi, profile.phi], coupling)


def test_depleted_efficiencies_edge_cases(monkeypatch):
    profile = constant_mismatch(0.0, L, grid_n=11)
    for batch_points in (_BATCH_POINTS, 1):
        monkeypatch.setattr(propagation, "_BATCH_POINTS", batch_points)
        eta = depleted_efficiencies(profile, 1.3 / L, [0.0, 0.5])
        assert eta[0] == 0.0 and 0.0 < eta[1] < 1.0
        with pytest.raises(PropagationError, match="non-finite"):
            depleted_efficiencies(profile, 1.3 / L, [0.5, np.nan])
    # a sweep longer than one batched pass is split without changing a bit
    ratios = np.linspace(0.1, 1.2, 7)
    whole = depleted_efficiencies(profile, 1.3 / L, ratios)
    monkeypatch.setattr(propagation, "_BATCH_BLOCK", 3)
    assert np.array_equal(depleted_efficiencies(profile, 1.3 / L, ratios), whole)


def test_depleted_efficiencies_zero_coupling_and_zero_ratio(design_dk, monkeypatch):
    # zero coupling converts nothing on either path; a zero ratio inside a
    # batch reads 0 and leaves its neighbours' results unchanged
    m, coupling = design_dk.mismatch, LAB_FRAME_COUPLING * design_dk.kappa
    ratios = np.linspace(0.0, 1.2, 13)
    for batch_points in (_BATCH_POINTS, 1, 10 ** 6):
        monkeypatch.setattr(propagation, "_BATCH_POINTS", batch_points)
        assert np.array_equal(depleted_efficiencies(m, 0.0, ratios), np.zeros(13))
    monkeypatch.setattr(propagation, "_BATCH_POINTS", 1)
    mixed = np.array([0.3, 0.0, 0.7])
    eta = depleted_efficiencies(m, coupling, mixed)
    assert eta[1] == 0.0
    assert np.array_equal(eta[[0, 2]], depleted_efficiencies(m, coupling, mixed[[0, 2]]))


def test_batched_kernel_skips_cells_without_a_finite_fold(monkeypatch):
    # a zero-width cell's phase step rotates the reduced state, on floats and
    # arrays alike; a coupling so weak that its square underflows converts
    # nothing
    z = np.array([0.0, 0.25, 0.5, 0.5, 1.0]) * L
    phi = 3000.0 * z
    profile = MismatchProfile(z=z, delta_k=np.full(5, 3000.0), phi=phi, kappa=np.nan,
                              length=L)
    weak = constant_mismatch(5000.0, L, grid_n=11)
    ratios = np.linspace(0.1, 1.2, 5)
    for prof, coupling in ((profile, 1.3 / L), (weak, 1e-306)):
        monkeypatch.setattr(propagation, "_BATCH_POINTS", 10 ** 6)
        scalar = depleted_efficiencies(prof, coupling, ratios)
        monkeypatch.setattr(propagation, "_BATCH_POINTS", 1)
        assert np.array_equal(depleted_efficiencies(prof, coupling, ratios), scalar)
        assert np.all(np.isfinite(scalar))
    assert np.all(depleted_efficiencies(weak, 1e-306, ratios) == 0.0)


def test_zero_width_cell_is_the_identity():
    # a repeated node: both undepleted entry points stay finite, with no
    # warning, and match the profile with the repeated node dropped
    z = np.array([0.0, 0.25, 0.5, 0.5, 1.0]) * L
    phi = 3000.0 * z
    profile = MismatchProfile(z=z, delta_k=np.full(5, 3000.0), phi=phi, kappa=np.nan,
                              length=L)
    keep = [0, 1, 2, 4]
    dropped = MismatchProfile(z=z[keep], delta_k=np.full(4, 3000.0), phi=phi[keep],
                              kappa=np.nan, length=L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coupling in (1300.0, 1.57 / L):
            eta = undepleted_efficiencies(z, phi, coupling)
            traj = simulate_undepleted(profile, coupling, steps=100)
            assert np.all(np.isfinite(eta)) and np.all(np.isfinite(traj.a3))
            assert abs(eta[0] - undepleted_efficiencies(z[keep], phi[keep], coupling)[0]) <= 1e-15
            ref = simulate_undepleted(dropped, coupling, steps=100).efficiency
            assert abs(traj.efficiency - ref) <= 1e-15


def test_zero_width_cell_applies_its_phase_step():
    # a repeated node where phi steps by 1 rad: the h -> 0 limit rotates c3 by
    # e^{-i dphi}, as a 1 fm-wide cell and the depleted propagators do
    z = np.array([0.0, 0.25, 0.5, 0.5, 1.0]) * L
    phi = 3000.0 * z + np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    profile = MismatchProfile(z=z, delta_k=np.full(5, 3000.0), phi=phi, kappa=np.nan,
                              length=L)
    thin = z.copy()
    thin[3] += 1e-15
    thin_profile = MismatchProfile(z=thin, delta_k=profile.delta_k, phi=phi, kappa=np.nan,
                                   length=L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coupling in (1300.0, 1.57 / L):
            limit = undepleted_efficiencies(thin, phi, coupling)[0]
            eta = undepleted_efficiencies(z, phi, coupling)[0]
            traj = simulate_undepleted(profile, coupling, steps=100)
            assert abs(eta - limit) <= 1e-12 and abs(traj.efficiency - limit) <= 1e-12
            fields = simulate_undepleted(thin_profile, coupling, steps=100)
            assert np.abs(traj.a1 - fields.a1).max() <= 1e-11
            assert np.abs(traj.a3 - fields.a3).max() <= 1e-11
            weak = depleted_efficiencies(profile, coupling, [1e-4])[0]
            assert abs(weak - limit) <= 1e-7
    assert abs(eta - 0.0221) <= 1e-4


def test_phase_steps_in_the_reduced_kernel_match_rk4():
    # a zero-width cell's phase step rotates (g - d u, u'), as _rk4 rotates c3:
    # the sweep agrees with simulate_depleted at converged steps within 1e-10,
    # on the repeated-node profile and on random non-pi steps, some adjacent
    z = np.array([0.0, 0.25, 0.5, 0.5, 1.0]) * L
    profile = MismatchProfile(z=z, delta_k=np.full(5, 3000.0),
                              phi=3000.0 * z + np.array([0.0, 0.0, 0.0, 1.0, 1.0]),
                              kappa=np.nan, length=L)
    rng = np.random.default_rng(7)
    z = np.sort(np.concatenate([[0.0, L], rng.uniform(0.0, L, 13)]))
    z = np.sort(np.concatenate([z, z[2:5], z[[9, 9]]]))
    phi = 2000.0 * z + np.cumsum(np.append(0.0, np.where(np.diff(z) == 0,
                                                          rng.uniform(-3.0, 3.0, z.size - 1),
                                                          0.0)))
    steps = MismatchProfile(z=z, delta_k=np.full(z.size, 2000.0), phi=phi, kappa=np.nan,
                            length=L)
    assert np.sum(np.diff(z) == 0) == 5
    for prof, coupling in ((profile, 1300.0), (profile, 1.57 / L), (steps, 2000.0)):
        ratios = np.array([1e-4, 0.5, 1.0])
        eta = depleted_efficiencies(prof, coupling, ratios)
        for r, got in zip(ratios, eta):
            ref = simulate_depleted(prof, coupling, steps=40000,
                                    initial=FieldState(r, 0.0, 1.0)).efficiency
            assert abs(got - ref) <= 1e-10


def test_sweep_ignores_steps(design_dk):
    # the Taylor step count comes from the profile, kappa and each ratio alone
    m, coupling = design_dk.mismatch, LAB_FRAME_COUPLING * design_dk.kappa
    ratios = np.linspace(0.01, 1.2, 9)
    assert np.array_equal(depleted_efficiencies(m, coupling, ratios, steps=1),
                          depleted_efficiencies(m, coupling, ratios))
    one = signal_intensity_sweep(design_dk, samples=5, steps=1).efficiencies
    assert np.array_equal(one, signal_intensity_sweep(design_dk, samples=5).efficiencies)


def test_step_count_sees_the_signal(design_dk, monkeypatch):
    # at r = 1e3 a cell rotates about 1.9 rad: 188 Taylor steps per cell agree
    # with 320000 RK4 steps, and with the sweep at half the step phase
    m, coupling = design_dk.mismatch, LAB_FRAME_COUPLING * design_dk.kappa
    eta = depleted_efficiencies(m, coupling, [1e3])[0]
    ref = simulate_depleted(m, coupling, steps=320000,
                            initial=FieldState(1e3, 0.0, 1.0)).efficiency
    assert abs(eta - ref) <= 1e-3 * ref
    monkeypatch.setattr(propagation, "_TAYLOR_PHASE", propagation._TAYLOR_PHASE / 2)
    assert abs(depleted_efficiencies(m, coupling, [1e3])[0] - eta) <= 1e-12


@pytest.mark.parametrize("ratio", [1e4, 1e200])
def test_step_cap_names_the_ratio(design_dk, monkeypatch, ratio):
    # a ratio needing more than _MAX_CELL_STEPS steps per cell is refused
    # before any ratio is integrated
    monkeypatch.setattr(propagation, "_reduced_taylor", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match=re.escape(f"ratio {ratio!r} needs")) as err:
            depleted_efficiencies(design_dk.mismatch, LAB_FRAME_COUPLING * design_dk.kappa,
                                  [0.5, ratio])
    assert str(propagation._MAX_CELL_STEPS) in str(err.value)


def test_trajectory_csv(tmp_path, design_dk):
    # trajectory.csv carries A1 and A3 in both modes and A2 only when depleted,
    # one row per recorded z sample
    names = ["z_m", "re_A1", "im_A1", "re_A3", "im_A3"]
    for depleted, extra in ((False, []), (True, ["re_A2", "im_A2"])):
        cfg = tmp_path / f"config_{depleted}.json"
        cfg.write_text(json.dumps({"simulation": {
            "steps": 2000, "depleted": depleted, "signal_pump_ratio": 0.5}}))
        out = tmp_path / f"out_{depleted}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        traj = simulate_design(design_dk, steps=2000, depleted=depleted,
                               signal_pump_ratio=0.5)
        with open(out / "trajectory.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert rows[0] == names + extra
        assert len(rows) - 1 == len(traj.z)
        assert [float(r[0]) for r in rows[1:]] == list(traj.z)
