"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with the measured values. Three checks
assert reference figures that are internally inconsistent with the model
(see the decisions ledger); they are implemented faithfully as stated and
marked strict xfail.
"""

import time

import numpy as np
import pytest

from qasfg import (
    FieldState, MismatchProfile, TrajectorySpec, angle_profiles, assemble_design,
    bandwidth_sweep, constant_mismatch, delta_k_profile, lz_linear_chirp,
    make_wave_triplet, optimize_kappa, perturbation_coefficients,
    pump_amplitude_for_kappa, pump_intensity, q_deltak, q_kappa,
    simulate_depleted, simulate_design, simulate_undepleted,
)
from qasfg.experiments import LAB_FRAME_COUPLING
from qasfg.materials import NonlinearConstants, coupling_coefficient

L = 1e-3
SWEEP_STEPS = 5000
EDGE_STEPS = 12000


@pytest.fixture(scope="module")
def design_dk_20mm(design_dk):
    return assemble_design(design_dk.kappa / 20.0, 20e-3, "deltak")


@pytest.fixture(scope="module")
def design_k_20mm(design_k):
    return assemble_design(design_k.kappa / 20.0, 20e-3, "kappa")


def _eta_with_offset(design, offset, coupling_scale=1.0, steps=EDGE_STEPS):
    m = design.mismatch
    eff = MismatchProfile(z=m.z, delta_k=m.delta_k + offset,
                          phi=m.phi + offset * m.z, kappa=m.kappa,
                          length=m.length)
    traj = simulate_undepleted(eff, LAB_FRAME_COUPLING * design.kappa * coupling_scale,
                               steps=steps)
    return traj.efficiency


def test_criterion_01_optimal_kappa_deltak_channel():
    t0 = time.time()
    result = optimize_kappa(L, target="deltak")
    elapsed = time.time() - t0
    k_cm = result.kappa_opt / 100.0
    ok = 74.2 <= k_cm <= 78.2 and elapsed < 60.0
    print(f"CRITERION 1: {'PASS' if ok else 'FAIL'} - kappa*(mismatch channel) "
          f"= {k_cm:.3f} /cm, window [74.2, 78.2], {elapsed:.1f} s")
    assert 74.2 <= k_cm <= 78.2
    assert elapsed < 60.0


def test_criterion_02_optimal_kappa_coupling_channel():
    t0 = time.time()
    result = optimize_kappa(L, target="kappa")
    elapsed = time.time() - t0
    k_cm = result.kappa_opt / 100.0
    ok = 59.3 <= k_cm <= 63.3 and elapsed < 60.0
    print(f"CRITERION 2: {'PASS' if ok else 'FAIL'} - kappa*(coupling channel) "
          f"= {k_cm:.3f} /cm, window [59.3, 63.3], {elapsed:.1f} s")
    assert 59.3 <= k_cm <= 63.3
    assert elapsed < 60.0


@pytest.mark.xfail(strict=True, reason="the printed q* magnitudes are not "
                   "reproducible under any coherent sign convention and "
                   "contradict direct simulation of the reference designs; "
                   "see the decisions ledger")
def test_criterion_03_sensitivity_magnitudes(design_dk, design_k):
    q_dk = q_deltak(design_dk.angles)
    q_k = q_kappa(design_k.angles)
    print(f"CRITERION 3: FAIL (expected) - q_dk(kappa*) = {q_dk:.4e} m^2 vs "
          f"3.6723e-8 +-20%; q_k(kappa*) = {q_k:.4e} vs 1.2328e-6 +-20%")
    assert 0.8 * 3.6723e-8 <= q_dk <= 1.2 * 3.6723e-8
    assert 0.8 * 1.2328e-6 <= q_k <= 1.2 * 1.2328e-6


def test_criterion_04_complete_conversion_and_flatness(design_dk, design_k):
    eta_dk = simulate_design(design_dk, steps=20000).efficiency
    eta_k = simulate_design(design_k, steps=20000).efficiency

    lengths = np.geomspace(0.2e-3, 20e-3, 9)
    kl = design_dk.kappa * design_dk.length
    etas = []
    for length in lengths:
        mism = delta_k_profile(angle_profiles(TrajectorySpec(kl / length, length)))
        traj = simulate_undepleted(mism, LAB_FRAME_COUPLING * kl / length,
                                   steps=EDGE_STEPS)
        etas.append(traj.efficiency)
    flatness = max(etas) - min(etas)
    ok = eta_dk >= 0.99 and eta_k >= 0.99 and flatness < 0.01
    print(f"CRITERION 4: {'PASS' if ok else 'FAIL'} - eta(dk-opt) = {eta_dk:.6f}, "
          f"eta(k-opt) = {eta_k:.6f}, flatness over [0.2, 20] mm = {flatness:.2e}")
    assert eta_dk >= 0.99
    assert eta_k >= 0.99
    assert flatness < 0.01


def test_criterion_05a_bandwidths_1mm(design_dk, design_k):
    bw_dk = bandwidth_sweep(design_dk, samples=201, steps=SWEEP_STEPS).summary["fwhm_nm"]
    bw_k = bandwidth_sweep(design_k, samples=201, steps=SWEEP_STEPS).summary["fwhm_nm"]
    ok = 393 * 0.85 <= bw_dk <= 393 * 1.15 and 345 * 0.85 <= bw_k <= 345 * 1.15
    print(f"CRITERION 5a: {'PASS' if ok else 'FAIL'} - 1 mm FWHM: "
          f"{bw_dk:.1f} nm (target 393 +-15%), {bw_k:.1f} nm (target 345 +-15%)")
    assert 393 * 0.85 <= bw_dk <= 393 * 1.15
    assert 345 * 0.85 <= bw_k <= 345 * 1.15


def test_criterion_05b_bandwidth_20mm_coupling_design(design_k_20mm):
    bw = bandwidth_sweep(design_k_20mm, lam_min=2.9e-6, lam_max=3.1e-6,
                         samples=201, steps=SWEEP_STEPS).summary["fwhm_nm"]
    ok = 17 * 0.75 <= bw <= 17 * 1.25
    print(f"CRITERION 5b: {'PASS' if ok else 'FAIL'} - 20 mm FWHM (k-opt) = "
          f"{bw:.2f} nm (target 17 +-25%)")
    assert 17 * 0.75 <= bw <= 17 * 1.25


@pytest.mark.xfail(strict=True, reason="the 40 nm figure breaks the exact "
                   "scale invariance of the design problem (the k-opt pair "
                   "345 nm -> 17 nm obeys it); see the decisions ledger")
def test_criterion_05c_bandwidth_20mm_mismatch_design(design_dk_20mm):
    bw = bandwidth_sweep(design_dk_20mm, lam_min=2.9e-6, lam_max=3.1e-6,
                         samples=201, steps=SWEEP_STEPS).summary["fwhm_nm"]
    print(f"CRITERION 5c: FAIL (expected) - 20 mm FWHM (dk-opt) = {bw:.2f} nm "
          f"vs 40 +-25%")
    assert 40 * 0.75 <= bw <= 40 * 1.25


def test_criterion_06_robustness_windows(design_dk, design_k):
    period_dk = [_eta_with_offset_period(design_dk, x)
                 for x in np.linspace(-0.01, 0.01, 21)]
    period_k = [_eta_with_offset_period(design_k, x)
                for x in np.linspace(-0.01, 0.01, 21)]
    pump_dk = [_eta_with_offset(design_dk, 0.0, coupling_scale=np.sqrt(1 + x))
               for x in np.linspace(-0.25, 0.10, 15)]
    pump_k = [_eta_with_offset(design_k, 0.0, coupling_scale=np.sqrt(1 + x))
              for x in np.linspace(-0.25, 0.25, 21)]
    vals = (min(period_dk), min(period_k), min(pump_dk), min(pump_k))
    ok = vals[0] >= 0.99 and vals[1] >= 0.95 and vals[2] >= 0.80 and vals[3] >= 0.80
    print(f"CRITERION 6: {'PASS' if ok else 'FAIL'} - period +-1%: dk-opt min "
          f"{vals[0]:.4f} (>=0.99), k-opt min {vals[1]:.4f} (>=0.95); pump: "
          f"dk-opt[-25,+10]% min {vals[2]:.4f}, k-opt[-25,+25]% min {vals[3]:.4f} (>=0.80)")
    assert vals[0] >= 0.99
    assert vals[1] >= 0.95
    assert vals[2] >= 0.80
    assert vals[3] >= 0.80


def _eta_with_offset_period(design, rel, steps=EDGE_STEPS):
    m = design.mismatch
    dkm = design.triplet.material_mismatch
    scale = 1.0 / (1.0 + rel)
    eff = MismatchProfile(z=m.z, delta_k=dkm + (m.delta_k - dkm) * scale,
                          phi=dkm * m.z * (1 - scale) + m.phi * scale,
                          kappa=m.kappa, length=m.length)
    traj = simulate_undepleted(eff, LAB_FRAME_COUPLING * design.kappa,
                               steps=steps)
    return traj.efficiency


@pytest.mark.xfail(strict=True, reason="the stated matched-extremes chirp "
                   "baseline oscillates permanently (extreme/Rabi = 1.56) and "
                   "cannot produce a 0.64 peak nor a sustained >=0.9 onset "
                   "near 2 mm; see the decisions ledger")
def test_criterion_07_chirp_baseline(design_dk):
    extreme = abs(design_dk.mismatch.delta_k[0])
    coupling = LAB_FRAME_COUPLING * design_dk.kappa

    lams = np.linspace(2.6e-6, 3.6e-6, 101)
    trip0 = design_dk.triplet
    etas = []
    for lam in lams:
        trip = make_wave_triplet(lam, trip0.lam2, design_dk.model)
        kap = coupling_coefficient(design_dk.pump_amplitude, trip,
                                   design_dk.nonlinear)
        offset = trip.material_mismatch - trip0.material_mismatch
        chirp = lz_linear_chirp(-extreme + offset, extreme + offset, L)
        traj = simulate_undepleted(chirp, LAB_FRAME_COUPLING * kap,
                                   steps=SWEEP_STEPS)
        etas.append(traj.efficiency)
    peak = max(etas)

    lengths = np.linspace(0.3e-3, 5e-3, 48)
    es = []
    for length in lengths:
        chirp = lz_linear_chirp(-extreme, extreme, length)
        traj = simulate_undepleted(chirp, coupling, steps=SWEEP_STEPS)
        es.append(traj.efficiency)
    onset = None
    for i in range(len(lengths)):
        if all(e >= 0.9 for e in es[i:]):
            onset = lengths[i]
            break
    print(f"CRITERION 7: FAIL (expected) - chirp baseline peak = {peak:.3f} vs "
          f"0.64 +-0.06; sustained >=0.9 onset = "
          f"{'none <= 5 mm' if onset is None else f'{onset * 1e3:.2f} mm'} vs ~2 mm")
    assert 0.58 <= peak <= 0.70
    assert onset is not None and 1.2e-3 <= onset <= 3.0e-3


def test_criterion_08_depleted_pump(design_dk, design_k):
    eta_dk_1 = simulate_design(design_dk, steps=10000, depleted=True,
                               signal_pump_ratio=1.0).efficiency
    eta_k_1 = simulate_design(design_k, steps=10000, depleted=True,
                              signal_pump_ratio=1.0).efficiency
    eta_dk_small = simulate_design(design_dk, steps=10000, depleted=True,
                                   signal_pump_ratio=0.05).efficiency
    eta_k_small = simulate_design(design_k, steps=10000, depleted=True,
                                  signal_pump_ratio=0.05).efficiency
    ok = (0.67 <= eta_dk_1 <= 0.87 and 0.60 <= eta_k_1 <= 0.80
          and eta_dk_small >= 0.99 and eta_k_small >= 0.99)
    print(f"CRITERION 8: {'PASS' if ok else 'FAIL'} - ratio 1: dk-opt "
          f"{eta_dk_1:.3f} (0.77 +-0.10), k-opt {eta_k_1:.3f} (0.70 +-0.10); "
          f"ratio 0.05: {eta_dk_small:.4f}, {eta_k_small:.4f} (>=0.99)")
    assert 0.67 <= eta_dk_1 <= 0.87
    assert 0.60 <= eta_k_1 <= 0.80
    assert eta_dk_small >= 0.99
    assert eta_k_small >= 0.99


def test_criterion_09_pump_intensity(design_dk):
    target = 455.0  # MW/cm^2
    vals = []
    for d33_pm in (25.0, 27.0):
        nl = NonlinearConstants(chi2=d33_pm * 1e-12)
        a2 = pump_amplitude_for_kappa(design_dk.kappa, design_dk.triplet, nl)
        vals.append(pump_intensity(a2, design_dk.triplet.n2) / 1e10)
    ok = all(target / 2 <= v <= target * 2 for v in vals)
    print(f"CRITERION 9: {'PASS' if ok else 'FAIL'} - intensity at d33 = 25/27 "
          f"pm/V: {vals[0]:.0f} / {vals[1]:.0f} MW/cm^2, window "
          f"[{target / 2:.0f}, {target * 2:.0f}]")
    for v in vals:
        assert target / 2 <= v <= target * 2


def test_criterion_10_property_suite(design_dk):
    lines = []

    # flux conservation along the full trajectory at default resolution
    traj = simulate_undepleted(design_dk.mismatch,
                               LAB_FRAME_COUPLING * design_dk.kappa, steps=20000)
    drift = float(np.abs(np.abs(traj.a1) ** 2 + np.abs(traj.a3) ** 2 - 1).max())
    lines.append(f"conservation drift {drift:.1e}")
    assert drift < 1e-8

    # measured self-convergence order of the depleted RK4 (the undepleted
    # recorder is exact); one phase-matched profile cell, so the requested
    # 20, 40 and 80 steps are the steps taken
    flat = constant_mismatch(0.0, L, grid_n=2)
    for ratio in (0.5, 1.0):
        e20, e40, e80 = (simulate_depleted(flat, 1.3 / L, steps=steps,
                                           initial=FieldState(ratio, 0.0, 1.0)).efficiency
                         for steps in (20, 40, 80))
        order = float(np.log2(abs(e20 - e40) / abs(e40 - e80)))
        lines.append(f"depleted RK4 order {order:.2f} at ratio {ratio}")
        assert order >= 3.8

    # defining-identity residuals of the trajectory
    a = design_dk.angles
    m = design_dk.mismatch
    res7 = float(np.abs(a.theta_dot + a.kappa * np.sin(a.beta)).max())
    assert res7 <= 1e-9 * a.kappa
    beta_fd = (a.beta[2:] - a.beta[:-2]) / (a.z[2] - a.z[0])
    res8 = float(np.abs(beta_fd + a.kappa * (np.cos(a.theta[1:-1])
                 / np.sin(a.theta[1:-1])) * np.cos(a.beta[1:-1])
                 + m.delta_k[1:-1]).max())
    assert res8 <= 1e-6 * np.abs(m.delta_k).max()
    lines.append("auxiliary-equation residuals ok")

    # mismatch antisymmetry and endpoint-limit agreement
    dk = m.delta_k
    assert np.abs(dk + dk[::-1]).max() <= 1e-6 * np.abs(dk).max()
    d = a.kappa * L - np.pi
    z_probe = 1e-6 * L
    s = z_probe / L
    theta = a.kappa * z_probe - d * (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)
    theta_dot = a.kappa - (30 * d / L) * s ** 2 * (1 - s) ** 2
    theta_ddot = -(60 * d / L ** 2) * s * (1 - s) * (1 - 2 * s)
    cos_beta = np.sqrt(1 - (theta_dot / a.kappa) ** 2)
    direct = (theta_ddot / (a.kappa * cos_beta)
              - a.kappa * (np.cos(theta) / np.sin(theta)) * cos_beta)
    assert direct == pytest.approx(dk[0], rel=1e-3)
    lines.append("mismatch antisymmetry and endpoint limits ok")

    # kappa* scaling law across lengths
    kls = []
    for length in (0.5e-3, 1e-3, 2e-3, 5e-3):
        kls.append(optimize_kappa(length, target="deltak").kappa_opt * length)
    spread = (max(kls) - min(kls)) / min(kls)
    lines.append(f"kappa*L spread {spread:.2e}")
    assert spread < 5e-3

    # second-order prediction vs full simulation at predicted deficit 1e-3
    generic = angle_profiles(TrajectorySpec(9000.0, L))
    mism = delta_k_profile(generic)
    c_dk, c_k = perturbation_coefficients(generic)
    off = np.sqrt(1e-3 / c_dk)
    eff = MismatchProfile(z=mism.z, delta_k=mism.delta_k + off,
                          phi=mism.phi + off * mism.z, kappa=9000.0, length=L)
    deficit_dk = 1 - simulate_undepleted(eff, 0.5 * 9000.0, steps=EDGE_STEPS).efficiency
    ek = np.sqrt(1e-3 / c_k)
    deficit_k = 1 - simulate_undepleted(mism, 0.5 * 9000.0 * (1 + ek),
                                        steps=EDGE_STEPS).efficiency
    lines.append(f"deficit ratios {deficit_dk / 1e-3:.3f}, {deficit_k / 1e-3:.3f}")
    assert deficit_dk == pytest.approx(1e-3, rel=0.10)
    assert deficit_k == pytest.approx(1e-3, rel=0.10)

    # bit-identical reruns
    r1 = optimize_kappa(L, target="deltak", grid_n=1001)
    r2 = optimize_kappa(L, target="deltak", grid_n=1001)
    assert r1.kappa_opt == r2.kappa_opt and r1.q_opt == r2.q_opt
    s1 = bandwidth_sweep(design_dk, samples=5, steps=2000).efficiencies
    s2 = bandwidth_sweep(design_dk, samples=5, steps=2000).efficiencies
    assert np.array_equal(s1, s2)
    lines.append("bit-identical reruns ok")

    print("CRITERION 10: PASS - " + "; ".join(lines))
