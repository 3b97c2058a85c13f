import csv
import json
import warnings

import numpy as np
import pytest

from qasfg import experiments
from qasfg.cli import main
from qasfg.experiments import (
    LAB_FRAME_COUPLING, bandwidth_sweep, efficiency_vs_length, fwhm_interval,
    robustness_period_sweep, robustness_pump_sweep, signal_intensity_sweep,
    simulate_design, tolerance_interval,
)
from qasfg.materials import (SELLMEIER_SETS, DispersionModel, MaterialError,
                             NonlinearConstants, coupling_coefficient,
                             make_wave_triplet)
from qasfg.propagation import (lz_linear_chirp, simulate_undepleted,
                               undepleted_efficiencies)
from qasfg.sensitivity import eta_from_period_error, first_order_efficiency
from qasfg.trajectory import (TrajectorySpec, angle_profiles, boundary_check,
                              delta_k_profile)

STEPS = 4000  # converged for these profiles; see test_sweep_step_convergence


def test_design_consistency(design_dk):
    d = design_dk
    assert d.target == "deltak"
    # poling period consistent with the mismatch profile at every sample
    k_grating = 2 * np.pi / d.poling_period_m
    rebuilt = d.triplet.material_mismatch + k_grating
    assert np.abs(rebuilt - d.mismatch.delta_k).max() <= 1e-9 * np.abs(
        d.mismatch.delta_k).max() + 1e-6
    # pump amplitude reproduces the stored coupling rate
    kappa = coupling_coefficient(d.pump_amplitude, d.triplet, d.nonlinear)
    assert kappa == pytest.approx(d.kappa, rel=1e-12)
    assert boundary_check(d.angles, d.mismatch)["all_ok"]
    assert d.at_boundary is False
    assert d.mismatch.z.size == 4001


def test_design_intensity_scale(design_dk):
    mw_per_cm2 = design_dk.pump_intensity / 1e10
    assert 300.0 < mw_per_cm2 < 600.0


def test_both_designs_convert_completely(design_dk, design_k):
    assert simulate_design(design_dk, steps=6000).efficiency >= 0.99
    assert simulate_design(design_k, steps=6000).efficiency >= 0.99


def test_field_tracks_designed_trajectory(design_dk):
    # the whole point of the construction: along the crystal the field moduli
    # follow the designed mixing angle, |a1| = cos(theta/2), |a3| = sin(theta/2)
    from qasfg.propagation import simulate_undepleted
    traj = simulate_undepleted(design_dk.mismatch, 0.5 * design_dk.kappa,
                               steps=20000)
    theta = np.interp(traj.z, design_dk.angles.z, design_dk.angles.theta)
    assert np.abs(np.abs(traj.a1) - np.cos(theta / 2)).max() < 1e-6
    assert np.abs(np.abs(traj.a3) - np.sin(theta / 2)).max() < 1e-6


def test_depleted_design_simulation(design_dk):
    traj = simulate_design(design_dk, steps=6000, depleted=True,
                           signal_pump_ratio=0.05)
    assert traj.efficiency >= 0.99


def test_fwhm_on_triangle():
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.clip(1.0 - np.abs(xs), 0.0, None)
    lo, hi, width, truncated = fwhm_interval(xs, ys)
    assert not truncated
    assert lo == pytest.approx(-0.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)
    assert width == pytest.approx(1.0, abs=1e-12)


def test_fwhm_counts_side_lobes_above_half_maximum():
    # outermost-crossing rule (DECISIONS.md): a side lobe peaking at 0.6
    # widens the interval from the main lobe's [-0.5, 0.5] to [-0.5, 2 + 1/12]
    xs = np.linspace(-3.0, 3.0, 121)
    ys = (np.clip(1.0 - np.abs(xs), 0.0, None)
          + 0.6 * np.clip(1.0 - 2.0 * np.abs(xs - 2.0), 0.0, None))
    lo, hi, width, truncated = fwhm_interval(xs, ys)
    assert not truncated
    assert lo == pytest.approx(-0.5, abs=1e-12)
    assert hi == pytest.approx(2.0 + 1.0 / 12.0, abs=1e-12)


def test_fwhm_truncation_flag():
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.ones(11)
    lo, hi, width, truncated = fwhm_interval(xs, ys)
    assert truncated and width == pytest.approx(1.0)


def test_tolerance_interval_helper():
    xs = np.linspace(-1.0, 1.0, 21)
    ys = np.clip(1.0 - np.abs(xs), 0.0, None)
    interval = tolerance_interval(xs, ys, 0.5)
    assert interval[0] == pytest.approx(-0.5, abs=1e-12)
    assert interval[1] == pytest.approx(0.5, abs=1e-12)
    assert interval[0] <= 0.0 <= interval[1]
    assert tolerance_interval(xs, np.zeros(21), 0.5) is None


def test_sweep_step_convergence(design_dk):
    a = robustness_pump_sweep(design_dk, rel_min=-0.1, rel_max=0.1, samples=3,
                              steps=STEPS)
    b = robustness_pump_sweep(design_dk, rel_min=-0.1, rel_max=0.1, samples=3,
                              steps=20000)
    assert np.abs(a.efficiencies - b.efficiencies).max() < 1e-6


def test_bandwidth_sweep_smoke(design_dk):
    result = bandwidth_sweep(design_dk, samples=41, steps=STEPS)
    assert result.summary["peak_eta"] >= 0.99
    assert 2.9 < result.summary["peak_lambda1_um"] < 3.1
    assert 250.0 < result.summary["fwhm_nm"] < 550.0
    assert not result.summary["fwhm_truncated_by_range"]


def test_bandwidth_triplet_of_an_array_is_the_per_wavelength_triplets(design_dk):
    # bandwidth_sweep builds one triplet from its array of signal wavelengths;
    # each of its values is the one-wavelength triplet's to the bit
    lams = np.linspace(2.6e-6, 3.6e-6, 201)
    nl = NonlinearConstants()

    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    for name in sorted(SELLMEIER_SETS):
        for temperature in (25.0, 60.0):
            model = DispersionModel.from_name(name, temperature)
            trips = make_wave_triplet(lams, 1.064e-6, model)
            alone = [make_wave_triplet(lam, 1.064e-6, model) for lam in lams]
            for attr in ("n1", "n3", "material_mismatch"):
                assert np.array_equal(bits(getattr(trips, attr)),
                                      bits([getattr(t, attr) for t in alone]))
            assert np.array_equal(bits(coupling_coefficient(4e7, trips, nl)),
                                  bits([coupling_coefficient(4e7, t, nl) for t in alone]))
    with pytest.raises(MaterialError):
        bandwidth_sweep(design_dk, lam_min=3.5e-6, lam_max=4.2e-6, samples=9)


def test_period_sweep_center_and_asymmetry(design_dk):
    result = robustness_period_sweep(design_dk, samples=41, steps=STEPS)
    assert result.summary["eta_at_zero"] >= 0.99
    lo, hi = result.summary["tolerance_intervals"]["0.9"]
    assert lo <= -0.01 and hi >= 0.01
    # positive period offsets are tolerated further than negative ones
    assert hi > abs(lo)


def test_pump_sweep_center(design_k):
    result = robustness_pump_sweep(design_k, samples=21, steps=STEPS)
    assert result.summary["eta_at_zero"] >= 0.99
    assert result.summary["tolerance_intervals"]["0.8"] is not None


def test_robustness_estimate_overlay_tracks_simulation(design_dk):
    # first-order overlay agrees with simulation near zero error and is
    # exported; it is allowed to drift at the window edges
    for sweep_fn in (robustness_period_sweep, robustness_pump_sweep):
        result = sweep_fn(design_dk, rel_min=-0.002, rel_max=0.002, samples=5,
                          steps=STEPS)
        assert result.estimates is not None
        assert np.all((result.estimates >= 0) & (result.estimates <= 1))
        assert np.abs(result.estimates - result.efficiencies).max() < 1e-3


def test_sweep_estimates_match_per_point_first_order(design_dk, design_k):
    # one unit-amplitude integral per sweep, scaled per sample, against
    # first_order_efficiency at each sample, clamped samples included
    clamped = {"period": False, "pump": False}
    for design in (design_dk, design_k):
        for lo, hi, bound in ((-0.2, 0.2, 2e-15), (-0.9, 0.95, 1e-14)):
            # far from x = 0 the integral cancels more, and the two roundings
            # differ by up to 7.4e-15 over 0.2-20 mm designs
            # steps is only checked; at -90 % the grating term grows tenfold
            xs = np.linspace(lo, hi, 41)
            result = robustness_period_sweep(design, lo, hi, 41, steps=10 ** 6)
            direct = [first_order_efficiency(design.angles, eta_deltak=eta_from_period_error(
                x, design.poling_period_m)) for x in xs]
            assert np.abs(result.estimates - direct).max() <= bound
            clamped["period"] |= bool(np.any(result.estimates == 0.0))
        xs = np.linspace(-0.25, 10.0, 41)
        result = robustness_pump_sweep(design, -0.25, 10.0, 41, steps=STEPS)
        direct = [first_order_efficiency(design.angles, eta_kappa=np.sqrt(1.0 + x) - 1.0)
                  for x in xs]
        assert np.abs(result.estimates - direct).max() <= 2e-15
        clamped["pump"] |= bool(np.any(result.estimates == 0.0))
    assert clamped == {"period": True, "pump": True}
    for hi in (1.0, 1.5):
        with pytest.raises(ValueError, match="relative period error"):
            robustness_period_sweep(design_dk, -0.5, hi, 3, steps=STEPS)


def test_signal_sweep(design_dk):
    result = signal_intensity_sweep(design_dk, ratio_min=0.01, ratio_max=1.0,
                                    samples=12, steps=6000)
    etas = result.efficiencies
    assert etas[0] >= 0.99
    assert result.summary["flat_region_max_ratio"] >= 0.05
    assert 0.6 < result.summary["eta_at_max_ratio"] < 0.95
    # non-increasing beyond the flat region, within sampling noise
    tail = etas[result.values >= 0.2]
    assert np.all(np.diff(tail) < 1e-3)
    with pytest.raises(ValueError):
        signal_intensity_sweep(design_dk, ratio_min=0.0)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            signal_intensity_sweep(design_dk, samples=samples)


@pytest.mark.parametrize("window,named", [
    ({"ratio_min": 0.5, "ratio_max": 0.1}, "ratio_min < ratio_max"),
    ({"ratio_min": 0.5, "ratio_max": 0.5}, "ratio_min < ratio_max"),
    ({"ratio_max": np.inf}, "ratio_max"),
    ({"ratio_max": np.nan}, "ratio_max"),
    ({"ratio_min": np.inf}, "ratio_min"),
])
def test_signal_sweep_rejects_bad_window_first(design_dk, monkeypatch, window, named):
    # a bad window fails naming its key, before any integration or numpy warning
    monkeypatch.setattr("qasfg.experiments.depleted_efficiencies", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            signal_intensity_sweep(design_dk, samples=5, **window)


def test_signal_sweep_single_sample_ignores_ratio_max(design_dk):
    one = signal_intensity_sweep(design_dk, ratio_min=0.5, ratio_max=0.1, samples=1,
                                 steps=STEPS)
    assert one.values.tolist() == [0.5]


def test_efficiency_vs_length_flatness():
    lengths = np.geomspace(0.2e-3, 20e-3, 7)
    sweeps = efficiency_vs_length(target="deltak", lengths=lengths, steps=STEPS)
    assert sweeps.qa.summary["flatness_max_minus_min"] < 0.01
    assert sweeps.qa.summary["min_eta"] >= 0.99
    assert len(sweeps.lz.efficiencies) == len(lengths)
    assert sweeps.lz.summary["kappa_per_cm"] == pytest.approx(75.1, abs=2.0)


def test_length_sweep_tree_matches_exact_recorder():
    # both arms of the length sweep's pairwise tree against the sequential
    # recorder on the same profiles, rebuilt from the sweep's own summary
    lengths = np.geomspace(0.2e-3, 20e-3, 3)
    grid_n = 1001
    sweeps = efficiency_vs_length(target="deltak", lengths=lengths, grid_n=grid_n,
                                  steps=STEPS)
    kappa_ref = sweeps.lz.summary["kappa_per_cm"] * 100.0
    extreme = sweeps.lz.summary["chirp_extreme_rad_per_m"]
    for i, length in enumerate(lengths):
        kappa = kappa_ref * 1e-3 / length
        designed = delta_k_profile(angle_profiles(TrajectorySpec(kappa, length, grid_n)))
        chirp = lz_linear_chirp(-extreme, extreme, length, grid_n)
        for profile, coupling, eta in (
                (designed, LAB_FRAME_COUPLING * kappa, sweeps.qa.efficiencies[i]),
                (chirp, LAB_FRAME_COUPLING * kappa_ref, sweeps.lz.efficiencies[i])):
            recorded = simulate_undepleted(profile, coupling)
            assert abs(eta - recorded.efficiency) <= 1e-10


@pytest.mark.parametrize("target", ["deltak", "kappa"])
@pytest.mark.parametrize("grid_n", [1001, 4001])
def test_designed_length_arm_matches_per_length_trees(target, grid_n):
    # the designed arm is one propagation of the 1 mm reference; each length's
    # own profile, rebuilt at kappa*L = const and solved alone, agrees
    lengths = np.geomspace(0.2e-3, 20e-3, 5)
    sweeps = efficiency_vs_length(lengths, target=target, grid_n=grid_n)
    kl = experiments._length_reference(target, grid_n)[0] * 1e-3
    for length, eta in zip(lengths, sweeps.qa.efficiencies):
        m = delta_k_profile(angle_profiles(TrajectorySpec(kl / length, length, grid_n)))
        own = undepleted_efficiencies(m.z, m.phi, LAB_FRAME_COUPLING * kl / length)[0]
        assert abs(eta - own) <= 1e-13
    assert sweeps.qa.summary["flatness_max_minus_min"] == 0.0


def test_length_sweep_warm_equals_cold():
    lengths = np.geomspace(0.3e-3, 8e-3, 4)
    experiments._length_reference.cache_clear()
    cold = efficiency_vs_length(lengths, grid_n=1001)
    warm = efficiency_vs_length(lengths, grid_n=1001)
    for a, b in ((cold.qa, warm.qa), (cold.lz, warm.lz)):
        assert a.efficiencies.tobytes() == b.efficiencies.tobytes()
        assert a.summary == b.summary


def test_length_sweep_bad_target_raises_every_call():
    cached = experiments._length_reference.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown target"):
            efficiency_vs_length(np.array([1e-3, 2e-3]), target="bogus")
    assert experiments._length_reference.cache_info().currsize == cached


@pytest.mark.parametrize("lengths", [
    [], [np.nan, 1e-3], [1e-3, np.inf], [0.0, 1e-3], [-1e-3, 1e-3], [2e-3, 1e-3],
    [1e-3, 1e-3], 1e-3, [[1e-3, 2e-3]],
])
def test_length_sweep_rejects_bad_lengths(monkeypatch, lengths):
    # before any work: the reference design is never built
    monkeypatch.setattr("qasfg.experiments._length_reference", None)
    with pytest.raises(ValueError, match="lengths"):
        efficiency_vs_length(lengths)


def test_eta_at_reference_is_the_exact_1mm_chirp():
    # the chirp's eta oscillates with L, so no window may interpolate it
    exact = efficiency_vs_length(np.array([0.5e-3, 1e-3, 2e-3]), grid_n=1001).lz
    assert exact.summary["eta_at_reference"] == exact.efficiencies[1]
    for lo, hi in ((0.2e-3, 20e-3), (5e-3, 20e-3), (0.2e-3, 0.5e-3)):
        window = efficiency_vs_length(np.geomspace(lo, hi, 7), grid_n=1001).lz
        assert window.summary["eta_at_reference"] == exact.efficiencies[1]


def test_pump_intensity_decreases_with_length(design_dk):
    # kappa*(L) L = const, so the required drive falls off as 1/L
    from qasfg.materials import pump_amplitude_for_kappa, pump_intensity
    kl = design_dk.kappa * design_dk.length
    intensities = []
    for length in (0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3, 20e-3):
        a2 = pump_amplitude_for_kappa(kl / length, design_dk.triplet,
                                      design_dk.nonlinear)
        intensities.append(pump_intensity(a2, design_dk.triplet.n2))
    assert all(a > b for a, b in zip(intensities, intensities[1:]))


def test_lab_frame_coupling_constant():
    assert LAB_FRAME_COUPLING == 0.5


def test_sweep_exports(tmp_path, design_dk):
    # the pump sweep reaches disk through the CLI writer: two '#' lines, the
    # name row, one row per sample, and a summary JSON naming the design
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"simulation": {"steps": 2000}, "sweeps": {
        "pump": {"min_pct": -5.0, "max_pct": 5.0, "samples": 5}}}))
    out = tmp_path / "out"
    assert main(["sweep", "pump", "--config", str(cfg), "--out", str(out)]) == 0
    result = robustness_pump_sweep(design_dk, rel_min=-0.05, rel_max=0.05,
                                   samples=5, steps=2000)
    lines = (out / "pump.csv").read_text().splitlines()
    assert lines[0].startswith("# qasfg v")
    assert lines[1].startswith("# config_sha256=")
    assert lines[2] == "pump_intensity_rel_error_1,eta,eta_first_order_estimate"
    assert len(lines) == 3 + len(result.values) == 3 + 5
    rows = list(csv.reader(lines[3:]))
    assert [float(r[1]) for r in rows] == list(result.efficiencies)
    payload = json.loads((out / "pump_summary.json").read_text())
    assert payload["design"]["target"] == "deltak"
    assert "tolerance_intervals" in payload["summary"]
