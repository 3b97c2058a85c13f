"""Design assembly and sweep drivers: bandwidth, robustness, length scaling,
and signal-depletion experiments.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .materials import (DispersionModel, NonlinearConstants, WaveTriplet,
                        EPS0_PAPER_VALUE, make_wave_triplet,
                        coupling_coefficient, pump_amplitude_for_kappa,
                        pump_intensity, poling_period)
from .propagation import (FieldState, simulate_undepleted, simulate_depleted,
                          undepleted_efficiencies, depleted_efficiencies,
                          lz_linear_chirp)
from .sensitivity import (_first_order_estimates, eta_from_period_error,
                          optimize_kappa)
from .trajectory import (AngleProfiles, TrajectorySpec, MismatchProfile,
                         angle_profiles, delta_k_profile)

__all__ = [
    "LAB_FRAME_COUPLING", "CrystalDesign", "SweepResult", "LengthSweeps",
    "assemble_design", "build_design", "simulate_design", "bandwidth_sweep",
    "robustness_period_sweep", "robustness_pump_sweep", "efficiency_vs_length",
    "signal_intensity_sweep", "fwhm_interval", "tolerance_interval",
]

# The inverse engineering treats kappa as the full two-level coupling (Rabi)
# rate of the rotating-frame matrix; in the lab-frame pair each off-diagonal
# then carries kappa/2. Simulations of a design therefore run at this
# fraction of the design kappa. Complete conversion of the designed profiles
# is exact under this mapping and fails without it.
LAB_FRAME_COUPLING = 0.5

# The efficiency levels of the robustness sweeps' tolerance intervals.
THRESHOLDS = (0.99, 0.95, 0.90, 0.80)


@dataclass(frozen=True)
class CrystalDesign:
    """A fully assembled poled-crystal design: the exportable artifact."""

    kappa: float  # design coupling rate, rad/m
    length: float  # m
    target: str  # "deltak" | "kappa"
    model: DispersionModel
    triplet: WaveTriplet
    nonlinear: NonlinearConstants
    angles: AngleProfiles
    mismatch: MismatchProfile
    poling_period_m: np.ndarray  # signed local period per grid sample
    pump_amplitude: float  # V/m
    pump_intensity: float  # W/m^2
    q_value: float
    eps0: float
    at_boundary: bool = False  # kappa at an edge of the search range


@dataclass(frozen=True)
class SweepResult:
    """Ordered (parameter, efficiency) samples with a derived summary.

    Robustness sweeps also carry the first-order perturbative estimates,
    written alongside the simulated values (the simulation is authoritative;
    the estimate is an overlay that degrades at large errors).
    """

    parameter: str
    unit: str
    values: np.ndarray
    efficiencies: np.ndarray
    summary: dict
    estimates: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("sweep samples must be strictly increasing")
        if np.any(self.efficiencies < 0) or np.any(self.efficiencies > 1 + 1e-6):
            raise ValueError("efficiency outside [0, 1 + 1e-6]")


@dataclass(frozen=True)
class LengthSweeps:
    """Efficiency vs length for the engineered design and the chirp baseline."""

    qa: SweepResult
    lz: SweepResult


def assemble_design(kappa, length, target, model=DispersionModel(),
                    nonlinear=NonlinearConstants(), lam1=3.0e-6, lam2=1.064e-6,
                    grid_n=4001, eps0=EPS0_PAPER_VALUE, q_value=float("nan"),
                    at_boundary=False):
    """Assemble the design artifact for a given coupling rate: angle
    profiles, dk(z), poling period profile, pump drive. Deterministic."""
    triplet = make_wave_triplet(lam1, lam2, model)
    angles = angle_profiles(TrajectorySpec(kappa, length, grid_n))
    mismatch = delta_k_profile(angles)
    periods = poling_period(mismatch.delta_k, triplet)
    a2 = pump_amplitude_for_kappa(kappa, triplet, nonlinear)
    intensity = pump_intensity(a2, triplet.n2, eps0)
    return CrystalDesign(
        kappa=kappa, length=length, target=target, model=model,
        triplet=triplet, nonlinear=nonlinear, angles=angles, mismatch=mismatch,
        poling_period_m=periods, pump_amplitude=a2, pump_intensity=intensity,
        q_value=q_value, eps0=eps0, at_boundary=at_boundary)


def build_design(length, target="deltak", model=DispersionModel(),
                 nonlinear=NonlinearConstants(), lam1=3.0e-6, lam2=1.064e-6,
                 grid_n=4001, search_range=None, eps0=EPS0_PAPER_VALUE):
    """Optimize the coupling for the chosen error channel, then assemble."""
    opt = optimize_kappa(length, target=target, search_range=search_range,
                         grid_n=grid_n)
    return assemble_design(opt.kappa_opt, length, target, model=model,
                           nonlinear=nonlinear, lam1=lam1, lam2=lam2,
                           grid_n=grid_n, eps0=eps0, q_value=opt.q_opt,
                           at_boundary=opt.at_boundary)


def simulate_design(design, steps=20000, depleted=False, signal_pump_ratio=1.0):
    """Propagate the design at its center wavelength, recording the fields
    at profile nodes.

    Undepleted mode launches the unit signal and takes one exact rotation
    per profile cell, ignoring steps; depleted mode launches (signal, pump)
    flux amplitudes (ratio, 1) and takes at least steps RK4 steps.
    """
    coupling = LAB_FRAME_COUPLING * design.kappa
    if depleted:
        initial = FieldState(a1=signal_pump_ratio, a3=0.0, a2=1.0)
        return simulate_depleted(design.mismatch, coupling, steps=steps,
                                 initial=initial)
    return simulate_undepleted(design.mismatch, coupling, steps=steps)


def bandwidth_sweep(design, lam_min=2.6e-6, lam_max=3.6e-6, samples=201,
                    steps=20000, workers=1):
    """Signal-wavelength acceptance of the fabricated design.

    The poling profile and the pump drive are frozen; each wavelength gets
    its own material mismatch offset and its own coupling rate (same pump
    amplitude, new frequencies and indices). Like every undepleted sweep,
    it is solved exactly on the profile grid by undepleted_efficiencies, so
    it takes no steps: steps and workers are accepted and ignored.
    """
    z, phi0 = design.mismatch.z, design.mismatch.phi
    lams = np.linspace(lam_min, lam_max, samples)
    trips = make_wave_triplet(lams, design.triplet.lam2, design.model)  # arrays
    offsets = trips.material_mismatch - design.triplet.material_mismatch
    couplings = LAB_FRAME_COUPLING * coupling_coefficient(
        design.pump_amplitude, trips, design.nonlinear)
    etas = undepleted_efficiencies(z, phi0 + offsets[:, None] * z, couplings)
    lo, hi, width, truncated = fwhm_interval(lams, etas)
    summary = {
        "peak_eta": float(etas.max()),
        "peak_lambda1_um": float(lams[int(np.argmax(etas))] * 1e6),
        "fwhm_nm": float(width * 1e9),
        "half_max_lambda_um": [float(lo * 1e6), float(hi * 1e6)],
        "fwhm_truncated_by_range": truncated,
    }
    return SweepResult("lambda1", "m", lams, etas, summary)


def robustness_period_sweep(design, rel_min=-0.20, rel_max=0.20, samples=81,
                            steps=20000, workers=1):
    """Uniformly scale the poling period by (1 + x) and re-simulate.

    The grating wavevector scales as 1/(1 + x) at every sample; the material
    mismatch is untouched. Solved as bandwidth_sweep; steps and workers are
    accepted and ignored.
    """
    if rel_min <= -1.0:
        raise ValueError("relative period error must stay above -100%")
    z, phi0 = design.mismatch.z, design.mismatch.phi
    dkm = design.triplet.material_mismatch
    coupling = LAB_FRAME_COUPLING * design.kappa
    xs = np.linspace(rel_min, rel_max, samples)
    # the error profile -2 pi x / period(z) is x's amplitude over period(z)
    amplitudes = np.array([eta_from_period_error(x, 1.0) for x in xs])
    scales = 1.0 / (1.0 + xs)
    etas = undepleted_efficiencies(
        z, dkm * z * (1.0 - scales[:, None]) + phi0 * scales[:, None], coupling)
    estimates = _first_order_estimates(design.angles, amplitudes,
                                       eta_deltak=1.0 / design.poling_period_m)
    summary = {"tolerance_intervals": {
        str(t): tolerance_interval(xs, etas, t) for t in THRESHOLDS}}
    summary["eta_at_zero"] = float(etas[int(np.argmin(np.abs(xs)))])
    return SweepResult("period_rel_error", "1", xs, etas, summary, estimates)


def robustness_pump_sweep(design, rel_min=-0.25, rel_max=0.25, samples=81,
                          steps=20000, workers=1):
    """Scale the pump intensity by (1 + x); the coupling scales as sqrt(1 + x).
    Solved as bandwidth_sweep; steps and workers are accepted and ignored."""
    if rel_min <= -1.0:
        raise ValueError("relative intensity error must stay above -100%")
    z, phi0 = design.mismatch.z, design.mismatch.phi
    xs = np.linspace(rel_min, rel_max, samples)
    couplings = LAB_FRAME_COUPLING * design.kappa * np.sqrt(1.0 + xs)
    etas = undepleted_efficiencies(z, np.broadcast_to(phi0, (samples, len(z))), couplings)
    estimates = _first_order_estimates(design.angles, np.sqrt(1.0 + xs) - 1.0,
                                       eta_kappa=1.0)
    summary = {"tolerance_intervals": {
        str(t): tolerance_interval(xs, etas, t) for t in THRESHOLDS}}
    summary["eta_at_zero"] = float(etas[int(np.argmin(np.abs(xs)))])
    return SweepResult("pump_intensity_rel_error", "1", xs, etas, summary, estimates)


@lru_cache(maxsize=8)
def _length_reference(target, grid_n):
    """(kappa*, |dk(0)|, designed eta, chirp eta) of the 1 mm reference design
    and of its matched-extremes chirp, floats only; an exception caches nothing."""
    kappa = optimize_kappa(1e-3, target=target, grid_n=grid_n).kappa_opt
    designed = delta_k_profile(angle_profiles(TrajectorySpec(kappa, 1e-3, grid_n)))
    dk_extreme = abs(float(designed.delta_k[0]))
    chirp = lz_linear_chirp(-dk_extreme, dk_extreme, 1e-3, grid_n)
    etas = undepleted_efficiencies([designed.z, chirp.z], [designed.phi, chirp.phi],
                                   LAB_FRAME_COUPLING * kappa)
    return kappa, dk_extreme, *etas.tolist()


def efficiency_vs_length(lengths, target="deltak", grid_n=4001, steps=20000,
                         workers=1):
    """Conversion efficiency vs crystal length, at the given lengths (m).

    The engineered design uses the scaling law kappa*(L) * L = const anchored
    at the 1 mm reference length, so its cells depend on kappa*L and z/L only:
    every length has the reference's efficiency, solved once per target and
    grid (_length_reference). The chirp baseline keeps the reference coupling
    and ramps the mismatch linearly between the reference design's endpoint
    values over each length; eta_at_reference is its exact 1 mm value. No
    material enters. Solved as bandwidth_sweep; steps and workers are ignored.
    """
    sustain_threshold = 0.90
    lengths = np.asarray(lengths, dtype=float)
    if not (lengths.ndim == 1 and lengths.size and np.all(np.isfinite(lengths))
            and lengths[0] > 0 and np.all(np.diff(lengths) > 0)):
        raise ValueError("lengths must be a non-empty, finite, positive and "
                         f"strictly increasing 1-D array, got {lengths!r}")
    kappa_ref, dk_extreme, eta_designed, eta_reference = _length_reference(target, grid_n)

    lz_z, lz_phi = (np.empty((len(lengths), grid_n)) for _ in range(2))
    for i, L in enumerate(lengths):
        chirp = lz_linear_chirp(-dk_extreme, dk_extreme, L, grid_n)
        lz_z[i], lz_phi[i] = chirp.z, chirp.phi
    qa = np.full(len(lengths), eta_designed)
    lz = undepleted_efficiencies(lz_z, lz_phi, LAB_FRAME_COUPLING * kappa_ref)

    sustained = None
    for i in range(len(lengths)):
        if np.all(lz[i:] >= sustain_threshold):
            sustained = float(lengths[i])
            break
    qa_summary = {"flatness_max_minus_min": float(qa.max() - qa.min()),
                  "min_eta": float(qa.min())}
    lz_summary = {"first_sustained_above_threshold_m": sustained,
                  "sustain_threshold": sustain_threshold,
                  "eta_at_reference": eta_reference,
                  "chirp_extreme_rad_per_m": dk_extreme,
                  "kappa_per_cm": kappa_ref / 100.0}
    return LengthSweeps(
        qa=SweepResult("length", "m", lengths, qa, qa_summary),
        lz=SweepResult("length", "m", lengths, lz, lz_summary))


def signal_intensity_sweep(design, ratio_min=0.01, ratio_max=1.0, samples=41,
                           steps=20000, workers=1):
    """Depleted-pump efficiency vs signal/pump flux-amplitude ratio, by
    depleted_efficiencies: RK4 on the Manley-Rowe-reduced system, each point
    alone in a short sweep, arrays of all points in a long one; workers is
    ignored."""
    if not 0.0 < ratio_min < math.inf:
        raise ValueError("ratio_min must be positive and finite (zero signal has no "
                         f"efficiency), got {ratio_min!r}")
    if not math.isfinite(ratio_max):
        raise ValueError(f"ratio_max must be finite, got {ratio_max!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if samples > 1 and ratio_max <= ratio_min:
        raise ValueError(f"need ratio_min < ratio_max, got {ratio_min!r} and {ratio_max!r}")
    ratios = np.linspace(ratio_min, ratio_max, samples)
    etas = depleted_efficiencies(design.mismatch, LAB_FRAME_COUPLING * design.kappa,
                                 ratios, steps=steps)
    flat = ratios[etas >= 0.99]
    summary = {"eta_at_max_ratio": float(etas[-1]),
               "flat_region_max_ratio": float(flat.max()) if flat.size else 0.0}
    return SweepResult("signal_pump_ratio", "1", ratios, etas, summary)


def _crossing(xs, ys, i, j, level):
    """x where the segment from sample i to sample j crosses level."""
    return xs[i] + (level - ys[i]) * (xs[j] - xs[i]) / (ys[j] - ys[i])


def fwhm_interval(xs, ys):
    """Full width at half maximum via the outermost half-peak crossings,
    linearly interpolated. Returns (x_lo, x_hi, width, truncated). Side lobes
    above half maximum count as bandwidth; DECISIONS.md gives the reason."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    half = ys.max() / 2.0
    above = np.where(ys >= half)[0]
    lo_i, hi_i = above[0], above[-1]
    truncated = False
    if lo_i == 0:
        x_lo, truncated = xs[0], True
    else:
        x_lo = _crossing(xs, ys, lo_i - 1, lo_i, half)
    if hi_i == len(xs) - 1:
        x_hi, truncated = xs[-1], True
    else:
        x_hi = _crossing(xs, ys, hi_i, hi_i + 1, half)
    return float(x_lo), float(x_hi), float(x_hi - x_lo), truncated


def tolerance_interval(xs, ys, threshold):
    """Closed interval around x = 0 where ys >= threshold, crossings
    linearly interpolated. Returns (lo, hi) or None if eta(0) < threshold."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    i0 = int(np.argmin(np.abs(xs)))
    if ys[i0] < threshold:
        return None
    lo_i = i0
    while lo_i > 0 and ys[lo_i - 1] >= threshold:
        lo_i -= 1
    hi_i = i0
    while hi_i < len(xs) - 1 and ys[hi_i + 1] >= threshold:
        hi_i += 1
    lo = xs[0] if lo_i == 0 else _crossing(xs, ys, lo_i - 1, lo_i, threshold)
    hi = xs[-1] if hi_i == len(xs) - 1 else _crossing(xs, ys, hi_i, hi_i + 1, threshold)
    return (float(lo), float(hi))
