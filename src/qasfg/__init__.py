"""qasfg: inverse-engineered quasi-adiabatic poled-crystal designs for
complete and robust sum-frequency conversion, with coupled-wave validation."""

__version__ = "0.1.0"

from .materials import (
    C_LIGHT, EPS0_CODATA, EPS0_PAPER_VALUE, DispersionModel, MaterialError,
    NonlinearConstants, SellmeierSet, WaveTriplet, coupling_coefficient,
    make_wave_triplet, poling_period, pump_amplitude_for_kappa, pump_intensity,
    refractive_index,
)
from .trajectory import (
    AngleProfiles, MismatchProfile, TrajectoryError, TrajectorySpec,
    angle_profiles, beta_profile, boundary_check, delta_k_profile,
)
from .sensitivity import (
    OptimizeResult, eta_from_period_error, first_order_efficiency,
    optimize_kappa, perturbation_coefficients, q_deltak, q_kappa,
)
from .propagation import (
    FieldState, FieldTrajectory, PropagationError, constant_mismatch,
    depleted_efficiencies, lz_linear_chirp, simulate_depleted,
    simulate_undepleted, undepleted_efficiencies,
)
from .experiments import (
    LAB_FRAME_COUPLING, CrystalDesign, LengthSweeps, SweepResult,
    assemble_design, bandwidth_sweep, build_design, efficiency_vs_length,
    fwhm_interval, robustness_period_sweep, robustness_pump_sweep,
    signal_intensity_sweep, simulate_design, tolerance_interval,
)
