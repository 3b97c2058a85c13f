"""Dispersion, wavevectors, and coupling/pump conversions for MgO:LiNbO3.

All quantities are SI internally (m, rad/m, rad/s, V/m, W/m^2). Wavelengths
passed to the Sellmeier series are converted to um inside.
"""

import math
from dataclasses import dataclass

import numpy as np

C_LIGHT = 299792458.0  # m/s
MU0 = 4e-7 * np.pi  # H/m

# Vacuum permittivity. The design tables in this package were produced with
# the rounded 8.82e-12 F/m value; the CODATA value is available for
# comparison runs via the material config.
EPS0_PAPER_VALUE = 8.82e-12  # F/m
EPS0_CODATA = 8.8541878128e-12  # F/m
EPS0_CHOICES = {"paper-value": EPS0_PAPER_VALUE, "codata": EPS0_CODATA}


class MaterialError(ValueError):
    """Bad wavelength, coefficient set, or singular poling denominator."""


@dataclass(frozen=True)
class SellmeierSet:
    """Temperature-dependent Sellmeier coefficients.

    n^2 = a1 + b1*f + (a2 + b2*f)/(lm^2 - (a3 + b3*f)^2)
             + (a4 + b4*f)/(lm^2 - a5^2) - a6*lm^2
    with lm in um and f = (T - 24.5)(T + 570.82), T in deg C.
    """

    name: str
    a: tuple
    b: tuple
    valid_um: tuple  # inclusive wavelength range in um

    def index(self, lam_um, temperature_c):
        """n at the wavelengths lam_um (um) and temperature_c (deg C).
        Raises MaterialError at or below absolute zero, and unless every
        index is finite and real and no temperature term overflows the float
        range: a huge finite temperature can give a finite index from an
        infinite pole term."""
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        t = float(temperature_c)  # a float overflows to inf without a warning
        if t <= -273.15:  # NaN falls through to the index check below
            raise MaterialError(f"{temperature_c!r} deg C is at or below absolute zero")
        f = (t - 24.5) * (t + 570.82)
        try:
            pole2 = math.pow(a3 + b3 * f, 2)  # finite only if f and each b*f are
        except OverflowError:
            pole2 = math.inf
        if math.isfinite(pole2):
            lm2 = np.asarray(lam_um, dtype=float) ** 2
            n2 = (a1 + b1 * f
                  + (a2 + b2 * f) / (lm2 - pole2)
                  + (a4 + b4 * f) / (lm2 - a5 ** 2)
                  - a6 * lm2)
            # NaN fails both comparisons; a scalar n2 is an np.float64, a float
            if (0.0 < n2 < math.inf if isinstance(n2, float)
                    else np.all((n2 > 0.0) & (n2 < math.inf))):
                return np.sqrt(n2)
        raise MaterialError(
            f"the {self.name} refractive indices at {temperature_c!r} deg C are "
            "not all finite and real")


# 5 mol% MgO-doped congruent LiNbO3 (Gayer et al. 2008 coefficient sets).
GAYER_MGO_CLN_E = SellmeierSet(
    name="gayer2008_mgo_cln_e",
    a=(5.756, 0.0983, 0.2020, 189.32, 12.52, 1.32e-2),
    b=(2.860e-6, 4.7e-8, 6.113e-8, 1.516e-4),
    valid_um=(0.5, 4.0),
)
GAYER_MGO_CLN_O = SellmeierSet(
    name="gayer2008_mgo_cln_o",
    a=(5.653, 0.1185, 0.2091, 89.61, 10.85, 1.97e-2),
    b=(7.941e-7, 3.134e-8, -4.641e-9, -2.188e-6),
    valid_um=(0.5, 4.0),
)

SELLMEIER_SETS = {s.name: s for s in (GAYER_MGO_CLN_E, GAYER_MGO_CLN_O)}


@dataclass(frozen=True)
class DispersionModel:
    """A named Sellmeier set evaluated at a fixed crystal temperature."""

    sellmeier: SellmeierSet = GAYER_MGO_CLN_E
    temperature_c: float = 25.0

    @classmethod
    def from_name(cls, name, temperature_c=25.0):
        if name not in SELLMEIER_SETS:
            raise MaterialError(
                f"unknown dispersion set {name!r}; available: {sorted(SELLMEIER_SETS)}")
        return cls(SELLMEIER_SETS[name], temperature_c)


def refractive_index(lam, model=DispersionModel()):
    """Refractive index at vacuum wavelength lam (m). Scalar or array.

    Raises MaterialError outside the set's declared validity range;
    no extrapolation is performed.
    """
    lam_um = np.asarray(lam, dtype=float) * 1e6
    lo, hi = model.sellmeier.valid_um
    if np.any(lam_um < lo) or np.any(lam_um > hi):
        raise MaterialError(
            f"wavelength outside the {model.sellmeier.name} validity range "
            f"[{lo}, {hi}] um: {np.atleast_1d(lam_um)[np.argmax((lam_um < lo) | (lam_um > hi))]:.4f} um")
    n = model.sellmeier.index(lam_um, model.temperature_c)
    return float(n) if np.isscalar(lam) or np.ndim(lam) == 0 else n


@dataclass(frozen=True)
class WaveTriplet:
    """Signal (1), pump (2), and upconverted (3) wave parameters."""

    lam1: float
    lam2: float
    lam3: float
    n1: float
    n2: float
    n3: float

    @property
    def omega1(self):
        return 2 * np.pi * C_LIGHT / self.lam1

    @property
    def omega2(self):
        return 2 * np.pi * C_LIGHT / self.lam2

    @property
    def omega3(self):
        return 2 * np.pi * C_LIGHT / self.lam3

    @property
    def k1(self):
        return 2 * np.pi * self.n1 / self.lam1

    @property
    def k2(self):
        return 2 * np.pi * self.n2 / self.lam2

    @property
    def k3(self):
        return 2 * np.pi * self.n3 / self.lam3

    @property
    def material_mismatch(self):
        """k1 + k2 - k3 (rad/m), negative under normal dispersion."""
        return self.k1 + self.k2 - self.k3


def make_wave_triplet(lam1, lam2, model=DispersionModel()):
    """Build the energy-conserving triplet: 1/lam3 = 1/lam1 + 1/lam2."""
    lam3 = 1.0 / (1.0 / lam1 + 1.0 / lam2)
    n1 = refractive_index(lam1, model)
    n2 = refractive_index(lam2, model)
    n3 = refractive_index(lam3, model)
    return WaveTriplet(lam1, lam2, lam3, n1, n2, n3)


@dataclass(frozen=True)
class NonlinearConstants:
    """Second-order nonlinearity and poling duty cycle.

    chi2 is the susceptibility plugged into the coupling formula. The
    default material config uses chi2 = d33 (25 pm/V), which reproduces
    the tabulated pump intensity of the reference 1 mm design; see the
    chi2_convention config switch.
    """

    chi2: float = 25e-12  # m/V
    duty_cycle: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.duty_cycle < 1.0:
            raise MaterialError(f"duty cycle must lie in (0, 1), got {self.duty_cycle}")

    @property
    def chi1(self):
        """Effective first-order Fourier amplitude of the poled chi2 grating."""
        return (2.0 / np.pi) * np.sin(np.pi * self.duty_cycle) * self.chi2


def coupling_coefficient(a2, waves, nl=NonlinearConstants()):
    """Coupling rate kappa = 4 pi w1 w3 chi1 A2 / (c^2 sqrt(k1 k3)), rad/m."""
    if a2 < 0:
        raise MaterialError(f"pump amplitude must be >= 0, got {a2}")
    return (4 * np.pi * waves.omega1 * waves.omega3 * nl.chi1 * a2
            / (C_LIGHT ** 2 * np.sqrt(waves.k1 * waves.k3)))


def pump_amplitude_for_kappa(kappa, waves, nl=NonlinearConstants()):
    """Exact inverse of coupling_coefficient (V/m)."""
    if kappa < 0:
        raise MaterialError(f"kappa must be >= 0, got {kappa}")
    return (kappa * C_LIGHT ** 2 * np.sqrt(waves.k1 * waves.k3)
            / (4 * np.pi * waves.omega1 * waves.omega3 * nl.chi1))


def pump_intensity(a2, n2, eps0=EPS0_PAPER_VALUE):
    """Pump intensity I = 2 n2 sqrt(eps0/mu0) |A2|^2 (W/m^2)."""
    if a2 < 0:
        raise MaterialError(f"pump amplitude must be >= 0, got {a2}")
    return 2.0 * n2 * np.sqrt(eps0 / MU0) * a2 ** 2


def poling_period(delta_k, waves):
    """Signed local poling period Lambda = 2 pi / (dk - k1 - k2 + k3), m.

    The sign carries the poling orientation; |Lambda| is the physical
    period. Scalar or array delta_k.
    """
    denom = np.asarray(delta_k, dtype=float) - waves.material_mismatch
    if np.any(np.abs(denom) < 1e-9):
        raise MaterialError(
            "delta_k cancels the material mismatch exactly; the point needs no poling "
            "and the period is undefined there")
    lam = 2 * np.pi / denom
    return float(lam) if np.ndim(delta_k) == 0 else lam
