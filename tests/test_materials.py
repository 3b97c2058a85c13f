import warnings

import numpy as np
import pytest

from qasfg.materials import (
    C_LIGHT, EPS0_CODATA, EPS0_PAPER_VALUE, GAYER_MGO_CLN_E, SELLMEIER_SETS,
    DispersionModel, MaterialError,
    NonlinearConstants, coupling_coefficient, make_wave_triplet, poling_period,
    pump_amplitude_for_kappa, pump_intensity, refractive_index,
)

MODEL = DispersionModel()

# Hand-evaluated Sellmeier oracle values (extraordinary set, 25 C), computed
# term by term from the published coefficients before the implementation.
N_1064 = 2.148288
N_3000 = 2.089825


def test_index_at_pump_wavelength():
    n = refractive_index(1.064e-6, MODEL)
    assert 2.0 < n < 2.3
    assert n == pytest.approx(N_1064, rel=1e-5)


def test_index_at_signal_wavelength():
    n = refractive_index(3.0e-6, MODEL)
    assert 2.0 < n < 2.2
    assert n == pytest.approx(N_3000, rel=1e-5)


@pytest.mark.parametrize("lam", [0.4e-6, 4.5e-6])
def test_index_rejects_out_of_range(lam):
    with pytest.raises(MaterialError):
        refractive_index(lam, MODEL)


def test_index_deterministic_and_smooth():
    lam = np.arange(0.6, 3.9, 0.001) * 1e-6  # 1 nm spacing
    n1 = refractive_index(lam, MODEL)
    n2 = refractive_index(lam, MODEL)
    assert np.array_equal(n1, n2)
    assert np.all(np.abs(np.diff(n1)) < 5e-4)
    # smooth: second differences stay at the curvature floor (no jumps)
    assert np.all(np.abs(np.diff(n1, 2)) < 5e-6)


@pytest.mark.parametrize("temperature", [1e150, 1e300, float("nan")])
@pytest.mark.parametrize("name", sorted(SELLMEIER_SETS))
def test_index_rejects_overflowing_temperature(name, temperature):
    # 1e150 deg C overflows the squared pole term, yet the series would still
    # give a finite index of about 1e147; 1e300 overflows the temperature
    # factor itself. No warning comes first.
    sellmeier = SELLMEIER_SETS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (temperature, np.float64(temperature)):
            for lam in (3.0, [3.0, 1.064, 0.78]):
                with pytest.raises(MaterialError, match="not all finite and real"):
                    sellmeier.index(lam, t)


@pytest.mark.parametrize("temperature", [-400.0, -273.15])
@pytest.mark.parametrize("name", sorted(SELLMEIER_SETS))
def test_index_rejects_absolute_zero_and_below(name, temperature):
    # the series still gives finite real indices there
    sellmeier = SELLMEIER_SETS[name]
    with pytest.raises(MaterialError, match="at or below absolute zero"):
        sellmeier.index([3.0, 1.064, 0.78], temperature)
    with pytest.raises(MaterialError, match="at or below absolute zero"):
        make_wave_triplet(3.0e-6, 1.064e-6, DispersionModel(sellmeier, temperature))


def test_index_rejects_a_pole_crossing_the_band():
    # near 2818 deg C the temperature-shifted pole of the extraordinary set
    # crosses the band, and the squared index of some wavelength goes negative
    with pytest.raises(MaterialError, match="2818"):
        GAYER_MGO_CLN_E.index([3.0, 1.064, 0.78], 2818.0)


@pytest.mark.parametrize("name", sorted(SELLMEIER_SETS))
def test_index_at_ordinary_temperatures_is_the_series(name):
    sellmeier = SELLMEIER_SETS[name]
    (a1, a2, a3, a4, a5, a6), (b1, b2, b3, b4) = sellmeier.a, sellmeier.b
    lam = np.linspace(0.5, 4.0, 71)
    for t in (-40.0, 0.0, 25.0, 100.0, 250.0):
        f = (t - 24.5) * (t + 570.82)
        ref = np.sqrt(a1 + b1 * f + (a2 + b2 * f) / (lam ** 2 - (a3 + b3 * f) ** 2)
                      + (a4 + b4 * f) / (lam ** 2 - a5 ** 2) - a6 * lam ** 2)
        assert np.array_equal(sellmeier.index(lam, t), ref)
        assert [sellmeier.index(x, t) for x in lam] == list(ref)


def test_unknown_set_name():
    with pytest.raises(MaterialError):
        DispersionModel.from_name("nope")


def test_ordinary_axis_set():
    model = DispersionModel.from_name("gayer2008_mgo_cln_o")
    n = refractive_index(1.064e-6, model)
    assert 2.1 < n < 2.3
    assert n > refractive_index(1.064e-6, MODEL)  # negative uniaxial crystal


def test_triplet_wavelength_arithmetic():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    lam3 = 1.0 / (1.0 / 3.0e-6 + 1.0 / 1.064e-6)
    assert t.lam3 == pytest.approx(lam3, rel=1e-14)
    assert t.lam3 == pytest.approx(0.785433e-6, rel=1e-5)
    assert t.omega1 + t.omega2 == pytest.approx(t.omega3, rel=1e-13)
    for lam, n, k in ((t.lam1, t.n1, t.k1), (t.lam2, t.n2, t.k2),
                      (t.lam3, t.n3, t.k3)):
        assert k == pytest.approx(2 * np.pi * n / lam, rel=1e-14)


def test_triplet_symmetric_case():
    t = make_wave_triplet(2.0e-6, 2.0e-6, MODEL)
    assert t.lam3 == pytest.approx(1.0e-6, rel=1e-14)


def test_triplet_second_signal_wavelength():
    t = make_wave_triplet(2.6e-6, 1.064e-6, MODEL)
    assert t.lam3 == pytest.approx(0.755022e-6, rel=1e-5)


def test_triplet_rejects_out_of_range_upconverted():
    # lam3 = 0.45 um falls below the validity range
    with pytest.raises(MaterialError):
        make_wave_triplet(0.9e-6, 0.9e-6, MODEL)


def test_material_mismatch_negative_under_normal_dispersion():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    assert t.material_mismatch < 0


def test_coupling_zero_and_linear():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    nl = NonlinearConstants()
    assert coupling_coefficient(0.0, t, nl) == 0.0
    k1 = coupling_coefficient(1e6, t, nl)
    k2 = coupling_coefficient(2e6, t, nl)
    assert k2 == pytest.approx(2 * k1, rel=1e-14)
    with pytest.raises(MaterialError):
        coupling_coefficient(-1.0, t, nl)


def test_coupling_round_trip():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    nl = NonlinearConstants()
    kappa = 7623.0
    a2 = pump_amplitude_for_kappa(kappa, t, nl)
    assert a2 > 0 and np.isfinite(a2)
    assert coupling_coefficient(a2, t, nl) == pytest.approx(kappa, rel=1e-12)
    assert pump_amplitude_for_kappa(0.0, t, nl) == 0.0


def test_chi1_duty_cycle():
    assert NonlinearConstants(chi2=1.0, duty_cycle=0.5).chi1 == pytest.approx(2 / np.pi)
    assert NonlinearConstants(chi2=1.0, duty_cycle=0.25).chi1 < 2 / np.pi
    with pytest.raises(MaterialError):
        NonlinearConstants(duty_cycle=0.0)


def test_pump_intensity_quadratic():
    assert pump_intensity(0.0, 2.15) == 0.0
    i1 = pump_intensity(1e6, 2.15)
    assert pump_intensity(2e6, 2.15) == pytest.approx(4 * i1, rel=1e-14)
    ratio = pump_intensity(1e6, 2.15, EPS0_CODATA) / i1
    assert ratio == pytest.approx(np.sqrt(EPS0_CODATA / EPS0_PAPER_VALUE), rel=1e-12)


def test_poling_period_qpm_point():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    lam = poling_period(0.0, t)
    assert lam == pytest.approx(2 * np.pi / (t.k3 - t.k1 - t.k2), rel=1e-13)
    assert 20e-6 < lam < 23e-6  # first-order QPM period for this triplet


def test_poling_period_singular():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    with pytest.raises(MaterialError):
        poling_period(t.material_mismatch, t)


def test_poling_period_monotone_over_chirp():
    t = make_wave_triplet(3.0e-6, 1.064e-6, MODEL)
    dks = np.linspace(-1.2e4, 1.2e4, 401)
    lams = poling_period(dks, t)
    assert np.all(np.isfinite(lams))
    assert np.all(np.diff(lams) < 0)  # larger dk, larger denominator
    assert np.max(np.abs(np.diff(lams))) < 0.05e-6  # smooth chirp
