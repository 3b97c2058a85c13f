"""Reference results the benchmark checks the program's outputs against.

Nothing here calls the propagators under test. The undepleted pair is
solved exactly: the program interpolates the accumulated phase phi linearly
between profile nodes, so the mismatch is constant on each cell and each
cell is an exact SU(2) rotation (Suchowski et al., PRA 78, 063821, 2008).
The depleted three-wave system has no such closed form; it is integrated
here in the co-rotating frame with classical RK4 at twice the program's
step count, cell by cell, so phase kinks fall on step boundaries.
"""

import numpy as np

C_LIGHT = 299792458.0

# |eta_program - eta_oracle| above this fails the op. RK4 at the default
# 20000 steps sits near 1e-14 of the exact product on every benchmark input.
ETA_TOL = 1e-8
# Manley-Rowe invariants may drift by at most this much along a trajectory.
DRIFT_TOL = 1e-9
# Points per chunk of the exact product; bounds the oracle's memory.
CHUNK = 16


def su2_eta(z, phi, coupling):
    """Exact undepleted efficiency |A3(L)|^2 for A1(0) = 1, A3(0) = 0.

    z and phi are (P, N) or broadcastable node arrays, coupling is the
    lab-frame rate of each of the P points. Each cell is
    E = cos(W h) + i sin(W h)/W [[d/2, -k], [-k, -d/2]], W = sqrt(k^2 + d^2/4),
    held as the SU(2) pair (a, b) of [[a, b], [-b*, a*]] and multiplied in a
    pairwise tree; the boundary phase factors drop out of |A3|.
    """
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    z = np.broadcast_to(np.asarray(z, dtype=float), phi.shape)
    kap = np.broadcast_to(np.asarray(coupling, dtype=float), phi.shape[:1])
    out = np.empty(phi.shape[0])
    for s in range(0, phi.shape[0], CHUNK):
        h = np.diff(z[s:s + CHUNK], axis=1)
        d = np.diff(phi[s:s + CHUNK], axis=1) / h
        k = kap[s:s + CHUNK, None]
        w = np.sqrt(k * k + 0.25 * d * d)
        sw = np.sin(w * h) / w
        a = np.cos(w * h) + 0.5j * sw * d
        b = -1j * sw * k
        while a.shape[1] > 1:
            if a.shape[1] % 2:
                a = np.concatenate([a, np.ones_like(a[:, :1])], axis=1)
                b = np.concatenate([b, np.zeros_like(b[:, :1])], axis=1)
            a1, b1, a2, b2 = a[:, 0::2], b[:, 0::2], a[:, 1::2], b[:, 1::2]
            a, b = a2 * a1 - b2 * np.conj(b1), a2 * b1 + b2 * np.conj(a1)
        out[s:s + CHUNK] = np.abs(b[:, 0]) ** 2
    return out


def depleted_eta(z, phi, coupling, ratio, steps):
    """Depleted-pump efficiency of one point by RK4 in the co-rotating frame.

    With c3 = a3 exp(-i phi) the system is autonomous on each cell:
        a1' = -i kt a2* c3,  a2' = -i kt a1* c3,
        c3' = -i d c3 - i kt a1 a2,   kt = coupling (pump amplitude 1).
    Each cell takes ceil(2 steps / cells) RK4 sub-steps. Returns
    (eta, drift): drift is the largest change of the two Manley-Rowe
    invariants |a1|^2 + |a3|^2 and |a2|^2 + |a3|^2 over the crystal.
    """
    z = np.asarray(z, dtype=float)
    cells = len(z) - 1
    sub = int(np.ceil(2 * steps / cells))
    hs = (np.diff(z) / sub).tolist()
    ds = (np.diff(phi) / np.diff(z)).tolist()
    ck = -1j * coupling
    a1, a2, c3 = complex(ratio), 1.0 + 0j, 0j
    for h, d in zip(hs, ds):
        cd = -1j * d
        for _ in range(sub):
            k1a, k1b, k1c = (ck * a2.conjugate() * c3, ck * a1.conjugate() * c3,
                             ck * a1 * a2 + cd * c3)
            t1, t2, t3 = a1 + 0.5 * h * k1a, a2 + 0.5 * h * k1b, c3 + 0.5 * h * k1c
            k2a, k2b, k2c = (ck * t2.conjugate() * t3, ck * t1.conjugate() * t3,
                             ck * t1 * t2 + cd * t3)
            t1, t2, t3 = a1 + 0.5 * h * k2a, a2 + 0.5 * h * k2b, c3 + 0.5 * h * k2c
            k3a, k3b, k3c = (ck * t2.conjugate() * t3, ck * t1.conjugate() * t3,
                             ck * t1 * t2 + cd * t3)
            t1, t2, t3 = a1 + h * k3a, a2 + h * k3b, c3 + h * k3c
            k4a, k4b, k4c = (ck * t2.conjugate() * t3, ck * t1.conjugate() * t3,
                             ck * t1 * t2 + cd * t3)
            a1 += (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            a2 += (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            c3 += (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
    p1, p2, p3 = abs(a1) ** 2, abs(a2) ** 2, abs(c3) ** 2
    drift = max(abs(p1 + p3 - ratio * ratio), abs(p2 + p3 - 1.0))
    return p3 / (ratio * ratio), drift


# The designs are synthesized for the rotating-frame Rabi rate kappa; each
# off-diagonal of the lab-frame pair carries kappa / 2.
LAB_FRAME = 0.5


def _index(sellmeier, temperature_c, lam):
    """Extraordinary/ordinary index from the Sellmeier data, lam in m."""
    a1, a2, a3, a4, a5, a6 = sellmeier.a
    b1, b2, b3, b4 = sellmeier.b
    f = (temperature_c - 24.5) * (temperature_c + 570.82)
    lm2 = (lam * 1e6) ** 2
    return np.sqrt(a1 + b1 * f + (a2 + b2 * f) / (lm2 - (a3 + b3 * f) ** 2)
                   + (a4 + b4 * f) / (lm2 - a5 ** 2) - a6 * lm2)


def _mismatch_and_rate(design, lam1):
    """Material mismatch k1 + k2 - k3 (rad/m) and the per-unit-pump factor
    w1 w3 / sqrt(k1 k3) of the coupling rate, at signal wavelength lam1."""
    sell, temp = design.model.sellmeier, design.model.temperature_c
    lam2 = design.triplet.lam2
    lam1 = np.asarray(lam1, dtype=float)
    lam3 = 1.0 / (1.0 / lam1 + 1.0 / lam2)
    k1, k2, k3 = (2 * np.pi * _index(sell, temp, lam) / lam for lam in (lam1, lam2, lam3))
    w1, w3 = 2 * np.pi * C_LIGHT / lam1, 2 * np.pi * C_LIGHT / lam3
    return k1 + k2 - k3, w1 * w3 / np.sqrt(k1 * k3)


def bandwidth_inputs(design, lams):
    """(phi, coupling) of each bandwidth point: the poling is frozen, the
    material mismatch shifts and the rate follows the frequencies."""
    m = design.mismatch
    dkm, rate = _mismatch_and_rate(design, lams)
    dkm0, rate0 = _mismatch_and_rate(design, design.triplet.lam1)
    phi = m.phi + np.outer(dkm - dkm0, m.z)
    return phi, LAB_FRAME * design.kappa * rate / rate0


def period_inputs(design, xs):
    """Poling period scaled by (1 + x): the grating part of dk scales by 1/(1 + x)."""
    m = design.mismatch
    dkm, _ = _mismatch_and_rate(design, design.triplet.lam1)
    scale = 1.0 / (1.0 + np.asarray(xs))[:, None]
    return dkm * m.z * (1.0 - scale) + m.phi * scale, LAB_FRAME * design.kappa


def pump_inputs(design, xs):
    """Pump intensity scaled by (1 + x): the rate scales by sqrt(1 + x)."""
    m = design.mismatch
    phi = np.broadcast_to(m.phi, (len(xs), len(m.phi)))
    return phi, LAB_FRAME * design.kappa * np.sqrt(1.0 + np.asarray(xs))


def chirp_inputs(kappa_ref, length_ref, lengths, grid_n):
    """Linear-chirp baseline: dk ramps between the reference design's
    endpoint values -2 r and +2 r, r = sqrt(60 (kL - pi) / (k L^3))."""
    kl = kappa_ref * length_ref
    dk = 2.0 * np.sqrt(60.0 * (kl - np.pi) / (kappa_ref * length_ref ** 3))
    lengths = np.asarray(lengths, dtype=float)[:, None]
    z = np.linspace(0.0, 1.0, grid_n)[None, :] * lengths
    phi = -dk * z + dk * z ** 2 / lengths
    return z, phi, LAB_FRAME * kappa_ref
