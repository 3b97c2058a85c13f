"""Propagators for the coupled-wave equations, stepped cell by cell in the
co-rotating frame A3 e^{-i phi}, with one recorder (_record) at profile nodes.

Undepleted pump: the linear pair
    dA1/dz = -i kappa A3 e^{-i phi(z)},   dA3/dz = -i kappa A1 e^{+i phi(z)}
with phi(z) the profile's accumulated mismatch phase, linear between nodes
(never dk*z, which is wrong for chirped profiles). Every profile cell is an
exact SU(2) rotation (_rotations): a sweep's points go through one batched
pairwise tree, and trajectories apply it cell by cell to record the fields.

Depleted pump: the photon-flux-normalized three-wave system, which conserves
the Manley-Rowe combinations exactly and reduces to the pair above as the
signal/pump ratio vanishes; with no closed form, it is integrated by RK4.
Trajectories step one point's complex state (_rk4). Signal sweeps launch
(r, 1, 0), which the Manley-Rowe invariants reduce to one real equation for
|c3|^2 (_reduced_rk4), stepped on one ratio's Python floats in a short sweep
and on an array of all the ratios in a long one.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .trajectory import MismatchProfile

__all__ = [
    "PropagationError", "FieldState", "FieldTrajectory",
    "simulate_undepleted", "simulate_depleted", "undepleted_efficiencies",
    "depleted_efficiencies",
    "lz_linear_chirp", "constant_mismatch",
]


class PropagationError(ValueError):
    """Bad integrator inputs (step count, initial state)."""


@dataclass(frozen=True)
class FieldState:
    """Normalized complex amplitudes; a2 participates only in depleted mode."""

    a1: complex = 1.0 + 0.0j
    a3: complex = 0.0 + 0.0j
    a2: complex | None = None


@dataclass(frozen=True)
class FieldTrajectory:
    z: np.ndarray
    a1: np.ndarray
    a3: np.ndarray
    a2: np.ndarray | None
    efficiency: float
    steps: int  # steps taken: RK4 steps, or the cells' exact rotations


def constant_mismatch(delta_k, length, grid_n=4001):
    """Uniform-mismatch profile with the exact linear accumulated phase."""
    z = np.linspace(0.0, length, grid_n)
    return MismatchProfile(z=z, delta_k=np.full_like(z, float(delta_k)),
                           phi=float(delta_k) * z, kappa=np.nan, length=length)


def lz_linear_chirp(dk_start, dk_end, length, grid_n=4001):
    """Linear mismatch ramp; phi(z) is quadratic and computed in closed form."""
    if length <= 0:
        raise PropagationError(f"length must be positive, got {length}")
    z = np.linspace(0.0, length, grid_n)
    dk = dk_start + (dk_end - dk_start) * z / length
    phi = dk_start * z + (dk_end - dk_start) * z ** 2 / (2.0 * length)
    return MismatchProfile(z=z, delta_k=dk, phi=phi, kappa=np.nan, length=length)


def _check_steps(steps, kappa, delta_k, length):
    """Reject RK4 step counts that under-resolve the fastest phase rotation."""
    cycles = (np.max(np.abs(delta_k)) * length
              + 2.0 * abs(kappa) * length) / (2.0 * np.pi)
    required = int(np.ceil(10.0 * cycles))
    if steps < max(required, 10):
        raise PropagationError(
            f"steps={steps} under-resolves the phase rotation; need at least "
            f"{max(required, 10)} (10 steps per 2*pi)")


def _check_coupling(name, value):
    """Reject a NaN or infinite coupling before any work."""
    if not np.isfinite(value).all():
        raise PropagationError(f"{name} must be finite, got {value}")


def _plan(mismatch, kappa, steps):
    """The depleted step policy: check steps, take sub = ceil(steps / cells)
    equal RK4 steps in every profile cell, total in all."""
    _check_steps(steps, kappa, mismatch.delta_k, mismatch.length)
    z, phi = mismatch.z.tolist(), mismatch.phi.tolist()
    sub = -(-steps // (len(z) - 1))
    return z, phi, sub, sub * (len(z) - 1)


def _record(z, phi, advance, cells, state, initial, steps):
    """Both recorders' loop: advance(cells[j:k], *state) runs whole blocks of
    max(1, cells // 2000) cells, and the fields are recorded at the node that
    ends each block, so recording never changes them. Records (z, lab-frame
    a3 = c3 e^{i phi}, *state[:-1]) from z[0] on; reports steps as taken."""
    n = len(cells)
    stride = max(1, n // 2000)
    rec = [(z[0], complex(initial.a3)) + state[:-1]]
    for j in range(0, n, stride):
        k = min(j + stride, n)
        state = advance(cells[j:k], *state)
        rec.append((z[k], state[-1] * cmath.exp(1j * phi[k])) + state[:-1])
    rz, r3, r1, *r2 = (np.array(col) for col in zip(*rec))
    eta = 0.0 if abs(initial.a1) == 0 else abs(state[-1]) ** 2 / abs(initial.a1) ** 2
    return FieldTrajectory(z=rz, a1=r1, a3=r3, a2=r2[0] if r2 else None,
                           efficiency=float(eta), steps=steps)


def _widths_and_mismatch(z, phi):
    """(h, d, jumps) of the cells between nodes (last axis): a zero-width cell
    takes d = 0, and jumps is (mask, phase steps) of such cells, or None."""
    h, dphi = np.diff(z), np.diff(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = dphi / h
    zero = h == 0
    if not zero.any():
        return h, d, None
    d[zero] = 0.0
    return h, d, (zero, dphi[zero])


def _rotations(k, d, h):
    """(a, beta) of [[a, i beta], [i beta, a*]], built without mixed loops: the
    exact propagator cos(W h) + i sin(W h)/W [[d/2, -k], [-k, -d/2]], W^2 = k^2
    + d^2/4, of cells of width h, mismatch d and pair coupling k in the frame
    (A1 e^{i phi/2}, A3 e^{-i phi/2}) (Suchowski et al., PRA 78, 063821, 2008)."""
    w = np.sqrt(k * k + 0.25 * d * d)
    wh = w * h
    sw = np.divide(np.sin(wh), w, out=h.copy(), where=w > 0)  # -> h as W -> 0
    a = np.cos(wh).astype(complex)
    a.imag = 0.5 * sw * d
    return a, -sw * k


def simulate_undepleted(mismatch, kappa, steps=20000, initial=FieldState()):
    """Propagate the undepleted two-wave pair exactly, recording its fields.

    kappa is the per-wave coupling rate of the pair as written above. In the
    co-rotating frame c3 = a3 e^{-i phi} a cell with mismatch d is autonomous,
    a1' = -i kappa c3, c3' = -i kappa a1 - i d c3, and a cell h wide is one
    exact rotation S = e [[a, b], [b, a*]] on (a1, c3), e = e^{-i d h/2},
    (a, beta) from _rotations and b = i beta + 0.0 (+0 real parts, as a
    complex b had). It is applied as 1 + (S - 1), with a - 1 and e - 1 from
    1 - cos x = sin^2 x / (1 + cos x), so that rounding scales with the cell
    (_exact_steps). Phase steps rotate c3. steps is ignored, kept for callers
    of both modes; the trajectory's steps is the cell count.
    """
    _check_coupling("kappa", kappa)
    z, phi = mismatch.z.tolist(), mismatch.phi.tolist()
    h, d, jumps = _widths_and_mismatch(mismatch.z, mismatch.phi)
    a, beta = _rotations(float(kappa), d, h)
    e = np.exp(-0.5j * d * h)
    if jumps:  # diag(1, e^{-i dphi}): a phase step's h -> 0 limit
        a[jumps[0]] = np.exp(0.5j * jumps[1])
        e[jumps[0]] = a[jumps[0]].conj()
    am1 = 1j * a.imag - (a.imag ** 2 + beta ** 2) / (1.0 + a.real)
    em1 = 1j * e.imag - e.imag ** 2 / (1.0 + e.real)
    cells = list(zip((em1 * a + am1).tolist(), (e * (1j * beta + 0.0)).tolist(),
                     (em1 * a.conj() + am1.conj()).tolist()))
    state = (complex(initial.a1), complex(initial.a3) * cmath.exp(-1j * phi[0]))
    return _record(z, phi, _exact_steps, cells, state, initial, len(cells))


# Points x cells multiplied per pass of undepleted_efficiencies: at most
# 256 kB per complex temporary and about 1.5 MB per pass. glibc then keeps a
# pass's arrays in the heap for the next pass rather than returning them to
# the OS and faulting them in again, and no conjugate temporary reaches the
# 256 kB at which numpy reuses it in place, which would swap the operands of
# its complex product and their FMA rounding (DECISIONS.md).
_PASS_POINT_CELLS = 1 << 14
# Passes stop at _TAIL_CELLS; tail row groups: 64 x 128 complex = 128 kB < 256 kB.
_TAIL_CELLS = 1 << 8
_TAIL_POINTS = _PASS_POINT_CELLS // _TAIL_CELLS


def _pass_points(cells):
    """Points per pass of undepleted_efficiencies: 4 at 4001 nodes, 16 at 1001."""
    return max(1, _PASS_POINT_CELLS // cells)


def _levels(a, b, cells):
    """Pairwise-tree levels down to cells cells, an odd last cell carried up."""
    while a.shape[1] > cells:
        n = a.shape[1] // 2 * 2
        a1, b1, a2, b2 = a[:, 0:n:2], b[:, 0:n:2], a[:, 1:n:2], b[:, 1:n:2]
        a, b = (np.concatenate([a2 * a1 - b2 * b1.conj(), a[:, n:]], axis=1),
                np.concatenate([a2 * b1 + b2 * a1.conj(), b[:, n:]], axis=1))
    return a, b


def _first_level(a, beta):
    """The first of _levels on _rotations cells (a, i beta), in real arithmetic:
    every term it drops holds b's zero real part, so it rounds as _levels."""
    n = a.shape[1] // 2 * 2
    a1, b1, a2, b2 = a[:, 0:n:2], beta[:, 0:n:2], a[:, 1:n:2], beta[:, 1:n:2]
    top, b = a2 * a1, np.zeros((len(a), a.shape[1] - n // 2), dtype=complex)
    top.real -= b2 * b1
    b.real[:, :n // 2] = b2 * a1.imag - a2.imag * b1
    b.imag = np.concatenate([a2.real * b1 + b2 * a1.real, beta[:, n:]], axis=1)
    return np.concatenate([top, a[:, n:]], axis=1), b


def undepleted_efficiencies(z, phi, coupling):
    """Exact undepleted |A3(L)|^2, A1(0) = 1, of P points: phi (P, N) on the
    node grid z, (P, N) or (N,), at the P lab-frame pair couplings: one
    _rotations matrix per cell, multiplied in a pairwise tree. Passes of
    _pass_points points stop at _TAIL_CELLS cells, and all P share the last
    levels. A point's result is bit-identical in any batch or order. A
    zero-width cell's phase step dphi is its h -> 0 limit diag(e^{i dphi/2}, c.c.)."""
    _check_coupling("coupling", coupling)
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    z = np.broadcast_to(np.asarray(z, dtype=float), phi.shape)
    coupling = np.broadcast_to(np.asarray(coupling, dtype=float), phi.shape[:1])
    step = _pass_points(phi.shape[1] - 1)
    tail = []
    for s in range(0, phi.shape[0], step):
        h, d, jumps = _widths_and_mismatch(z[s:s + step], phi[s:s + step])
        a, beta = _rotations(coupling[s:s + step, None], d, h)
        if jumps:
            a[jumps[0]] = np.exp(0.5j * jumps[1])
        cells = _first_level(a, beta)
        tail.append(_levels(*cells, _TAIL_CELLS))
    a, b = (np.concatenate(t) for t in zip(*tail))
    eta = np.empty(phi.shape[0])
    for s in range(0, len(eta), _TAIL_POINTS):
        _, last = _levels(a[s:s + _TAIL_POINTS], b[s:s + _TAIL_POINTS], 1)
        eta[s:s + _TAIL_POINTS] = np.abs(last[:, 0]) ** 2
    return eta


def _exact_steps(cells, a1, c3):
    """(a1, c3) += (S - 1)(a1, c3) per cell (p, q, r) of simulate_undepleted."""
    for p, q, r in cells:
        a1, c3 = a1 + (p * a1 + q * c3), c3 + (q * a1 + r * c3)
    return a1, c3


def _depleted_cells(z, phi, kt, sub):
    """(K, D) = (-i kt h, -i d h) of each profile cell: its RK4 step h, sub
    per cell, and its constant mismatch d."""
    return [(-1j * kt * (z[j + 1] - z[j]) / sub, -1j * (phi[j + 1] - phi[j]) / sub)
            for j in range(len(z) - 1)]


def _rk4(cells, sub, a1, a2, c3):
    """Advance the co-rotating depleted state (a1, a2, c3), Python complex, by
    sub RK4 steps in each of cells, (K, D) pairs from _depleted_cells."""
    for K, D in cells:
        Kh, Dh = 0.5 * K, 0.5 * D  # half steps
        for _ in range(sub):
            s = Kh * c3
            h1a, h1b, h1c = s * a2.conjugate(), s * a1.conjugate(), Kh * a1 * a2 + Dh * c3
            t1, t2, t3 = a1 + h1a, a2 + h1b, c3 + h1c
            s = Kh * t3
            h2a, h2b, h2c = s * t2.conjugate(), s * t1.conjugate(), Kh * t1 * t2 + Dh * t3
            t1, t2, t3 = a1 + h2a, a2 + h2b, c3 + h2c
            s = K * t3
            k3a, k3b, k3c = s * t2.conjugate(), s * t1.conjugate(), K * t1 * t2 + D * t3
            t1, t2, t3 = a1 + k3a, a2 + k3b, c3 + k3c
            s = K * t3
            k4a, k4b, k4c = s * t2.conjugate(), s * t1.conjugate(), K * t1 * t2 + D * t3
            # h + h is 2h exactly, and cheaper than 2.0 * h
            a1 += (h1a + (h2a + h2a) + k3a) / 3.0 + k4a / 6.0
            a2 += (h1b + (h2b + h2b) + k3b) / 3.0 + k4b / 6.0
            c3 += (h1c + (h2c + h2c) + k3c) / 3.0 + k4c / 6.0
    return a1, a2, c3


def simulate_depleted(mismatch, kappa, steps=20000, initial=None):
    """Integrate the flux-normalized three-wave system with pump depletion,

        da1/dz = -i kt a2* a3 e^{-i phi},  da2/dz = -i kt a1* a3 e^{-i phi},
        da3/dz = -i kt a1 a2 e^{+i phi},

    with kt = kappa / |a2(0)|, so that the undepleted limit reproduces
    simulate_undepleted with the given kappa at the given pump. Conserves
    |a1|^2 + |a3|^2 and |a2|^2 + |a3|^2 exactly (Manley-Rowe).

    phi is linear between profile nodes, so in the co-rotating frame
    c3 = a3 e^{-i phi} each cell is autonomous, c3' = -i kt a1 a2 - i d c3
    with the cell's constant mismatch d (an integrating factor; Lawson, SIAM
    J. Numer. Anal. 4, 372, 1967). RK4 (_rk4) takes ceil(steps / cells) equal
    steps per cell, at least steps in all (_plan), and _record runs it in
    whole cells.
    """
    _check_coupling("kappa", kappa)
    if initial is None or initial.a2 is None:
        raise PropagationError("depleted mode needs an explicit pump amplitude a2")
    if not all(np.isfinite([abs(initial.a1), abs(initial.a2), abs(initial.a3)])):
        raise PropagationError("non-finite initial amplitudes")
    z, phi, sub, total = _plan(mismatch, kappa, steps)

    kt = float(kappa / abs(initial.a2) if initial.a2 else kappa)
    cells = _depleted_cells(z, phi, kt, sub)
    # Python complex throughout: one numpy scalar in the state triples the cost
    state = (complex(initial.a1), complex(initial.a2),
             complex(initial.a3) * cmath.exp(-1j * phi[0]))
    return _record(z, phi, lambda c, *s: _rk4(c, sub, *s), cells, state, initial, total)


def _reduced_rk4(z, phi, kt, sub, r2):
    """u(L) = |c3(L)|^2 of the launch (a1, a2, c3) = (r, 1, 0), r2 = r^2, by
    sub RK4 steps per cell on the Manley-Rowe-reduced system (Armstrong et al.,
    Phys. Rev. 127, 1918, 1962): |a1|^2 = r2 - u and |a2|^2 = 1 - u, and in a
    cell of mismatch d, g = 2 kt Re(a1 a2 c3*) + d u is conserved, so

        u'' = 2 kt^2 r2 + d g - (4 kt^2 (r2 + 1) + d^2) u + 6 kt^2 u^2.

    a1 a2 c3* and u' are continuous at a node, where g += (d_new - d_old) u.
    The state is (u, s = h u'), s rescaled to each cell's step h, and a stage
    at u has the slope G = h^2 u'' / 6 = ga + u (gc u - gb). Only +, * and /:
    r2 is one ratio's float or an array of ratios, with bit-identical u."""
    k2 = kt * kt
    drive, lin = (k2 + k2) * r2, 4.0 * k2 * (r2 + 1.0)
    u = s = g = d0 = 0.0
    h0 = (z[1] - z[0]) / sub
    for j in range(len(z) - 1):
        w = z[j + 1] - z[j]
        d, h = (phi[j + 1] - phi[j]) / w, w / sub
        g = g + (d - d0) * u
        s = s * (h / h0)
        hh = h * h
        e, gc = hh / 6.0, hh * k2
        ga, gb = e * (drive + d * g), e * (lin + d * d)
        for _ in range(sub):
            g1 = ga + u * (gc * u - gb)
            u2 = u + 0.5 * s
            g2 = ga + u2 * (gc * u2 - gb)
            u3 = u2 + 1.5 * g1
            g3 = ga + u3 * (gc * u3 - gb)
            u4 = u + (s + 3.0 * g2)
            g4 = ga + u4 * (gc * u4 - gb)
            # RK4's weights: u += s + G1 + G2 + G3, s += G1 + 2 G2 + 2 G3 + G4
            m = g2 + g3
            p = g1 + m
            u = u + (s + p)
            s = s + (p + m + g4)
        d0, h0 = d, h
    return u


# Ratios from which depleted_efficiencies integrates a sweep on arrays: a
# _reduced_rk4 step costs about 0.4 us per ratio on floats, and 13-14 us on
# an array of up to 41 ratios, 30 numpy calls (measured in DECISIONS.md).
_BATCH_POINTS = 36
# Ratios per array pass: 8 kB per temporary whatever the sweep's size.
_BATCH_BLOCK = 1024


def depleted_efficiencies(mismatch, kappa, ratios, steps=20000):
    """Depleted-pump efficiencies |a3(L)|^2 / r^2 of the signal/pump flux
    amplitude ratios r, each launched as (a1, a2, a3) = (r, 1, 0), under
    simulate_depleted's step policy (_plan) but on the reduced real system
    (_reduced_rk4), within 1e-12 of simulate_depleted at 1 step per cell
    (DECISIONS.md). Below _BATCH_POINTS ratios each runs alone on Python
    floats; from _BATCH_POINTS on they run together on arrays, _BATCH_BLOCK
    at a time, and a ratio's result is bit-identical in any batch or order.
    A profile with a zero-width cell, whose phase step the reduction cannot
    carry, runs simulate_depleted's _rk4 per ratio."""
    _check_coupling("kappa", kappa)
    ratios = np.atleast_1d(np.asarray(ratios, dtype=float))
    if not np.all(np.isfinite(ratios)):
        raise PropagationError("non-finite signal/pump ratios")
    z, phi, sub, _ = _plan(mismatch, kappa, steps)
    kt, r2 = float(kappa), ratios * ratios
    if np.any(np.diff(mismatch.z) == 0):
        cells = _depleted_cells(z, phi, kt, sub)
        u = [abs(_rk4(cells, sub, complex(r), 1.0 + 0j, 0j)[2]) ** 2 for r in ratios.tolist()]
    elif r2.size < _BATCH_POINTS:
        u = [_reduced_rk4(z, phi, kt, sub, q) for q in r2.tolist()]
    else:
        u = np.concatenate([_reduced_rk4(z, phi, kt, sub, r2[s:s + _BATCH_BLOCK])
                            for s in range(0, r2.size, _BATCH_BLOCK)])
    return np.divide(u, r2, out=np.zeros_like(r2), where=r2 != 0)
