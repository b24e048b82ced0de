"""Independent oracles used by the test suite.

Everything here is written in straight complex arithmetic against the
network description, deliberately sharing no code with the production
stamping path: dense mismatch evaluation, finite-difference Jacobians,
a dense polar-form power flow, and the symmetrical-component transform
built from its 3x3 complex definition.  The one exception is the last
section: scalar reference formulas of single stamps, which check the
production ``pq_partials`` and ``HomotopyState`` scales one value at a
time.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from tandem.netmodel import (
    ALPHA,
    PHASE_CODE,
    PHASE_ROTATION,
    POS_SEQ_WEIGHT,
    POSITIVE_SEQUENCE,
    THREE_PHASE,
    BusKind,
    Connection,
    IndexMap,
    Network,
)
from tandem.stamping import EPS_V, HomotopyState, VoltageCollapseError, pq_partials

DELTA_LEGS = (("a", "b"), ("b", "c"), ("c", "a"))


# ----------------------------------------------------------------------
# Dense complex mismatch oracle
# ----------------------------------------------------------------------


def _element_blocks(el, lam: float, gamma: float, shunt_relax: bool):
    """Terminal admittance blocks in complex arithmetic (pi model / phase block)."""
    scale = 1.0 + lam * gamma
    relax = (1.0 - lam) if shunt_relax else 1.0
    if el.phases == POSITIVE_SEQUENCE:
        y = complex(el.y_series[0, 0]) * scale
        ysh = 0.5j * el.b_charge * relax
        t = el.tap * cmath.exp(1j * el.shift)
        yff = (y + ysh) / (el.tap * el.tap)
        yft = -y / t.conjugate()
        ytf = -y / t
        ytt = y + ysh
        return np.array([[yff]]), np.array([[yft]]), np.array([[ytf]]), np.array([[ytt]])
    y = np.array(el.y_series, dtype=complex)
    k = y.shape[0]
    y[np.arange(k), np.arange(k)] *= scale
    return y, -y, -y, y


def _device_current(s, v, zip_fractions, kind_delta: bool):
    """Complex current drawn by one ZIP demand share set at voltage v (wye)
    or leg voltage v (delta leg)."""
    fp, fi, fz = zip_fractions
    cur = 0.0 + 0.0j
    if fp and s != 0:
        cur += (fp * s / v).conjugate()
    if fi and s != 0:
        si = fi * s
        mag = abs(si) / (math.sqrt(3.0) if kind_delta else 1.0)
        cur += mag * cmath.exp(1j * (cmath.phase(v) - cmath.phase(si)))
    if fz and s != 0:
        ref2 = 3.0 if kind_delta else 1.0
        cur += (fz * s).conjugate() / ref2 * v
    return cur


def dense_mismatch(
    network: Network,
    imap: IndexMap,
    x: np.ndarray,
    lam: float = 0.0,
    gamma: float = 1e3,
    shunt_relax: bool = True,
    gen_modes=None,
    gen_q_fixed=None,
    freeze_secant_at: np.ndarray | None = None,
) -> np.ndarray:
    """Full nonlinear residual vector evaluated densely in complex arithmetic.

    ``freeze_secant_at`` evaluates the constant-current ZIP shares at
    the given base state instead of ``x``; that is the function whose
    derivative the production Jacobian represents (the secant share is
    stamped with no Jacobian contribution).
    """
    gen_modes = gen_modes or {}
    gen_q_fixed = gen_q_fixed or {}
    res = np.zeros(imap.n)
    xi = freeze_secant_at if freeze_secant_at is not None else x

    kcl = {(b.id, ph): 0.0 + 0.0j for b in network.buses for ph in b.phases}
    # V_R index of each node, from one gather through the map's slot table
    at = dict(zip(kcl, imap.v_index([bus for bus, _ in kcl], [PHASE_CODE[ph] for _, ph in kcl]).tolist()))

    def volt(state, bus, ph):
        i = at[(bus, ph)]
        return complex(state[i], state[i + 1])

    for el in network.elements:
        yff, yft, ytf, ytt = _element_blocks(el, lam, gamma, shunt_relax)
        vf = [volt(x, el.from_bus, ph) for ph in el.phases]
        vt = [volt(x, el.to_bus, ph) for ph in el.phases]
        for i, ph in enumerate(el.phases):
            cur_f = sum(yff[i, j] * vf[j] + yft[i, j] * vt[j] for j in range(len(el.phases)))
            cur_t = sum(ytf[i, j] * vf[j] + ytt[i, j] * vt[j] for j in range(len(el.phases)))
            kcl[(el.from_bus, ph)] += cur_f
            kcl[(el.to_bus, ph)] += cur_t

    relax = (1.0 - lam) if shunt_relax else 1.0
    for sh in network.shunts:
        for ph, y in zip(sh.phases, sh.y):
            kcl[(sh.bus, ph)] += y * relax * volt(x, sh.bus, ph)

    def add_zip(dev, sign):
        conn = getattr(dev, "connection", Connection.WYE)
        zf = getattr(dev, "zip_fractions", (1.0, 0.0, 0.0))
        if conn is Connection.DELTA and dev.phases != POSITIVE_SEQUENCE:
            for (p1, p2), s in zip(DELTA_LEGS, dev.s):
                if s == 0:
                    continue
                fp, fi, fz = zf
                vleg = volt(x, dev.bus, p1) - volt(x, dev.bus, p2)
                cur = 0.0 + 0.0j
                if fp:
                    cur += (fp * s / vleg).conjugate()
                if fz:
                    cur += (fz * s).conjugate() / 3.0 * vleg
                if fi:
                    si = fi * s
                    vleg_i = volt(xi, dev.bus, p1) - volt(xi, dev.bus, p2)
                    cur += abs(si) / math.sqrt(3.0) * cmath.exp(
                        1j * (cmath.phase(vleg_i) - cmath.phase(si))
                    )
                kcl[(dev.bus, p1)] += sign * cur
                kcl[(dev.bus, p2)] -= sign * cur
        else:
            for ph, s in zip(dev.phases, dev.s):
                if s == 0:
                    continue
                fp, fi, fz = zf
                v = volt(x, dev.bus, ph)
                cur = 0.0 + 0.0j
                if fp:
                    cur += (fp * s / v).conjugate()
                if fz:
                    cur += (fz * s).conjugate() * v
                if fi:
                    si = fi * s
                    vi_ = volt(xi, dev.bus, ph)
                    cur += abs(si) * cmath.exp(1j * (cmath.phase(vi_) - cmath.phase(si)))
                kcl[(dev.bus, ph)] += sign * cur

    for ld in network.loads:
        add_zip(ld, +1.0)
    for der in network.ders:
        add_zip(der, -1.0)

    for g in network.generators:
        if not g.status or g.bus not in imap.gen_q:
            continue
        v = volt(x, g.bus, POSITIVE_SEQUENCE)
        qg = x[imap.gen_q[g.bus]]
        s_load = complex(-g.p_set, -qg)
        kcl[(g.bus, POSITIVE_SEQUENCE)] += (s_load / v).conjugate()
        mode = gen_modes.get(g.bus, "pv")
        if mode == "pv":
            res[imap.gen_q[g.bus]] = abs(v) ** 2 - g.v_set**2
        else:
            res[imap.gen_q[g.bus]] = qg - gen_q_fixed.get(
                g.bus, g.q_max if mode == "qmax" else g.q_min
            )

    for b in network.source_buses():
        for ph, e in zip(b.phases, b.v0):
            ir, ii = imap.source_current[(b.id, ph)]
            kcl[(b.id, ph)] -= complex(x[ir], x[ii])
            v = volt(x, b.id, ph)
            res[ir] = (v - e).real
            res[ii] = (v - e).imag

    for port in network.ports:
        vp = volt(x, port.transmission_bus, POSITIVE_SEQUENCE)
        ip = 0.0 + 0.0j
        for ph in THREE_PHASE:
            ir, ii = imap.port_current[(port.id, ph)]
            cur = complex(x[ir], x[ii])
            kcl[(port.feeder_head, ph)] -= cur
            ip += {"a": 1.0 + 0j, "b": ALPHA, "c": ALPHA**2}[ph] * cur / 3.0
            dv = volt(x, port.feeder_head, ph) - PHASE_ROTATION[ph] * vp
            res[ir] = dv.real
            res[ii] = dv.imag
        kcl[(port.transmission_bus, POSITIVE_SEQUENCE)] += ip

    for key, cur in kcl.items():
        res[at[key]] = cur.real
        res[at[key] + 1] = cur.imag
    return res


def fd_jacobian(network: Network, imap: IndexMap, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the dense mismatch with the secant
    (constant-current) shares frozen at x, matching the model the analytic
    Jacobian linearizes."""
    n = imap.n
    jac = np.zeros((n, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        rp = dense_mismatch(network, imap, xp, freeze_secant_at=x)
        rm = dense_mismatch(network, imap, xm, freeze_secant_at=x)
        jac[:, j] = (rp - rm) / (2.0 * h)
    return jac


# ----------------------------------------------------------------------
# Dense polar-form power flow (transmission only)
# ----------------------------------------------------------------------


def polar_power_flow(
    network: Network,
    tol: float = 1e-12,
    max_iter: int = 60,
    q_fixed: dict[int, float] | None = None,
):
    """Classic polar NR on the dense bus admittance matrix.

    Positive-sequence networks only.  PV buses hold voltage magnitude
    with free reactive power unless listed in ``q_fixed`` (then treated
    as PQ with that reactive output).  Returns {bus: complex V} and
    {bus: Q_gen} for PV buses.
    """
    buses = sorted(network.buses, key=lambda b: b.id)
    assert all(b.phases == POSITIVE_SEQUENCE for b in buses)
    idx = {b.id: i for i, b in enumerate(buses)}
    n = len(buses)
    q_fixed = q_fixed or {}

    ybus = np.zeros((n, n), dtype=complex)
    for el in network.elements:
        f, t = idx[el.from_bus], idx[el.to_bus]
        y = complex(el.y_series[0, 0])
        ysh = 0.5j * el.b_charge
        tap = el.tap * cmath.exp(1j * el.shift)
        ybus[f, f] += (y + ysh) / (el.tap**2)
        ybus[f, t] += -y / tap.conjugate()
        ybus[t, f] += -y / tap
        ybus[t, t] += y + ysh
    for sh in network.shunts:
        ybus[idx[sh.bus], idx[sh.bus]] += sh.y[0]

    # scheduled complex injection at unit voltage; ZIP handled in power form
    s_zip = {i: [] for i in range(n)}
    for ld in network.loads:
        s_zip[idx[ld.bus]].append((-ld.s[0], ld.zip_fractions))
    for der in network.ders:
        s_zip[idx[der.bus]].append((der.s[0], der.zip_fractions))
    p_gen = np.zeros(n)
    for g in network.generators:
        if g.status:
            p_gen[idx[g.bus]] += g.p_set

    kinds = []
    vset = {}
    for b in buses:
        if b.kind is BusKind.SLACK:
            kinds.append("slack")
        elif b.kind is BusKind.PV and any(
            g.bus == b.id and g.status for g in network.generators
        ) and b.id not in q_fixed:
            kinds.append("pv")
            vset[idx[b.id]] = next(g.v_set for g in network.generators if g.bus == b.id)
        else:
            kinds.append("pq")

    vm = np.array([abs(b.v0[0]) if kinds[i] != "pv" else vset[i] for i, b in enumerate(buses)])
    va = np.array([cmath.phase(b.v0[0]) for b in buses])
    for i, b in enumerate(buses):
        if kinds[i] == "slack":
            vm[i], va[i] = abs(b.v0[0]), cmath.phase(b.v0[0])

    def injected(vm_, va_):
        v = vm_ * np.exp(1j * va_)
        s = v * np.conj(ybus @ v)
        sched = np.zeros(n, dtype=complex)
        for i in range(n):
            sched[i] += p_gen[i]
            for s0, (fp, fi, fz) in s_zip[i]:
                sched[i] += s0 * (fp + fi * vm_[i] + fz * vm_[i] ** 2)
            if i in [idx[b_] for b_ in q_fixed]:
                pass
        for b_id, q in q_fixed.items():
            sched[idx[b_id]] += 1j * q
        return s - sched  # mismatch: network injection minus scheduled

    # unknown layout: angles at non-slack, magnitudes at pq
    ang_idx = [i for i in range(n) if kinds[i] != "slack"]
    mag_idx = [i for i in range(n) if kinds[i] == "pq"]

    def residual(vm_, va_):
        mm = injected(vm_, va_)
        return np.concatenate([mm[ang_idx].real, mm[mag_idx].imag])

    for _ in range(max_iter):
        r = residual(vm, va)
        if np.abs(r).max() <= tol:
            break
        m = len(ang_idx) + len(mag_idx)
        jac = np.zeros((m, m))
        h = 1e-7
        for col, i in enumerate(ang_idx):
            va2 = va.copy()
            va2[i] += h
            jac[:, col] = (residual(vm, va2) - r) / h
        for col, i in enumerate(mag_idx):
            vm2 = vm.copy()
            vm2[i] += h
            jac[:, len(ang_idx) + col] = (residual(vm2, va) - r) / h
        dx = np.linalg.solve(jac, -r)
        va[ang_idx] += dx[: len(ang_idx)]
        vm[mag_idx] += dx[len(ang_idx):]
    else:
        raise RuntimeError("polar oracle did not converge")

    volts = {buses[i].id: vm[i] * cmath.exp(1j * va[i]) for i in range(n)}
    qgen = {}
    v = vm * np.exp(1j * va)
    s = v * np.conj(ybus @ v)
    for i in range(n):
        if kinds[i] == "pv":
            load_q = sum(
                (-s0 * (fp + fi * vm[i] + fz * vm[i] ** 2)).imag for s0, (fp, fi, fz) in s_zip[i]
            )
            qgen[buses[i].id] = s[i].imag + load_q
    return volts, qgen


# ----------------------------------------------------------------------
# Symmetrical components
# ----------------------------------------------------------------------

A3 = np.array([[1, 1, 1], [1, ALPHA**2, ALPHA], [1, ALPHA, ALPHA**2]], dtype=complex)


def real_expansion(m: np.ndarray) -> np.ndarray:
    """Expand a complex matrix into its real block form: each entry w becomes
    [[Re w, -Im w], [Im w, Re w]] acting on (real, imag) pairs."""
    k = m.shape[0]
    out = np.zeros((2 * k, 2 * m.shape[1]))
    for i in range(k):
        for j in range(m.shape[1]):
            w = m[i, j]
            out[2 * i, 2 * j] = w.real
            out[2 * i, 2 * j + 1] = -w.imag
            out[2 * i + 1, 2 * j] = w.imag
            out[2 * i + 1, 2 * j + 1] = w.real
    return out


def sequence_to_phase_6x6() -> np.ndarray:
    return real_expansion(A3)


def phase_to_sequence_6x6() -> np.ndarray:
    return real_expansion(np.linalg.inv(A3))


def port_power_balance(network: Network, imap: IndexMap, x: np.ndarray, port) -> tuple[complex, complex]:
    """Complex power leaving the transmission bus through the port and total
    power entering the feeder head.

    The head voltages are purely positive-sequence, so the head total
    equals three times the sequence-domain product; both sides express
    the same physical power under the per-phase base convention.
    """
    vp = imap.voltage(x, port.transmission_bus, POSITIVE_SEQUENCE)
    currents = {
        ph: complex(x[imap.port_current[(port.id, ph)][0]], x[imap.port_current[(port.id, ph)][1]])
        for ph in THREE_PHASE
    }
    ip = sum(POS_SEQ_WEIGHT[ph] * currents[ph] for ph in THREE_PHASE) / 3.0
    s_tx = vp * ip.conjugate()
    s_head = sum(
        imap.voltage(x, port.feeder_head, ph) * currents[ph].conjugate() for ph in THREE_PHASE
    )
    return s_tx, s_head


# ----------------------------------------------------------------------
# Scalar reference formulas of single stamps
# ----------------------------------------------------------------------


def eval_pq(p: float, q: float, vr: float, vi: float, bus=None, phase=""):
    """``pq_partials`` of one demand behind the collapse guard; zero demand draws nothing."""
    if p == 0.0 and q == 0.0:
        return 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    m2 = vr * vr + vi * vi
    if m2 <= EPS_V * EPS_V:
        raise VoltageCollapseError(bus, phase, m2)
    return pq_partials(p, q, vr, vi)


def apply_homotopy_positive_sequence(y: complex, hs: HomotopyState | None) -> complex:
    """Series admittance under continuation: (G + jB)(1 + lam gamma)."""
    if hs is None:
        return y
    return y * hs.series_scale


def apply_homotopy_three_phase(y_block: np.ndarray, hs: HomotopyState | None) -> np.ndarray:
    """Phase-block continuation: self terms scaled by (1 + gamma lam), mutuals unchanged."""
    y = np.array(y_block, dtype=complex)
    if hs is None:
        return y
    n = y.shape[0]
    y[np.arange(n), np.arange(n)] *= hs.series_scale
    return y
