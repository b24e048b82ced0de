"""MNA stamping: a circuit compiled once, then vectorized per-iteration stamps.

Conventions used throughout (and relied on by the solver):

* The system is square: row k is the equation "owned" by unknown k.
  Nodal voltage unknowns own their node's KCL rows (real part on the
  V_R row, imaginary part on the V_I row); source current unknowns own
  the source voltage-constraint rows; PV reactive unknowns own the
  voltage-magnitude rows; port current unknowns own the port voltage
  rows.
* KCL rows sum currents LEAVING the node: series/shunt/load currents
  enter positively, source injections enter as -1 times the source
  current unknown.
* A nonlinear device with consumption current c(x) is stamped as its
  Jacobian block J_c on the left and J_c . x_k - c(x_k) on the right,
  so J(x) . x - b(x) is the exact nonlinear mismatch at x.

A solve compiles its network once (``CompiledCircuit``): every stamp
position is fixed there, and every ZIP leg and generator becomes an
entry of index and parameter arrays.  Each Newton iteration then
evaluates all nonlinear currents and Jacobian entries in one vectorized
pass, the approach of MATPOWER's makeYbus/dSbus_dV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import (
    PHASE_CODE,
    PHASE_ROTATION,
    POS_SEQ_WEIGHT,
    POSITIVE_SEQUENCE,
    THREE_PHASE,
    Connection,
    IndexMap,
    Network,
)
from .sparse import AssemblyPlan

# Voltage-collapse guard: at |V|^2 <= EPS_V^2 on a leg the PQ model denominator
# is meaningless and the step limiter is expected to intervene.
EPS_V = 1e-6

# Default homotopy scaling factor; "much larger than" any per-unit line
# admittance in practice.
DEFAULT_GAMMA = 1e3

_DELTA_LEGS = ("ab", "bc", "ca")

# continuation classes of linear values: series self terms times 1 + lam gamma,
# line charging and shunts times 1 - lam, the rest unscaled
_SCALED, _RELAXED, _REST = 0, 1, 2
_P, _I, _Z = 0, 1, 2  # ZIP shares: constant power, current and impedance
_GROUND = np.zeros(1)  # the state's padding slot n, a wye leg's second terminal
# (real or imaginary part, sign) of a leg's complex coefficient w behind the entries a, b, c, d of its
# 2x2 block [[a, b], [c, d]] on (V_R, V_I): dI = w dV for an impedance, dI = w conj(dV) for a power leg
_W_DV = ((0, 1), (1, -1), (1, 1), (0, 1))
_W_CONJ_DV = ((0, 1), (1, 1), (1, 1), (0, -1))


class VoltageCollapseError(ArithmeticError):
    """|V| fell below the collapse guard at a load, DER or generator terminal."""

    def __init__(self, bus, phase, vmag2):
        super().__init__(f"voltage collapse guard at bus {bus} phase {phase}: |V|^2 = {vmag2:.3e}")
        self.bus = bus
        self.phase = phase


@dataclass
class HomotopyState:
    """Continuation state: lam=1 is the virtually shorted trivial system, lam=0 the original."""

    lam: float = 0.0
    gamma: float = DEFAULT_GAMMA
    shunt_relax: bool = True

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"homotopy factor {self.lam} outside [0, 1]")

    @property
    def series_scale(self) -> float:
        return 1.0 + self.lam * self.gamma

    @property
    def shunt_scale(self) -> float:
        return 1.0 - self.lam if self.shunt_relax else 1.0


@dataclass(frozen=True)
class StampSet:
    """Matrix triplets plus right-hand-side entries, as numpy arrays; one given with its dtype is kept."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    rhs_rows: np.ndarray = ()
    rhs_vals: np.ndarray = ()
    _dtypes = (("rows", np.int64), ("cols", np.int64), ("rhs_rows", np.int64), ("vals", float), ("rhs_vals", float))

    def __post_init__(self):
        for name, dtype in self._dtypes:
            value = getattr(self, name)
            if type(value) is not np.ndarray or value.dtype != dtype:
                object.__setattr__(self, name, np.asarray(value, dtype=dtype))


# ----------------------------------------------------------------------
# PQ model evaluation
# ----------------------------------------------------------------------


def pq_partials(p, q, vr, vi):
    """Current drawn by constant-PQ demands and its exact partials, elementwise in real arithmetic:
    the test oracles' scalar model (``CompiledCircuit`` evaluates I = conj(S) / conj(V) in complex).

    Returns (ir, ii, dir_dvr, dir_dvi, dii_dvr, dii_dvi) for

        ir = (p vr + q vi) / (vr^2 + vi^2)
        ii = (p vi - q vr) / (vr^2 + vi^2)
    """
    m2 = vr * vr + vi * vi
    ir = (p * vr + q * vi) / m2
    ii = (p * vi - q * vr) / m2
    m4 = m2 * m2
    d = vr * vr - vi * vi
    cross = 2.0 * vr * vi
    dir_dvr = -(p * d + q * cross) / m4
    dir_dvi = (q * d - p * cross) / m4
    return ir, ii, dir_dvr, dir_dvi, dir_dvi, -dir_dvr


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _expand(w):
    """Values of I = w V on (R, I) pairs, [w_R, -w_I, w_I, w_R] block by block."""
    w = np.asarray(w, dtype=complex)
    return np.ravel([w.real, -w.imag, w.imag, w.real])


def _expand_pairs(r, c):
    """Row and column indices matching ``_expand`` for V_R row and column indices."""
    return np.ravel([r, r, r + 1, r + 1]), np.ravel([c, c + 1, c, c + 1])


class _Legs:
    """Two-terminal legs: wye phases and delta legs.

    ``t`` holds (R1, I1, R2, I2) per leg; a wye leg's second terminal is
    the ground slot n of a state padded with one zero.  A leg with the
    2x2 block J stamps +J on (1, 1) and (2, 2) and -J on (1, 2) and
    (2, 1), and a right-hand side h at terminal 1 is -h at terminal 2;
    a wye leg stamps only at terminal 1.  ``block_rows``/``block_cols``
    and ``rhs_rows`` are those stamp positions, leg by leg.  With J made
    of each leg's complex w as ``block`` says (``_W_DV``, ``_W_CONJ_DV``),
    ``block_take`` and ``rhs_take`` pick each position's value from the
    float view of the complex arrays [w, -w] and [h, -h].
    """

    def __init__(self, t: np.ndarray, n: int, block):
        self.t = t
        node2 = t[:, 2] < n
        every = np.ones_like(node2)
        block_mask = np.repeat(np.stack([every, node2, node2, node2], axis=1), 4, axis=1)
        rhs_mask = np.stack([every, every, node2, node2], axis=1)
        r1, i1, r2, i2 = t.T
        rows = np.stack([r1, r1, i1, i1, r1, r1, i1, i1, r2, r2, i2, i2, r2, r2, i2, i2], axis=1)
        cols = np.stack([r1, i1, r1, i1, r2, i2, r2, i2, r1, i1, r1, i1, r2, i2, r2, i2], axis=1)
        self.block_rows, self.block_cols, self.rhs_rows = rows[block_mask], cols[block_mask], t[rhs_mask]
        # leg l's w (or h) at 2l and 2l + 1 of the float view, its negation 2 len(t) further on
        part, sign = np.tile(block, (4, 1)).T
        sign = sign * np.repeat([1, -1, -1, 1], 4)  # +J, -J, -J, +J
        at, neg = 2 * np.arange(len(t))[:, None], 2 * len(t)
        self.block_take = (at + part + np.where(sign < 0, neg, 0))[block_mask]
        self.rhs_take = (at + [0, 1, neg, neg + 1])[rhs_mask]


def _concat(parts, bus=1) -> list[np.ndarray]:
    """Column by column concatenation of (bus offset, [ids, *columns]) parts, ``ids`` plus the offset
    times ``bus`` (1, or a row marking its bus-id column): a template's compile inputs tiled over its copies."""
    return [np.concatenate(col) for col in zip(*([cols[0] + offset * bus, *cols[1:]] for offset, cols in parts))]


_LEG_BUS = np.array([1, 0, 0, 0, 0, 0])  # marks the bus column of a leg's keys
# (first and last terminal phase code, wye) of a leg's label: a wye phase or a delta leg
_LABEL_KEYS = {label: (PHASE_CODE[label[0]], PHASE_CODE[label[-1]], len(label) == 1) for label in (*PHASE_CODE, *_DELTA_LEGS)}


def _legs(devices, sign: float) -> list[np.ndarray]:
    """[keys, f, s] of the legs of each ZIP share of ``devices`` in stamping order, ``keys`` a row
    (bus, share, first and last terminal phase code, wye, sign) per leg, its demand f * s the ZIP
    fraction f of the device's phase or delta-leg demand s."""
    keys, fractions, demand = [], [], []
    for dev in devices:
        delta = getattr(dev, "connection", Connection.WYE) is Connection.DELTA and dev.phases != POSITIVE_SEQUENCE
        labels = _DELTA_LEGS if delta else dev.phases
        for share, f in enumerate(getattr(dev, "zip_fractions", (1.0, 0.0, 0.0))):
            for label, s in zip(labels, dev.s) if f != 0.0 else ():
                keys += (dev.bus, share, *_LABEL_KEYS[label], sign)
                fractions.append(f)
                demand.append(s)
    return [np.array(keys, dtype=float).reshape(-1, 6), np.array(fractions, dtype=float), np.array(demand, dtype=complex)]


def _scaled(network: Network, columns, name: str) -> list:
    """(bus offset, [ids, *columns, values]) of ``columns(template)`` per tile, taken once per template,
    ``values`` times the tile's ``scale(name)``; a tile whose scale is None is left out."""
    return [(tile.bus_offset, [*cols[:-1], cols[-1] if scale == 1 else scale * cols[-1]])
            for tile, cols in network.per_tile(columns) if (scale := tile.scale(name)) is not None]


def _demand_legs(network: Network) -> list[np.ndarray]:
    """``_legs`` of every tile's loads, then of every tile's DERs, each template's taken once and its
    demand scaled by the tile; power and current legs of zero demand are left out."""
    keys, f, s = _concat(_scaled(network, lambda t: _legs(t.loads, 1.0), "loads")
                         + _scaled(network, lambda t: _legs(t.ders, -1.0), "ders"), bus=_LEG_BUS)
    keep = (keys[:, 1] == _Z) | (f * s != 0)
    return [keys[keep], f[keep], s[keep]]


def _element_columns(t: Network) -> dict[str, list[np.ndarray]]:
    """Per phase set in order of first appearance: element ends, admittance blocks and
    (tap, shift, charging)."""
    groups: dict[str, list] = {}
    for el in t.elements:
        groups.setdefault(el.phases, []).append(el)
    return {phases: [np.array([(el.from_bus, el.to_bus) for el in els], dtype=np.int64),
                     np.array([el.y_series for el in els]),
                     np.array([(el.tap, el.shift, el.b_charge) for el in els])] for phases, els in groups.items()}


def _shunt_columns(t: Network) -> list[np.ndarray]:
    """Columns (bus, phase code, admittance) of every shunt phase."""
    return [np.array([sh.bus for sh in t.shunts for _ in sh.phases], dtype=np.int64),
            np.array([PHASE_CODE[ph] for sh in t.shunts for ph in sh.phases], dtype=np.int64),
            np.array([y for sh in t.shunts for y in sh.y], dtype=complex)]


def _leg_terminals(bus, code1, code2, wye, imap: IndexMap) -> np.ndarray:
    """(R1, I1, R2, I2) per leg; a wye leg has the ground slot n as its second."""
    vr = imap.v_index(bus[:, None], np.stack([code1, code2], axis=1))
    t = np.repeat(vr, 2, axis=1) + [0, 1, 0, 1]
    t[wye, 2:] = imap.n
    return t


def _element_triplets(network: Network, imap: IndexMap) -> list:
    """Series-element triplets, one (rows, cols, vals, class) part per phase set.

    Positive-sequence elements use the pi model with tap and phase shift,
    its line charging a relaxed shunt of ysh / tap^2 at the from end and
    ysh at the to end, as in MATPOWER's makeYbus; three-phase elements
    couple their full phase blocks, self terms scaled and mutuals not.
    """
    tiled: dict[str, list] = {}
    for tile, groups in network.per_tile(_element_columns):
        for phases, cols in groups.items():
            tiled.setdefault(phases, []).append((tile.bus_offset, cols))
    parts = []
    for phases, (ends, y, params) in ((phases, _concat(cols)) for phases, cols in tiled.items()):
        codes = [PHASE_CODE[ph] for ph in phases]
        f, t = imap.v_index(ends.T[..., None], codes)
        rows, cols = [f, f, t, t], [f, t, f, t]
        if phases == POSITIVE_SEQUENCE:
            y = y[:, 0, 0]
            tap, shift, b = params.T
            a, ysh = tap * np.exp(1j * shift), 0.5j * b
            w = np.array([y / (tap * tap), -y / a.conj(), -y / a, y, ysh / (tap * tap), ysh])[..., None, None]
            kind = np.array([_SCALED] * 4 + [_RELAXED] * 2)[:, None, None, None]
            rows, cols = rows + [f, t], cols + [f, t]
        else:
            w, kind = np.stack([y, -y, -y, y]), np.where(np.eye(len(phases), dtype=bool), _SCALED, _REST)
        shape = (len(rows), len(y), len(phases), len(phases))  # (block, element, phase, phase)
        rr, cr, w, kind = (np.broadcast_to(v, shape).ravel() for v in
                           (np.stack(rows)[..., None], np.stack(cols)[:, :, None, :], w, kind))
        parts.append((*_expand_pairs(rr, cr), _expand(w), np.tile(kind, 4)))
    return parts


class CompiledCircuit:
    """Stamp positions and device parameters of one (network, index map) pair.

    Each linear triplet carries its value and continuation class:
    scaled (series self terms, times 1 + lam gamma), relaxed (line
    charging and shunts, times 1 - lam) or rest (mutual phase couplings,
    constant-impedance load shares, sources and ports).
    Loads, DERs and generators are one ``_Legs`` array, ``jac``: the ZIP
    legs that are not constant impedance in device order, then each
    generator as a wye leg to ground.  Every leg stamps its 2x2 Jacobian
    block and its (h, -h) right-hand side, evaluated in complex arithmetic
    over the array: a leg draws I = conj(S) / conj(V), ``cs`` holding
    conj(S) with the ZIP fraction and load/DER sign folded in, and -P + jQ
    for a generator, Q its reactive unknown.  Constant-current legs have
    conj(S) = 0, so a zero block (the secant update), and draw I = c V / |V|.
    ``plan``, made last from the linear and nonlinear index arrays,
    checks their bounds once and fixes the pattern's scatter, into a
    dense array on systems small enough for the dense kernel.  Source
    voltages, a load factor and boundary injections are values a solve
    sets on a compiled circuit (``set_sources``, ``set_load_factor``,
    ``set_injections``).  ``gens``, the in-service generators with a
    reactive unknown, and ``gq``, those unknowns, are the solve's only
    record of its live generators; one at a reactive limit pins its Q
    at that bound.
    """

    def __init__(self, network: Network, imap: IndexMap):
        n = imap.n
        self.imap = imap
        keys, self._f, self._s = _demand_legs(network)
        self.gens = gens = [g for tile, live in network.per_tile(lambda t: [g for g in t.generators if g.status])
                            for g in tile.shifted("generators", live) if g.bus in imap.gen_q]
        bus, share, code1, code2, wye = keys[:, :5].T.astype(np.int64)
        wye = wye.astype(bool)
        t = _leg_terminals(bus, code1, code2, wye, imap)
        self._compile_linear(network, imap, t[share == _Z])

        nonlinear = np.flatnonzero(share != _Z)
        gr = imap.v_index([g.bus for g in gens], PHASE_CODE[POSITIVE_SEQUENCE])
        gi = gr + 1
        self.gq = gq = np.array([imap.gen_q[g.bus] for g in gens], dtype=np.int64)
        # the ZIP legs that are not constant impedance, in device order, then the
        # generators as demands of -(P + jQ) on a wye leg to ground
        gen_t = np.stack([gr, gi, np.full_like(gr, n), np.full_like(gr, n)], axis=1)
        self.jac = legs = _Legs(np.concatenate([t[nonlinear], gen_t]), n, _W_CONJ_DV)
        # (R1, I1) and (R2, I2) pairs leg by leg, slot n being ground: a gather viewed as complex V1, V2
        self.terminals = legs.t.reshape(-1, 2, 2).transpose(1, 0, 2).reshape(2, -1).copy()
        self.cu = np.flatnonzero(share[nonlinear] == _I)
        # (bus, wye phase or delta leg) of each leg, for the collapse guard's message
        self.labels = [(b, "pabc"[c1] + ("" if w else "pabc"[c2])) for b, c1, c2, w in
                       zip(*(col[nonlinear].tolist() for col in (bus, code1, code2, wye)))]
        self.labels += [(g.bus, POSITIVE_SEQUENCE) for g in gens]
        # share, sign and nominal |V|^2 per leg: delta legs see sqrt(3) pu at nominal
        self._zip = share, keys[:, 5], np.where(wye, 1.0, 3.0)
        self._p_set = np.array([g.p_set for g in gens])
        self.gen_v2 = np.array([g.v_set * g.v_set for g in gens])
        self._modes_seen = None  # the gen_modes behind the cached _gen_rows
        self._take_demands(self._f * self._s, -self._p_set)

        self.nl_rows = np.concatenate([legs.block_rows, gr, gi, gq, gq, gq])
        self.nl_cols = np.concatenate([legs.block_cols, gq, gq, gr, gi, gq])
        self.nl_rhs_rows = np.concatenate([legs.rhs_rows, gq])
        # the float view of [w, -w, j / conj(V), the pv rows' 2V, their Q pins] (generators' from 4 len(legs)
        # on, two floats each) and of [h, -h, the generator rows' rhs]
        at = 4 * len(legs.t) + 2 * np.arange(len(gens))
        self.nl_take = np.concatenate([legs.block_take, at, at + 1, at + 2 * len(gens), at + 2 * len(gens) + 1,
                                       at + 4 * len(gens)])
        self.nl_rhs_take = np.concatenate([legs.rhs_take, at])
        self.plan = AssemblyPlan(n, (self.lin_rows, self.nl_rows), (self.lin_cols, self.nl_cols), dense=True)

    def _compile_linear(self, network: Network, imap: IndexMap, z_terminals: np.ndarray) -> None:
        """Linear triplets in stamping order: elements, shunts, Z loads, sources, ports."""
        parts = _element_triplets(network, imap)
        bus, code, y = _concat(_scaled(network, _shunt_columns, "shunts"))
        rr = imap.v_index(bus, code)
        parts.append((*_expand_pairs(rr, rr), _expand(y), _RELAXED))

        # constant-impedance ZIP share: values set by _take_demands
        self.z = _Legs(z_terminals, imap.n, _W_DV)
        start = sum(len(part[2]) for part in parts)
        self.z_slice = slice(start, start + len(self.z.block_rows))
        parts.append((self.z.block_rows, self.z.block_cols, np.zeros(len(self.z.block_rows)), _REST))

        # ideal sources: voltage rows owned by the source current unknowns,
        # injection into the node KCL
        self.src_keys = [(b.id, ph) for b in network.source_buses() for ph in b.phases]
        ir, ii = np.array([imap.source_current[key] for key in self.src_keys], dtype=np.int64).reshape(-1, 2).T
        vr = imap.v_index([bus for bus, _ in self.src_keys], [PHASE_CODE[ph] for _, ph in self.src_keys])
        vi = vr + 1
        ones = np.ones(len(self.src_keys))
        src_vals = np.ravel([ones, ones, -ones, -ones])
        parts.append((np.ravel([ir, ii, vr, vi]), np.ravel([vr, vi, ir, ii]), src_vals, _REST))
        self.src_rhs_rows = np.concatenate([ir, ii])
        self.set_sources(network)
        self.set_injections(None)

        ports = stamp_coupling_ports(network.ports, imap)
        parts.append((ports.rows, ports.cols, ports.vals, _REST))

        self.lin_rows, self.lin_cols, self.lin_vals = (np.concatenate([p[i] for p in parts]) for i in range(3))
        self.lin_kind = np.concatenate([np.broadcast_to(np.int8(p[3]), len(p[2])) for p in parts])

    def set_sources(self, network: Network) -> None:
        """Take the ideal-source voltages from ``network``, which has this circuit's topology.

        A torn subcircuit's new boundary snapshot changes only its head
        voltages, so one compile serves every epoch.  Raises ValueError
        when ``network`` drives a different set of (bus, phase) sources.
        """
        buses = network.source_buses()
        keys = [(b.id, ph) for b in buses for ph in b.phases]
        if keys != self.src_keys:
            raise ValueError(f"source terminals {keys} differ from the compiled {self.src_keys}")
        v = [v for b in buses for v in b.v0]
        self.src_rhs_vals = np.array([z.real for z in v] + [z.imag for z in v])

    def set_injections(self, injections: dict[int, dict[str, complex]] | None) -> None:
        """Constant per-phase complex current consumptions by bus (a torn subcircuit's
        boundary drive) on the right-hand side of the KCL rows; None clears them."""
        per_bus = (injections or {}).items()
        buses, codes = [bus for bus, per in per_bus for _ in per], [PHASE_CODE[ph] for _, per in per_bus for ph in per]
        vr = self.imap.v_index(buses, codes)
        cur = np.array([cur for _, per in per_bus for cur in per.values()], dtype=complex)
        self.inj_rows, self.inj_vals = np.ravel([vr, vr + 1], order="F"), np.ravel([-cur.real, -cur.imag], order="F")

    def set_load_factor(self, lf: float) -> None:
        """Scale the compiled loads' demands and generators' P by ``lf``; DERs keep theirs.

        A leg's demand is f * (lf * s), so the stamps are bitwise a fresh compile's of
        ``network.with_loading_factor(lf)``; at lf = 0 the legs that compile would leave
        out stay at zero demand, the same system in value.
        """
        load = self._zip[1] > 0  # DER legs have the sign -1
        self._take_demands(self._f * np.where(load, lf * self._s, self._s), -(lf * self._p_set))

    def _take_demands(self, s: np.ndarray, gen_p: np.ndarray) -> None:
        """Set the leg values from the per-leg demands ``s`` and the generators' P from ``gen_p``."""
        share, sign, vref2 = self._zip
        cu, z = share == _I, share == _Z
        # conj(S) of every leg, zero on the constant-current ones, then the generators' -P (the
        # imaginary part, their reactive unknown, is set per state)
        self.cs = np.concatenate([np.where(share == _P, sign * s, 0.0)[~z].conj(), gen_p])
        # a constant-current leg's I = c V / |V|, c = mag e^(-j angle): |s| at nominal |V|, s's power factor
        self.c = sign[cu] * s[cu].conj() / np.sqrt(vref2[cu])
        # admittance drawing the demand at nominal voltage
        y = s[z].conj() / vref2[z]
        self.lin_vals[self.z_slice] = np.concatenate([y, -y]).view(float)[self.z.block_take]

    # -- per-state evaluation ------------------------------------------

    def linear(self, hs: HomotopyState | None) -> StampSet:
        series, shunt = (hs.series_scale, hs.shunt_scale) if hs is not None else (1.0, 1.0)
        vals = self.lin_vals * np.array([series, shunt, 1.0])[self.lin_kind]
        rhs_rows = np.concatenate([self.src_rhs_rows, self.inj_rows])
        rhs_vals = np.concatenate([self.src_rhs_vals, self.inj_vals])
        return StampSet(self.lin_rows, self.lin_cols, vals, rhs_rows, rhs_vals)

    def nonlinear(self, x: np.ndarray, gen_modes: dict) -> StampSet:
        v1, v2 = np.concatenate((x, _GROUND))[self.terminals].view(complex)
        v = v1 - v2
        vr, vi = v.real, v.imag
        m2 = vr * vr + vi * vi
        if (m2 <= EPS_V * EPS_V).any():
            self._raise_collapse(m2)

        # every leg: I = conj(S) / conj(V), and J, from dI = w conj(dV), on the left and J.x_k - I(x_k)
        # on the right, h = w conj(V) - I
        k, qg = len(self.cs) - len(self.gq), x[self.gq]
        self.cs.imag[k:] = qg
        inv = v / m2  # 1 / conj(V)
        cur = self.cs * inv
        w = -cur * inv
        # constant-current legs: the demand's magnitude at its power-factor angle off the present
        # voltage angle; a zero block (secant update)
        cur[self.cu] = self.c * v[self.cu] / np.sqrt(m2[self.cu])
        h = w * v.conj() - cur
        dq = 1j * inv[k:]  # a generator's I by its reactive unknown
        h[k:] += dq * qg
        pv, two_v, pin, q_pin = self._gen_rows(gen_modes)
        # pv: |V|^2 = Vset^2 linearized, 2 vr V_R + 2 vi V_I = Vset^2 + vr^2 + vi^2;
        # at a limit the row pins Q at the bound instead
        vals = np.concatenate((w, -w, dq, two_v * v[k:], pin)).view(float)[self.nl_take]
        rhs = np.concatenate((h, -h, np.where(pv, self.gen_v2 + m2[k:], q_pin))).view(float)[self.nl_rhs_take]
        return StampSet(self.nl_rows, self.nl_cols, vals, self.nl_rhs_rows, rhs)

    def _raise_collapse(self, m2):
        """Raise VoltageCollapseError naming the first leg below the guard, in device order."""
        j = int(np.argmax(m2 <= EPS_V * EPS_V))
        raise VoltageCollapseError(*self.labels[j], m2[j])

    def _gen_rows(self, gen_modes: dict):
        """(pv mask, 2 or 0 on V, 0 or 1 on Q, pinned Q) per generator, rebuilt only when the modes change."""
        if self._modes_seen != gen_modes:
            modes = [gen_modes.get(g.bus, "pv") for g in self.gens]
            pv = np.array([m == "pv" for m in modes], dtype=bool)
            q_pin = np.array([g.q_max if m == "qmax" else g.q_min for g, m in zip(self.gens, modes)])
            self._rows = pv, np.where(pv, 2.0, 0.0), np.where(pv, 0.0, 1.0).astype(complex), q_pin
            self._modes_seen = dict(gen_modes)
        return self._rows


# ----------------------------------------------------------------------
# Stamps
# ----------------------------------------------------------------------


def stamp_linear(circuit: CompiledCircuit, hs: HomotopyState | None = None) -> StampSet:
    """All state-independent stamps: series elements, shunts, constant-impedance
    load shares, ideal source rows, coupling ports and boundary injections."""
    return circuit.linear(hs)


# a port phase's twelve triplets: rows and columns as (terminal, R/I offset) over its
# (source current, head, POI) terminals, and values for phases a, b, c
_PORT_ROWS = [0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2], [0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1]
_PORT_COLS = [1, 2, 2, 1, 2, 2, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1]
_PORT_VALS = np.array([
    [1.0, -rot.real, rot.imag, 1.0, -rot.imag, -rot.real, -1.0, -1.0, w.real, -w.imag, w.imag, w.real]
    for rot, w in ((PHASE_ROTATION[ph], POS_SEQ_WEIGHT[ph] / 3.0) for ph in THREE_PHASE)
])


def stamp_coupling_ports(ports, imap: IndexMap) -> StampSet:
    """Exact linear stamps of coupling ports, port by port and phase by phase.

    Six controlled voltage sources set the feeder-head phase voltages
    from the transmission pair through the 0/-120/+120 rotation; the
    positive-sequence component of the six source currents is injected
    back into the transmission bus (zero and negative sequence
    components stay inside the port's ideal sources).
    """
    ends = np.array([(p.transmission_bus, *[p.feeder_head] * 3) for p in ports], dtype=np.int64).reshape(-1, 4)
    vr = imap.v_index(ends, [PHASE_CODE[ph] for ph in POSITIVE_SEQUENCE + THREE_PHASE])
    cur = np.array([[imap.port_current[(p.id, ph)][0] for ph in THREE_PHASE] for p in ports], dtype=np.int64)
    # per port and phase the R index of each terminal; voltage rows V_head - rot * V_poi = 0,
    # the source current injects into the head node and its positive-sequence share leaves the POI
    terminals = np.stack([cur.reshape(-1, 3), vr[:, 1:], np.repeat(vr[:, :1], 3, axis=1)], axis=-1)
    rows = terminals[..., _PORT_ROWS[0]] + _PORT_ROWS[1]
    cols = terminals[..., _PORT_COLS[0]] + _PORT_COLS[1]
    return StampSet(rows.ravel(), cols.ravel(), np.broadcast_to(_PORT_VALS, rows.shape).ravel())


def stamp_nonlinear(circuit: CompiledCircuit, x: np.ndarray, gen_modes: dict[int, str] | None = None) -> StampSet:
    """Linearized stamps at the current state: ZIP loads, DER injections,
    PV generators.

    ``gen_modes`` maps a generator bus to 'pv' (default), 'qmax' or
    'qmin'; at a limit the voltage-magnitude row is replaced by a row
    pinning the reactive unknown at that bound.  Raises
    VoltageCollapseError naming the first load or DER terminal (in
    device order), else generator, with |V|^2 <= EPS_V^2.
    """
    return circuit.nonlinear(x, gen_modes or {})


def stamp_system(
    circuit: CompiledCircuit, x: np.ndarray, hs: HomotopyState | None = None,
    gen_modes: dict[int, str] | None = None, linear: StampSet | None = None,
) -> tuple[StampSet, StampSet]:
    """Produce (linear, nonlinear) stamps for the full system at state x.

    The linear part depends only on the continuation state and the
    circuit's set values, so a Newton attempt stamps it once and passes
    it back as ``linear``.
    """
    if linear is None:
        linear = stamp_linear(circuit, hs)
    return linear, stamp_nonlinear(circuit, x, gen_modes)
