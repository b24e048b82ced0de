"""Parsers and combined-network construction.

Three inputs exist: MATPOWER-style transmission case files (the usual
``mpc.bus`` / ``mpc.gen`` / ``mpc.branch`` matrices), feeder documents
in this package's JSON schema (``"schema": 1``), and coupling maps that
attach feeder files to transmission buses.  Everything is converted to
per-unit on the transmission case's MVA base at construction; feeder
per-phase quantities use the per-phase power base (one third of the
system base) and line-to-neutral voltage base, so the coupling-port
equations need no conversion factors.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import logging
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .netmodel import (
    DEVICES,
    POSITIVE_SEQUENCE,
    Bus,
    BusKind,
    Connection,
    CouplingPort,
    DerInjection,
    ElementKind,
    Generator,
    Load,
    Network,
    SeriesElement,
    Shunt,
    Tile,
    flat_voltages,
)

log = logging.getLogger(__name__)

FEEDER_SCHEMA_VERSION = 1
DEFAULT_BASE_MVA = 100.0

_KNOWN_SECTIONS = {"version", "baseMVA", "bus", "gen", "branch"}


class CaseFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def read_text(path) -> str:
    """The text of input file ``path``; one that cannot be read as UTF-8 text (missing, a
    directory, bytes that are not UTF-8) is a CaseFormatError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseFormatError(f"cannot read {path}: {exc}") from exc


# ----------------------------------------------------------------------
# MATPOWER transmission cases
# ----------------------------------------------------------------------


def _read_matrices(text: str):
    """Extract ``mpc.<name> = ...`` assignments with row line numbers."""
    sections: dict[str, tuple] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i].split("%", 1)[0].strip()
        m = re.match(r"mpc\.(\w+)\s*=\s*(.*)", raw)
        if not m:
            i += 1
            continue
        name, rest = m.group(1), m.group(2).strip()
        if not rest.startswith("["):
            sections[name] = ("scalar", rest.rstrip(";").strip(), i + 1)
            i += 1
            continue
        rows, row_lines = [], []
        body = rest[1:]
        lineno = i
        while True:
            part = body.split("]", 1)[0]
            done = "]" in body
            part = part.strip().rstrip(";")
            if part:
                for chunk in part.split(";"):
                    chunk = chunk.strip()
                    if chunk:
                        rows.append(chunk)
                        row_lines.append(lineno + 1)
            if done:
                break
            lineno += 1
            if lineno >= len(lines):
                raise CaseFormatError(f"unterminated matrix mpc.{name}", i + 1)
            body = lines[lineno].split("%", 1)[0]
        sections[name] = ("matrix", (rows, row_lines), i + 1)
        i = lineno + 1
    return sections


def _numbers(row: str, line: int, name: str, read=(), inf_ok=(), ints=()) -> list[float]:
    """A matrix row's numbers.  NaN in a ``read`` column, +-inf outside the ``inf_ok``
    ones (MATPOWER's "no limit"), or a fraction in an ``ints`` column (ids, types and
    statuses) is a CaseFormatError naming file ``name``."""
    out = []
    for tok in row.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise CaseFormatError(f"bad numeric token {tok!r}", line) from None
    if not all(map(math.isfinite, out)):
        for k in read:
            if k < len(out) and (math.isnan(out[k]) or math.isinf(out[k]) and k not in inf_ok):
                raise CaseFormatError(f"non-finite value {out[k]} in column {k + 1} of {name}", line)
    for k in ints:
        if k < len(out) and not out[k].is_integer():
            raise CaseFormatError(f"non-integral value {out[k]} in column {k + 1} of {name}", line)
    return out


def parse_transmission(path) -> Network:
    """Parse a MATPOWER case file into a per-unit positive-sequence network."""
    path = Path(path)
    sections = _read_matrices(read_text(path))

    for name, (_, _, line) in sections.items():
        if name not in _KNOWN_SECTIONS:
            log.warning("%s:%d: ignoring unknown section mpc.%s", path.name, line, name)

    if "baseMVA" not in sections:
        raise CaseFormatError("missing mpc.baseMVA")
    kind, value, line = sections["baseMVA"]
    if kind != "scalar":
        raise CaseFormatError("mpc.baseMVA must be a scalar", line)
    base = _numbers(value, line, path.name, read=(0,))
    if len(base) != 1 or base[0] <= 0:
        raise CaseFormatError("baseMVA must be one positive number", line)
    base = base[0]

    if "bus" not in sections:
        raise CaseFormatError("missing mpc.bus")
    kind, matrix, line = sections["bus"]
    if kind != "matrix" or not matrix[0]:
        raise CaseFormatError("mpc.bus must be a matrix with at least one row", line)
    for name in ("gen", "branch"):
        if sections.get(name, ("matrix",))[0] != "matrix":
            raise CaseFormatError(f"mpc.{name} must be a matrix", sections[name][2])

    gen_rows: list[tuple[list[float], int]] = []
    if "gen" in sections:
        rows, row_lines = sections["gen"][1]
        gen_rows = [(_numbers(r, ln, path.name, range(8), inf_ok=(3, 4), ints=(0, 7)), ln) for r, ln in zip(rows, row_lines)]

    # first pass over generators: setpoints per bus (merged when stacked)
    gens_at: dict[int, dict] = {}
    for vals, ln in gen_rows:
        if len(vals) < 8:
            raise CaseFormatError("generator row needs at least 8 columns", ln)
        bus_id, pg, qg, qmax, qmin, vg, _mbase, status = (
            int(vals[0]), vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], int(vals[7]),
        )
        if status <= 0:
            continue
        slot = gens_at.setdefault(
            bus_id, {"pg": 0.0, "qg": 0.0, "qmax": 0.0, "qmin": 0.0, "vg": vg, "line": ln}
        )
        slot["pg"] += pg
        slot["qg"] += qg
        slot["qmax"] += qmax
        slot["qmin"] += qmin

    buses: list[Bus] = []
    loads: list[Load] = []
    shunts: list[Shunt] = []
    ders: list[DerInjection] = []
    generators: list[Generator] = []
    bus_kinds: dict[int, BusKind] = {}

    rows, row_lines = sections["bus"][1]
    for r, ln in zip(rows, row_lines):
        vals = _numbers(r, ln, path.name, range(10), ints=(0, 1))
        if len(vals) < 13:
            raise CaseFormatError("bus row needs 13 columns", ln)
        bus_id, btype = int(vals[0]), int(vals[1])
        pd, qd, gs, bs = vals[2], vals[3], vals[4], vals[5]
        vm, va, base_kv = vals[7], math.radians(vals[8]), vals[9]
        if btype == 3:
            kind = BusKind.SLACK
        elif btype == 2:
            kind = BusKind.PV
        elif btype == 1:
            kind = BusKind.PQ
        else:
            raise CaseFormatError(f"unsupported bus type {btype} at bus {bus_id}", ln)
        if kind is BusKind.PV and bus_id not in gens_at:
            log.warning("%s:%d: PV bus %d has no in-service generator; treated as PQ", path.name, ln, bus_id)
            kind = BusKind.PQ
        vmag = vm if vm > 0 else 1.0
        if kind in (BusKind.SLACK, BusKind.PV) and bus_id in gens_at:
            vmag = gens_at[bus_id]["vg"]
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                phases=POSITIVE_SEQUENCE,
                base_kv=base_kv if base_kv > 0 else 1.0,
                v0=(cmath.rect(vmag, va),),
            )
        )
        bus_kinds[bus_id] = kind
        if pd != 0.0 or qd != 0.0:
            loads.append(Load(bus=bus_id, phases=POSITIVE_SEQUENCE, s=(complex(pd, qd) / base,)))
        if gs != 0.0 or bs != 0.0:
            shunts.append(Shunt(bus=bus_id, phases=POSITIVE_SEQUENCE, y=(complex(gs, bs) / base,)))

    known = set(bus_kinds)
    for bus_id, g in gens_at.items():
        if bus_id not in known:
            raise CaseFormatError(f"generator references missing bus {bus_id}", g["line"])
        kind = bus_kinds[bus_id]
        if kind is BusKind.PV:
            generators.append(
                Generator(
                    bus=bus_id,
                    p_set=g["pg"] / base,
                    v_set=g["vg"],
                    q_min=g["qmin"] / base,
                    q_max=g["qmax"] / base,
                )
            )
        elif kind is BusKind.PQ:
            # fixed-output machine on a load bus: net it off as an injection
            log.warning("%s: generator at PQ bus %d folded into a fixed injection", path.name, bus_id)
            ders.append(
                DerInjection(
                    bus=bus_id,
                    phases=POSITIVE_SEQUENCE,
                    s=(complex(g["pg"], g["qg"]) / base,),
                    group="fixed-gen",
                )
            )
        # slack-bus machines only pin the source voltage

    elements: list[SeriesElement] = []
    if "branch" in sections:
        rows, row_lines = sections["branch"][1]
        for eid, (r, ln) in enumerate(zip(rows, row_lines)):
            vals = _numbers(r, ln, path.name, (0, 1, 2, 3, 4, 8, 9, 10), ints=(0, 1, 10))
            if len(vals) < 11:
                raise CaseFormatError("branch row needs at least 11 columns", ln)
            fbus, tbus = int(vals[0]), int(vals[1])
            rr, xx, bb, ratio, angle, status = vals[2], vals[3], vals[4], vals[8], vals[9], int(vals[10])
            if status == 0:
                continue
            if fbus not in known or tbus not in known:
                missing = fbus if fbus not in known else tbus
                raise CaseFormatError(f"branch references missing bus {missing}", ln)
            if rr == 0.0 and xx == 0.0:
                raise CaseFormatError(f"zero-impedance branch {fbus}-{tbus}", ln)
            y = 1.0 / complex(rr, xx)
            is_xfmr = ratio != 0.0 or angle != 0.0
            elements.append(
                SeriesElement(
                    id=eid,
                    from_bus=fbus,
                    to_bus=tbus,
                    kind=ElementKind.TRANSFORMER if is_xfmr else ElementKind.LINE,
                    phases=POSITIVE_SEQUENCE,
                    y_series=np.array([[y]]),
                    b_charge=bb,
                    tap=ratio if ratio != 0.0 else 1.0,
                    shift=math.radians(angle),
                )
            )

    return Network(
        base_mva=base,
        buses=tuple(buses),
        elements=tuple(elements),
        loads=tuple(loads),
        shunts=tuple(shunts),
        generators=tuple(generators),
        ders=tuple(ders),
        labels={b.id: str(b.id) for b in buses},
    )


# ----------------------------------------------------------------------
# Feeder documents
# ----------------------------------------------------------------------


_REQUIRED = object()


def _field(rec, key: str, kind, where: str, default=_REQUIRED):
    """``kind(rec[key])``, or ``default`` when ``key`` is absent; CaseFormatError naming ``where``
    on a record that is not a JSON object, a missing required key or a value ``kind`` rejects."""
    if not isinstance(rec, dict):
        raise CaseFormatError(f"{where}: expected a JSON object, got {rec!r}")
    if key not in rec and default is _REQUIRED:
        raise CaseFormatError(f"{where}: missing {key}")
    try:
        return kind(rec[key]) if key in rec else default
    except (TypeError, ValueError, OverflowError):
        raise CaseFormatError(f"{where}: bad {key} {rec[key]!r}") from None


def _finite(v) -> float:
    """A JSON number as a float; a string, a boolean, NaN or +-inf (JSON's NaN, Infinity, 1e999): ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(f := float(v)):
        raise ValueError(f"not a finite number: {v!r}")
    return f


def _positive(v) -> float:
    """A JSON number above zero as a float; anything else is a ValueError."""
    if (f := _finite(v)) <= 0:
        raise ValueError(f"not positive: {v!r}")
    return f


def _text(v) -> str:
    """A JSON string; any other value is a ValueError."""
    if not isinstance(v, str):
        raise ValueError(f"not a string: {v!r}")
    return v


def _integral(v) -> int:
    """A JSON number with an integral value as an int; a string, a boolean or a fraction is a ValueError."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"not an integer: {v!r}")
    return int(v)


def _json_object(path: Path) -> dict:
    text = read_text(path)
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's 4,300-digit limit
        raise CaseFormatError(f"{path.name}: {exc}", getattr(exc, "lineno", None)) from exc
    if not isinstance(raw, dict):
        raise CaseFormatError(f"{path.name}: expected a JSON object, got {type(raw).__name__}")
    if raw.get("schema") != FEEDER_SCHEMA_VERSION:
        raise CaseFormatError(f"{path.name}: expected \"schema\": {FEEDER_SCHEMA_VERSION}")
    return raw


def _complex_of(v, where: str) -> complex:
    try:
        real, imag = v if isinstance(v, list) else (v, 0)
        return complex(_finite(real), _finite(imag))
    except (ValueError, OverflowError):  # also an integer too large for a float
        raise CaseFormatError(f"{where}: expected finite number or [re, im] pair, got {v!r}") from None


def _matrix_of(m, k: int, where: str) -> np.ndarray:
    if not all(isinstance(row, list) for row in m):
        raise CaseFormatError(f"{where}: expected impedance rows as lists, got {m!r}")
    arr = np.array([[_complex_of(v, where) for v in row] for row in m], dtype=complex)
    if arr.shape != (k, k):
        raise CaseFormatError(f"{where}: expected {k}x{k} impedance block, got {arr.shape}")
    if not np.allclose(arr, arr.T, rtol=0, atol=1e-12):
        raise CaseFormatError(f"{where}: impedance block is not symmetric")
    return arr


def _phases_of(v, where: str) -> str:
    p = "".join(sorted(set(str(v))))
    if not p or not set(p) <= set("abc"):
        raise CaseFormatError(f"{where}: bad phases {v!r}")
    return p


@dataclass
class FeederNode:
    id: str
    phases: str
    kv: float


@dataclass
class FeederBranch:
    from_node: str
    to_node: str
    phases: str
    z_ohms: np.ndarray  # total series impedance over the element's phases
    kind: ElementKind = ElementKind.LINE


@dataclass
class FeederLoadRec:
    node: str
    connection: Connection
    kw: tuple[float, ...]
    kvar: tuple[float, ...]
    zip_fractions: tuple[float, float, float] = (1.0, 0.0, 0.0)


@dataclass
class FeederCapRec:
    node: str
    kvar: tuple[float, ...]
    phases: str = ""


@dataclass
class FeederDerRec:
    node: str
    kw: tuple[float, ...]
    kvar: tuple[float, ...]
    group: str = ""


@dataclass
class FeederDoc:
    """Physical-unit feeder description; per-unit conversion happens at build time."""

    name: str
    head: str
    nominal_kv: float
    nodes: list[FeederNode] = field(default_factory=list)
    branches: list[FeederBranch] = field(default_factory=list)
    loads: list[FeederLoadRec] = field(default_factory=list)
    capacitors: list[FeederCapRec] = field(default_factory=list)
    ders: list[FeederDerRec] = field(default_factory=list)


def parse_feeder_doc(path) -> FeederDoc:
    """Parse and validate a feeder JSON document (physical units)."""
    path = Path(path)
    raw = _json_object(path)
    if "head" not in raw or "nodes" not in raw:
        raise CaseFormatError(f"{path.name}: missing head or nodes")

    doc = FeederDoc(
        name=_field(raw, "name", _text, path.name, path.stem),
        head=_field(raw, "head", _text, path.name),
        nominal_kv=_field(raw, "nominal_kv", _positive, path.name),
    )

    def records(key):
        recs = raw.get(key, [])
        if not isinstance(recs, list):
            raise CaseFormatError(f"{path.name}: {key} must be a list of records, got {recs!r}")
        return enumerate(recs)

    seen_nodes: dict[str, FeederNode] = {}
    for i, nd in records("nodes"):
        where = f"{path.name}: nodes[{i}]"
        node_id = _field(nd, "id", _text, where)
        node = FeederNode(
            id=node_id,
            phases=_phases_of(_field(nd, "phases", str, where), f"node {node_id}"),
            kv=_field(nd, "kv", _finite, where, doc.nominal_kv),
        )
        if node.id in seen_nodes:
            raise CaseFormatError(f"{path.name}: duplicate node {node.id}")
        seen_nodes[node.id] = node
        doc.nodes.append(node)
    if doc.head not in seen_nodes:
        raise CaseFormatError(f"{path.name}: head node {doc.head} not defined")
    if seen_nodes[doc.head].phases != "abc":
        raise CaseFormatError(f"{path.name}: head node must carry phases abc")

    def endpoints(rec, what, where):
        f, t = _field(rec, "from", _text, where), _field(rec, "to", _text, where)
        if f not in seen_nodes or t not in seen_nodes:
            raise CaseFormatError(f"{path.name}: {what} references unknown node {f if f not in seen_nodes else t}")
        phases = _phases_of(_field(rec, "phases", str, where), f"{what} {f}-{t}")
        for node in (f, t):
            if not set(phases) <= set(seen_nodes[node].phases):
                raise CaseFormatError(f"{path.name}: {what} {f}-{t} phases {phases} not at {node}")
        return f, t, phases

    for i, li in records("lines"):
        where = f"{path.name}: lines[{i}]"
        f, t, phases = endpoints(li, "line", where)
        z = _matrix_of(_field(li, "z_ohms_per_mile", list, where), len(phases), f"{path.name}: line {f}-{t}")
        length = _field(li, "length_miles", _positive, where, 1.0)
        doc.branches.append(FeederBranch(f, t, phases, z * length, ElementKind.LINE))

    for i, tr in records("transformers"):
        where = f"{path.name}: transformers[{i}]"
        f, t, phases = endpoints(tr, "transformer", where)
        conn = str(tr.get("connection", "wye")).lower()
        if conn != "wye":
            raise CaseFormatError(f"{path.name}: transformer {f}-{t}: only wye connections supported")
        z1 = complex(_field(tr, "r_ohms", _finite, where, 0.0), _field(tr, "x_ohms", _finite, where))
        doc.branches.append(
            FeederBranch(f, t, phases, np.eye(len(phases), dtype=complex) * z1, ElementKind.TRANSFORMER)
        )

    def tuple_of(rec, key, k, where):
        v = _field(rec, key, lambda v: [_finite(t) for t in v] if isinstance(v, list) else [_finite(v)] * k,
                   where, [0.0] * k)
        if len(v) != k:
            raise CaseFormatError(f"{where}: {key} needs {k} entries")
        return tuple(v)

    def node_of(rec, what, where):
        node = _field(rec, "node", _text, where)
        if node not in seen_nodes:
            raise CaseFormatError(f"{path.name}: {what} references unknown node {node}")
        return node

    for i, lo in records("loads"):
        where = f"{path.name}: loads[{i}]"
        node = node_of(lo, "load", where)
        conn = _field(lo, "connection", lambda v: Connection(str(v).lower()), where, Connection.WYE)
        k = 3 if conn is Connection.DELTA else len(seen_nodes[node].phases)
        if conn is Connection.DELTA and seen_nodes[node].phases != "abc":
            raise CaseFormatError(f"{path.name}: delta load at {node} needs a three-phase node")
        zf = _field(lo, "zip", lambda v: tuple(_finite(t) for t in v), where, (1.0, 0.0, 0.0))
        if len(zf) != 3 or abs(sum(zf) - 1.0) > 1e-12 or any(f < 0 or f > 1 for f in zf):
            raise CaseFormatError(f"{path.name}: load at {node}: bad ZIP fractions {zf}")
        doc.loads.append(
            FeederLoadRec(
                node=node,
                connection=conn,
                kw=tuple_of(lo, "kw", k, where),
                kvar=tuple_of(lo, "kvar", k, where),
                zip_fractions=zf,
            )
        )

    for i, cp in records("capacitors"):
        where = f"{path.name}: capacitors[{i}]"
        node = node_of(cp, "capacitor", where)
        phases = seen_nodes[node].phases
        doc.capacitors.append(FeederCapRec(node=node, kvar=tuple_of(cp, "kvar", len(phases), where), phases=phases))

    for i, de in records("ders"):
        where = f"{path.name}: ders[{i}]"
        node = node_of(de, "DER", where)
        k = len(seen_nodes[node].phases)
        doc.ders.append(
            FeederDerRec(
                node=node,
                kw=tuple_of(de, "kw", k, where),
                kvar=tuple_of(de, "kvar", k, where),
                group=_field(de, "group", _text, where, ""),
            )
        )

    return doc


def feeder_network(doc: FeederDoc, base_mva: float = DEFAULT_BASE_MVA) -> Network:
    """Instantiate a feeder document as a per-unit three-phase network, bus and element ids from 0.

    Per-phase powers land on the per-phase base (base_mva / 3), so a
    balanced feeder totaling S MW draws S / base_mva from the port.
    A load of zero power is left out.
    """
    z_base = doc.nominal_kv**2 / base_mva  # ohm, identical per phase on the LN base
    s_base_phase_kw = base_mva * 1000.0 / 3.0

    node_index = {n.id: i for i, n in enumerate(doc.nodes)}
    load_nodes = {lo.node for lo in doc.loads}

    buses = []
    labels = {}
    for n in doc.nodes:
        if n.id == doc.head:
            kind = BusKind.FEEDER_HEAD
        elif n.id in load_nodes:
            kind = BusKind.LOAD_NODE
        else:
            kind = BusKind.INTERNAL_NODE
        buses.append(
            Bus(
                id=node_index[n.id],
                kind=kind,
                phases=n.phases,
                base_kv=n.kv,
                v0=flat_voltages(n.phases),
            )
        )
        labels[node_index[n.id]] = f"{doc.name}/{n.id}"

    # one inverse per group of same-size blocks; a group with a singular block goes block by block
    y_series = {}
    for shape in {br.z_ohms.shape for br in doc.branches}:
        group = [i for i, br in enumerate(doc.branches) if br.z_ohms.shape == shape]
        with contextlib.suppress(np.linalg.LinAlgError):
            y_series.update(zip(group, np.linalg.inv(np.stack([doc.branches[i].z_ohms for i in group]) / z_base)))
    elements = []
    for i, br in enumerate(doc.branches):
        try:
            y_pu = y_series[i] if i in y_series else np.linalg.inv(br.z_ohms / z_base)
            if not np.all(np.isfinite(y_pu)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise CaseFormatError(f"{doc.name}: singular impedance block on {br.from_node}-{br.to_node}") from None
        elements.append(
            SeriesElement(
                id=i,
                from_bus=node_index[br.from_node],
                to_bus=node_index[br.to_node],
                kind=br.kind,
                phases=br.phases,
                y_series=y_pu,
            )
        )

    def s_pu(kw, kvar):
        return tuple(complex(p, q) / s_base_phase_kw for p, q in zip(kw, kvar))

    phases_of = {n.id: n.phases for n in doc.nodes}
    loads = []
    for lo in doc.loads:
        phases = "abc" if lo.connection is Connection.DELTA else phases_of[lo.node]
        s = s_pu(lo.kw, lo.kvar)
        if any(v != 0 for v in s):
            loads.append(
                Load(bus=node_index[lo.node], phases=phases, s=s,
                     connection=lo.connection, zip_fractions=lo.zip_fractions)
            )
    shunts = [Shunt(bus=node_index[cp.node], phases=cp.phases, y=tuple(1j * q / s_base_phase_kw for q in cp.kvar))
              for cp in doc.capacitors]
    ders = [DerInjection(bus=node_index[de.node], phases=phases_of[de.node], s=s_pu(de.kw, de.kvar), group=de.group)
            for de in doc.ders]

    return Network(
        base_mva=base_mva,
        buses=tuple(buses),
        elements=tuple(elements),
        loads=tuple(loads),
        shunts=tuple(shunts),
        ders=tuple(ders),
        labels=labels,
    )


def parse_feeder(path, base_mva: float = DEFAULT_BASE_MVA) -> Network:
    """Parse a feeder file straight to a standalone per-unit network."""
    return feeder_network(parse_feeder_doc(path), base_mva)


# ----------------------------------------------------------------------
# Coupling maps and combined construction
# ----------------------------------------------------------------------


@dataclass
class CouplingEntry:
    feeder: str
    bus: int
    load_scale: float = 1.0
    der_scale: float = 1.0


@dataclass
class CouplingMap:
    entries: list[CouplingEntry]
    base_dir: Path | None = None

    def feeder_path(self, entry: CouplingEntry) -> Path:
        p = Path(entry.feeder)
        if not p.is_absolute() and self.base_dir is not None:
            p = self.base_dir / p
        return p


def parse_coupling_map(path) -> CouplingMap:
    path = Path(path)
    raw = _json_object(path)
    entries = []
    seen_buses = set()
    if not isinstance(couplings := raw.get("couplings", []), list):
        raise CaseFormatError(f"{path.name}: couplings must be a list of records, got {couplings!r}")
    for i, e in enumerate(couplings):
        where = f"{path.name}: couplings[{i}]"
        entry = CouplingEntry(
            feeder=_field(e, "feeder", _text, where),
            bus=_field(e, "bus", _integral, where),
            load_scale=_field(e, "load_scale", _finite, where, 1.0),
            der_scale=_field(e, "der_scale", _finite, where, 1.0),
        )
        if entry.bus in seen_buses:
            raise CaseFormatError(f"{path.name}: bus {entry.bus} coupled twice")
        seen_buses.add(entry.bus)
        entries.append(entry)
    return CouplingMap(entries=entries, base_dir=path.parent)


def _id_stride(tnet: Network, docs) -> int:
    biggest = max([b.id for b in tnet.buses] + [len(d.nodes) for d in docs])
    stride = 10
    while stride <= biggest:
        stride *= 10
    return stride


def build_combined(
    tnet: Network,
    coupling: CouplingMap,
    feeder_docs: dict[str, FeederDoc],
    keep_bus_load: bool = False,
) -> Network:
    """Attach feeders to the transmission case through coupling ports.

    At each coupled bus the transmission-side static load is removed
    (the feeder replaces the aggregate) unless ``keep_bus_load``;
    coupled buses must be PQ buses and appear at most once.  The result
    records its tiles, the transmission case, then each feeder block as
    a copy of its document's one template at the entry's load and DER
    scales, and builds its devices from them when they are first read
    (see ``Network.tiled``); a case with a transmission device naming a
    bus outside it is built at once as its own tile.
    """
    kinds = {b.id: b.kind for b in tnet.buses}
    coupled: set[int] = set()
    for entry in coupling.entries:
        if entry.bus not in kinds:
            raise CaseFormatError(f"coupling references missing bus {entry.bus}")
        if kinds[entry.bus] is not BusKind.PQ:
            raise CaseFormatError(f"coupling bus {entry.bus} is not a PQ bus")
        if entry.bus in coupled:
            raise CaseFormatError(f"bus {entry.bus} coupled twice")
        coupled.add(entry.bus)
        if entry.feeder not in feeder_docs:
            raise CaseFormatError(f"feeder document {entry.feeder!r} not provided")

    stride = _id_stride(tnet, feeder_docs.values())
    devices = {name: list(getattr(tnet, name)) for name in DEVICES}
    devices["loads"] = [ld for ld in tnet.loads if keep_bus_load or ld.bus not in coupled]
    # a transmission device naming a bus outside the case would reach into a copy
    closed = all({e.from_bus, e.to_bus} <= kinds.keys() for e in tnet.elements) and all(
        d.bus in kinds for name in DEVICES[2:] for d in devices[name])
    tiles = [Tile(Network(tnet.base_mva, **devices))]
    ports, labels = [], dict(tnet.labels)
    templates: dict[str, Network] = {}  # feeder document -> its one network, ids from 0
    next_element = max((e.id for e in tnet.elements), default=-1) + 1
    for k, entry in enumerate(coupling.entries):
        if entry.feeder not in templates:
            templates[entry.feeder] = feeder_network(feeder_docs[entry.feeder], tnet.base_mva)
        fnet, offset = templates[entry.feeder], stride * (k + 1)
        tiles.append(Tile(fnet, offset, next_element, entry.load_scale, entry.der_scale))
        next_element += len(fnet.elements)
        labels.update(zip(map(offset.__add__, fnet.labels), fnet.labels.values()))
        head = next(b.id for b in fnet.buses if b.kind is BusKind.FEEDER_HEAD)
        ports.append(CouplingPort(id=k, transmission_bus=entry.bus, feeder_head=head + offset))

    net = Network.tiled(tiles, base_mva=tnet.base_mva, ports=ports, labels=labels)
    return net if closed else replace(net)  # the devices built now, the network its own one tile


def load_combined_case(
    case_path,
    coupling_path=None,
    keep_bus_load: bool = False,
) -> Network:
    """Convenience loader: transmission case plus optional coupling map."""
    tnet = parse_transmission(case_path)
    if coupling_path is None:
        return tnet
    cmap = parse_coupling_map(coupling_path)
    docs = {}
    for entry in cmap.entries:
        if entry.feeder not in docs:
            docs[entry.feeder] = parse_feeder_doc(cmap.feeder_path(entry))
    return build_combined(tnet, cmap, docs, keep_bus_load=keep_bus_load)
