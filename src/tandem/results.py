"""Solution extraction: per-node voltages and POI summaries."""

from __future__ import annotations

import json
import math

import numpy as np

from .netmodel import PHASE_CODE, POSITIVE_SEQUENCE, IndexMap, Network


def solution_dict(network: Network, imap: IndexMap, x: np.ndarray) -> dict:
    """Per-node voltage magnitude and angle per phase, JSON-ready: the nodes of ``imap``'s
    slot table in row-major order, so by bus id and then phase."""
    rows, codes = np.nonzero(imap.slots >= 0)
    vr = imap.slots[rows, codes]
    re, im = x[vr], x[vr + 1]
    # hypot and atan2 of each node are abs() and cmath.phase() of its complex voltage, bit for bit
    nodes = zip(imap.bus_ids[rows].tolist(), codes.tolist(), np.hypot(re, im).tolist(), re.tolist(), im.tolist())
    return {"schema": 1, "base_mva": network.base_mva, "nodes": [
        {"bus": bus, "label": network.label(bus), "phase": "pabc"[code], "vm": vm,
         "va_deg": math.degrees(math.atan2(i, r))} for bus, code, vm, r, i in nodes]}


def solution_json(sol: dict) -> str:
    """``json.dumps(sol, indent=2)`` of a ``solution_dict``, formatted directly: the standard
    library's indenting encoder is pure Python."""
    text, num = json.encoder.encode_basestring_ascii, float.__repr__
    node = '    {\n      "bus": %d,\n      "label": %s,\n      "phase": %s,\n      "vm": %s,\n      "va_deg": %s\n    }'
    nodes = ",\n".join(node % (n["bus"], text(n["label"]), text(n["phase"]), num(n["vm"]), num(n["va_deg"]))
                       for n in sol["nodes"])
    nodes = f"[\n{nodes}\n  ]" if nodes else "[]"
    return f'{{\n  "schema": {sol["schema"]},\n  "base_mva": {json.dumps(sol["base_mva"])},\n  "nodes": {nodes}\n}}'


def poi_voltages(network: Network, imap: IndexMap, x: np.ndarray) -> list[tuple[int, float]]:
    """(bus id, |V|) at every point of interconnection, sorted by bus id."""
    buses = [p.transmission_bus for p in network.ports]
    vr = imap.v_index(buses, PHASE_CODE[POSITIVE_SEQUENCE])
    return sorted(zip(buses, np.hypot(x[vr], x[vr + 1]).tolist()))


def poi_extremes(network: Network, imap: IndexMap, x: np.ndarray) -> dict | None:
    """Max and min POI substation voltage with their node ids; None without ports."""
    pv = poi_voltages(network, imap, x)
    if not pv:
        return None
    hi = max(pv, key=lambda t: t[1])
    lo = min(pv, key=lambda t: t[1])
    return {
        "max": {"node": hi[0], "magnitude": hi[1]},
        "min": {"node": lo[0], "magnitude": lo[1]},
    }
