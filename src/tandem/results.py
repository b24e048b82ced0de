"""Solution extraction: per-node voltages and POI summaries."""

from __future__ import annotations

import json
import math

import numpy as np

from .netmodel import PHASE_CODE, POSITIVE_SEQUENCE, IndexMap, Network


def _nodes(imap: IndexMap, x: np.ndarray):
    """An iterator of (bus id, phase code, |V|, V_R, V_I), Python numbers, over the nodes of ``imap``'s
    slot table in row-major order, so by bus id and then phase; ``math.degrees(math.atan2(V_I, V_R))``
    is a node's angle.  hypot and atan2 are abs() and cmath.phase() of its voltage, bit for bit."""
    rows, codes = np.nonzero(imap.slots >= 0)
    vr = imap.slots[rows, codes]
    re, im = x[vr], x[vr + 1]
    return zip(imap.bus_ids[rows].tolist(), codes.tolist(), np.hypot(re, im).tolist(), re.tolist(), im.tolist())


def solution_dict(network: Network, imap: IndexMap, x: np.ndarray) -> dict:
    """Per-node voltage magnitude and angle per phase, JSON-ready: the nodes of ``_nodes``."""
    return {"schema": 1, "base_mva": network.base_mva, "nodes": [
        {"bus": bus, "label": network.label(bus), "phase": "pabc"[code], "vm": vm,
         "va_deg": math.degrees(math.atan2(i, r))} for bus, code, vm, r, i in _nodes(imap, x)]}


def solution_json(network: Network, imap: IndexMap, x: np.ndarray) -> str:
    """``json.dumps(solution_dict(network, imap, x), indent=2)``, formatted directly from the node
    arrays (the standard library's indenting encoder is pure Python), each bus's label once."""
    text, degrees, atan2 = json.encoder.encode_basestring_ascii, math.degrees, math.atan2
    labels = {bus: text(network.label(bus)) for bus in imap.bus_ids.tolist()}
    node = ('    {\n      "bus": %d,\n      "label": %s,\n      "phase": "%s",\n      "vm": %r,\n'
            '      "va_deg": %r\n    }')
    nodes = ",\n".join([node % (bus, labels[bus], "pabc"[code], vm, degrees(atan2(i, r)))
                        for bus, code, vm, r, i in _nodes(imap, x)])
    nodes = f"[\n{nodes}\n  ]" if nodes else "[]"
    return f'{{\n  "schema": 1,\n  "base_mva": {json.dumps(network.base_mva)},\n  "nodes": {nodes}\n}}'


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
