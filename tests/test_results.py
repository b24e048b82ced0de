"""Outputs gathered through the index map's slot table equal per-node references bit for bit."""

import cmath
import math

import numpy as np
import pytest

from netgen import case27_with_feeders, random_combined, random_state
from tandem.netmodel import build_index_map, flat_voltages, initial_state
from tandem.newton import solve_direct
from tandem.results import solution_dict


def solution_reference(net, imap, x) -> dict:
    """``solution_dict`` node by node: abs() and cmath.phase() of each voltage at its v_pair."""
    nodes = []
    for b in sorted(net.buses, key=lambda b: b.id):
        for ph in b.phases:
            vr, vi = imap.v_pair(b.id, ph)
            v = complex(x[vr], x[vi])
            nodes.append({"bus": b.id, "label": net.label(b.id), "phase": ph, "vm": abs(v),
                          "va_deg": math.degrees(cmath.phase(v))})
    return {"schema": 1, "base_mva": net.base_mva, "nodes": nodes}


def initial_reference(net, imap, flat: bool) -> np.ndarray:
    """``initial_state`` bus by bus."""
    x = np.zeros(imap.n)
    for b in net.buses:
        for ph, v in zip(b.phases, flat_voltages(b.phases) if flat else b.v0):
            vr, vi = imap.v_pair(b.id, ph)
            x[vr], x[vi] = v.real, v.imag
    return x


@pytest.fixture(scope="module")
def cases(data_dir):
    """(network, index map, state): case27 with 24 copies of ``feeder_medium`` at its direct
    solution (np.arctan2 and np.abs differ from the per-node reference there), and a random
    coupled network with two-phase buses at a random state."""
    k24 = case27_with_feeders(data_dir, [("feeder_medium", 1.0, 1.0)])
    rng = np.random.default_rng(4)
    net = random_combined(rng)
    assert net.ports and any(len(b.phases) == 2 for b in net.buses)
    imap = build_index_map(net)
    return {"k24": (k24, build_index_map(k24), solve_direct(k24)[0]),
            "two-phase": (net, imap, random_state(rng, net, imap))}


@pytest.mark.parametrize("case", ["k24", "two-phase"])
def test_solution_dict_matches_per_node_reference(cases, case):
    net, imap, x = cases[case]
    got, want = solution_dict(net, imap, x), solution_reference(net, imap, x)
    assert {**got, "nodes": None} == {**want, "nodes": None} and len(got["nodes"]) == len(want["nodes"])
    # repr tells -0.0 from 0.0 and prints every float to its last bit
    bad = [(g, w) for g, w in zip(got["nodes"], want["nodes"]) if repr(g) != repr(w)]
    assert not bad, f"{len(bad)} nodes differ, first {bad[0]}"


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("case", ["k24", "two-phase"])
def test_initial_state_matches_per_bus_reference(cases, case, flat):
    net, imap, _ = cases[case]
    assert initial_state(net, imap, flat).tobytes() == initial_reference(net, imap, flat).tobytes()
