"""Steady-state power flow for combined transmission and distribution networks.

Positive-sequence transmission cases and three-phase feeders are
modeled as one equivalent circuit, coupled through symmetrical-component
ports, and solved either directly (Newton-Raphson with voltage limiting
and admittance-scaling continuation) or by a Gauss-Seidel-Newton
exchange over the torn bordered-block-diagonal system.  An epoch's
feeders read one boundary snapshot and are independent, so they could
run in parallel; this package solves them together, as one Newton over
the block-diagonal feeder side.
"""

from .netmodel import (
    Bus,
    BusKind,
    Connection,
    CouplingPort,
    DerInjection,
    ElementKind,
    Generator,
    IndexMap,
    Load,
    Network,
    NetworkError,
    SeriesElement,
    Shunt,
    Violation,
    build_index_map,
    initial_state,
    validate,
)
from .ingest import (
    CaseFormatError,
    CouplingEntry,
    CouplingMap,
    FeederDoc,
    build_combined,
    feeder_network,
    load_combined_case,
    parse_coupling_map,
    parse_feeder,
    parse_feeder_doc,
    parse_transmission,
)
from .newton import (
    SolveFailure,
    SolveReport,
    SolverOptions,
    UnsolvableCaseError,
    solve_direct,
)
from .gsn import (
    GsnError,
    GsnOptions,
    GsnReport,
    Partition,
    solve_gsn,
    tear,
)

__all__ = [
    "Bus",
    "BusKind",
    "CaseFormatError",
    "Connection",
    "CouplingEntry",
    "CouplingMap",
    "CouplingPort",
    "DerInjection",
    "ElementKind",
    "FeederDoc",
    "Generator",
    "GsnError",
    "GsnOptions",
    "GsnReport",
    "IndexMap",
    "Load",
    "Network",
    "NetworkError",
    "Partition",
    "SeriesElement",
    "Shunt",
    "SolveFailure",
    "SolveReport",
    "SolverOptions",
    "UnsolvableCaseError",
    "Violation",
    "build_combined",
    "build_index_map",
    "feeder_network",
    "initial_state",
    "load_combined_case",
    "parse_coupling_map",
    "parse_feeder",
    "parse_feeder_doc",
    "parse_transmission",
    "solve_direct",
    "solve_gsn",
    "tear",
    "validate",
]

__version__ = "0.1.0"
