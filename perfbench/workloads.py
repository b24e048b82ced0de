"""Workloads of the tandem benchmark: seeded inputs, the op, and its check.

The program is imported from this checkout's ``src/`` and driven through
its public entry point ``tandem.cli.main``.  The seed only shapes the
coupling-map file the benchmark writes; the program never sees it.

Each op is checked against references committed in ``perfbench/ref`` and
against the independent dense mismatch oracle of ``tests/oracles.py``,
which shares no code with the program's stamping path.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import ClassVar

from tracer import CORE_SPANS, GSN_SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "tandem" / "data"
ORACLES = ROOT / "tests" / "oracles.py"
REF = BENCH / "ref"
WORK = ROOT / ".perfbench_work"

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DIRECT_TOL = 1e-6  # SolverOptions().tol
GSN_TOL = 1e-3  # GsnOptions().outer_tol; GSN stops on boundary change, not mismatch
DIRECT_POI_TOL = 1e-5
GSN_POI_TOL = 1e-3
PV_TOL = 1e-6


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference or oracle."""


def load_program() -> SimpleNamespace:
    """Pin BLAS threads to 1, then import tandem from this checkout and the test oracle.

    Exits with an error when the checkout holds no tandem sources, so the
    benchmark never measures an installed copy from elsewhere.
    """
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    if not (SRC / "tandem" / "__init__.py").is_file() or not ORACLES.is_file():
        raise SystemExit(f"perfbench: no tandem sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import tandem
    import tandem.cli
    import tandem.ingest
    import tandem.netmodel

    if Path(tandem.__file__).resolve().parent != SRC / "tandem":
        raise SystemExit(f"perfbench: imported tandem from {tandem.__file__}, not from {SRC}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return SimpleNamespace(
        cli=tandem.cli,
        ingest=tandem.ingest,
        netmodel=tandem.netmodel,
        dense_mismatch=oracles.dense_mismatch,
        numpy=numpy,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    )


class Capture:
    """Keeps the state the CLI's solver returned last (wraps ``tandem.cli.solve_*``)."""

    def __init__(self, cli):
        self.last = None
        for name in ("solve_direct", "solve_gsn"):
            setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def capture(network, *args, **kwargs):
            x, report = fn(network, *args, **kwargs)
            self.last = (network, x, report)
            return x, report

        return capture


def setup(prog, case: Path, coupling: Path):
    """Input files to a validated Network plus IndexMap, reading each file once."""
    ingest, netmodel = prog.ingest, prog.netmodel
    tnet = ingest.parse_transmission(case)
    cmap = ingest.parse_coupling_map(coupling)
    docs = {}
    for entry in cmap.entries:
        if entry.feeder not in docs:
            docs[entry.feeder] = ingest.parse_feeder_doc(cmap.feeder_path(entry))
    net = ingest.build_combined(tnet, cmap, docs)
    violations = netmodel.validate(net)
    if violations:
        raise RuntimeError(f"bundled case failed validation: {violations[0]}")
    return net, netmodel.build_index_map(net)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")


@dataclass(frozen=True)
class SolveWorkload:
    """``tandem solve`` on case27 with one feeder_medium on every PQ bus."""

    name: str
    why: str
    solver: str
    workers: int = 1
    case: ClassVar[Path] = DATA / "case27.m"
    feeder: ClassVar[Path] = DATA / "feeder_medium.json"
    reference: ClassVar[Path] = REF / "poi_direct_k24.json"

    @property
    def expected_spans(self) -> frozenset:
        return CORE_SPANS | GSN_SPANS if self.solver == "gsn" else CORE_SPANS

    def make_inputs(self, prog, seed: int, work: Path) -> tuple[Path, Path]:
        """Coupling map with the PQ buses in a seed-chosen order."""
        tnet = prog.ingest.parse_transmission(self.case)
        buses = sorted(b.id for b in tnet.buses if b.kind is prog.netmodel.BusKind.PQ)
        random.Random(seed).shuffle(buses)
        coupling = work / "coupling.json"
        _write_json(coupling, {"schema": 1, "couplings": [{"feeder": str(self.feeder), "bus": b} for b in buses]})
        return self.case, coupling

    def argv(self, case: Path, coupling: Path, out: Path) -> list[str]:
        return ["solve", "--case", str(case), "--coupling", str(coupling), "--solver", self.solver,
                "--workers", str(self.workers), "--out", str(out)]

    def check(self, prog, rc: int, out: Path, captured) -> dict:
        """True mismatch by the dense oracle, then POI |V| from solution.json against the reference."""
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        if captured is None:
            raise CheckFailed("the CLI returned no solver state")
        ref = json.loads(self.reference.read_text())
        net, x, report = captured
        imap = prog.netmodel.build_index_map(net)
        # GsnReport does not carry generator modes; the direct reference's modes
        # (no reactive limit binds on this case) stand in for them
        gen_modes = getattr(report, "gen_modes", {int(k): v for k, v in ref["gen_modes"].items()})
        gen_q_fixed = getattr(report, "gen_q_fixed", {int(k): v for k, v in ref["gen_q_fixed"].items()})
        resid = prog.dense_mismatch(net, imap, x, gen_modes=gen_modes, gen_q_fixed=gen_q_fixed)
        mismatch = float(prog.numpy.abs(resid).max())
        tol = DIRECT_TOL if self.solver == "direct" else GSN_TOL
        if not mismatch <= tol:
            raise CheckFailed(f"true mismatch {mismatch:.3e} above {tol:.0e}")

        solution = json.loads((out / "solution.json").read_text())
        vm = {(n["bus"], n["phase"]): n["vm"] for n in solution["nodes"]}
        poi_tol = DIRECT_POI_TOL if self.solver == "direct" else GSN_POI_TOL
        worst = 0.0
        for bus, want in ref["poi_vm"].items():
            got = vm.get((int(bus), "p"))
            if got is None:
                raise CheckFailed(f"POI bus {bus} missing from solution.json")
            worst = max(worst, abs(got - want))
        if not worst <= poi_tol:
            raise CheckFailed(f"POI |V| off the reference by {worst:.3e} (bound {poi_tol:.0e})")
        if len(ref["poi_vm"]) != len(net.ports):
            raise CheckFailed(f"{len(net.ports)} ports, reference has {len(ref['poi_vm'])}")
        return {"mismatch": mismatch, "poi_err": worst}


@dataclass(frozen=True)
class PvcurveWorkload:
    """``tandem pvcurve`` on case9 + case9_stressed, lf 1.0-3.0 step 0.1, DER scale 0 and 1."""

    name: str
    why: str
    case: ClassVar[Path] = DATA / "case9.m"
    coupling: ClassVar[Path] = DATA / "case9_stressed.json"
    reference: ClassVar[Path] = REF / "pvcurve_stressed.csv"
    expected_spans: ClassVar[frozenset] = CORE_SPANS | {"netmodel.variant"}

    def make_inputs(self, prog, seed: int, work: Path) -> tuple[Path, Path]:
        """The bundled coupling map with entries in seed order (it has one entry)."""
        raw = json.loads(self.coupling.read_text())
        for entry in raw["couplings"]:
            entry["feeder"] = str(self.coupling.parent / entry["feeder"])
        random.Random(seed).shuffle(raw["couplings"])
        coupling = work / "coupling.json"
        _write_json(coupling, raw)
        return self.case, coupling

    def argv(self, case: Path, coupling: Path, out: Path) -> list[str]:
        return ["pvcurve", "--case", str(case), "--coupling", str(coupling), "--lf-start", "1.0",
                "--lf-stop", "3.0", "--lf-step", "0.1", "--der-scale", "0,1", "--out", str(out)]

    def check(self, prog, rc: int, out: Path, captured) -> dict:
        """Same rows and blank cells as the reference CSV, every value within 1e-6."""
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        got = list(csv.reader((out / "pvcurve.csv").read_text().splitlines()))
        want = list(csv.reader(self.reference.read_text().splitlines()))
        if len(got) != len(want) or got[0] != want[0]:
            raise CheckFailed(f"pvcurve.csv has {len(got)} rows / header {got[:1]}, want {len(want)} / {want[0]}")
        worst = 0.0
        for g, w in zip(got[1:], want[1:]):
            if len(g) != len(w) or g[0] != w[0] or [c == "" for c in g] != [c == "" for c in w]:
                raise CheckFailed(f"row {g} does not match reference row {w}")
            for gc, wc in zip(g[1:], w[1:]):
                if wc:
                    worst = max(worst, abs(float(gc) - float(wc)))
        if not worst <= PV_TOL:
            raise CheckFailed(f"pvcurve value off the reference by {worst:.3e}")
        return {"pv_err": worst}


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "direct-k24",
            "largest bundled system (2698 unknowns): stamping, assembly and LU of one direct solve; GSN code unused",
            solver="direct",
        ),
        SolveWorkload(
            "gsn-k24",
            "same problem via GSN with 1 worker: per-epoch re-stamping, network rebuilds and small assemblies",
            solver="gsn",
        ),
        SolveWorkload(
            "gsn-k24-w2",
            "same GSN solve on 2 threads: the only run of the ThreadPoolExecutor epoch path",
            solver="gsn",
            workers=2,
        ),
        PvcurveWorkload(
            "pvcurve-stressed",
            "33 small solves per sweep: per-call overhead, continuation, network variants, past-the-nose failures",
        ),
    )
}
