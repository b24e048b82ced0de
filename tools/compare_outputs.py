#!/usr/bin/env python3
"""Snapshot tandem's outputs on the bundled cases and compare two snapshots.

A refactor that claims "same behaviour" can be checked by taking one
snapshot with the old sources and one with the new, then comparing:

    PYTHONPATH=<old checkout>/src python tools/compare_outputs.py snapshot old/
    PYTHONPATH=src python tools/compare_outputs.py snapshot new/
    python tools/compare_outputs.py compare old/ new/

A change that moves answers on purpose reports, for each snapshot, how
far every GSN answer lies from a tight direct solve:

    python tools/compare_outputs.py distance old/
    python tools/compare_outputs.py distance new/

``snapshot DIR`` runs, in-process and with the ``tandem`` found on the
path (its own bundled data):

- ``tandem solve`` on case9 with ``case9_feeder1``, ``case9_feeder4`` and
  ``case9_stressed``, and on case27 with one ``feeder_medium`` on each of
  its 24 PQ buses, under ``direct`` and ``gsn`` (written under ``gsn-w1``,
  the name older snapshots use), and under ``direct --tol 1e-10``
  (``direct-tight``, the reference of ``distance``);
- ``tandem solve`` on case27 with ``feeder_small``, ``feeder_medium`` and
  ``feeder_stressed`` in turn on its PQ buses, some entries with a
  ``load_scale`` or ``der_scale`` (``MIXED_ENTRIES``), under ``direct``,
  ``gsn`` and ``direct --tol 1e-10``: repeated feeders at several scales;
- ``tandem solve --homotopy on`` (continuation from lambda = 1 down to 0)
  on ``case_radial7`` and on case9 with ``case9_stressed``;
- the ``tandem pvcurve`` sweep of case9 with ``case9_stressed``
  (load factor 1.0-3.0 step 0.1, DER scale 0 and 1) under ``direct`` and
  ``gsn`` (``pvcurve-stressed`` and ``pvcurve-stressed-gsn``), and the
  direct sweep from load factor 0.0 with ``--contingency branch:1``
  (``pvcurve-zero-contingency``).

``compare A B`` prints one line per file: ``identical`` when the bytes
match, otherwise the largest voltage difference |dV| in pu for
``solution.json`` (complex per-node voltages) and ``pvcurve.csv`` (POI
magnitudes).  A ``report.json`` or ``epochs.jsonl`` that differs reads
``same shape`` when the two hold the same keys, list lengths, counts,
strings and flags (so the same iterations, epochs, lambda trajectory and
reasons) and every float agrees within 1e-9 relative, or 1e-9 absolute
below 1 (a converged residual of 1e-9 is roundoff of the LU, so its
relative change can reach 1e-6): the same run with its last bits moved.
Otherwise the line names the first differing key.  A ``summary.txt``
that differs reads ``same shape`` when its text outside the numbers is
the same, its integers are equal and its other numbers agree within
the same bound (a residual printed as 6.149e-13 against 6.140e-13);
otherwise the line names the first differing line.
Any other file that differs reads ``differs``.  It exits 1 when a file
is missing on one side or a voltage differs by more than 1e-9 pu.
``distance SNAP`` prints, for every GSN ``solution.json`` in a snapshot,
the largest |dV| in pu from the ``direct-tight`` solution of its case,
to 7 significant digits.
Uses only the standard library and ``tandem``.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

V_BOUND = 1e-9  # pu; same-behaviour bound on every bundled case's voltages
FLOAT_BOUND = 1e-9  # relative (absolute below 1) bound on the floats of a same-shape report

CASE9_MAPS = ("case9_feeder1", "case9_feeder4", "case9_stressed")
SOLVERS = {
    "direct": ["--solver", "direct"],
    "gsn-w1": ["--solver", "gsn"],  # named for the one-worker runs of older snapshots
    "direct-tight": ["--solver", "direct", "--tol", "1e-10"],
}
# (feeder, extra coupling keys), cycled over case27's PQ buses; all converge
MIXED_ENTRIES = (
    ("feeder_small", {}), ("feeder_medium", {"load_scale": 0.5}), ("feeder_stressed", {"der_scale": 0.0}),
    ("feeder_small", {"load_scale": 1.2, "der_scale": 2.0}), ("feeder_medium", {}),
    ("feeder_stressed", {"load_scale": 0.8}),
)
HOMOTOPY_RUNS = ("case_radial7", "case9+case9_stressed")  # solved again under --homotopy on
PVCURVE_ARGS = ["--lf-start", "1.0", "--lf-stop", "3.0", "--lf-step", "0.1", "--der-scale", "0,1"]
# output directory: extra pvcurve arguments, each sweep of case9 + case9_stressed
PVCURVE_RUNS = {
    "pvcurve-stressed": PVCURVE_ARGS,
    "pvcurve-stressed-gsn": [*PVCURVE_ARGS, "--solver", "gsn"],
    "pvcurve-zero-contingency": ["--lf-start", "0.0", "--lf-stop", "3.0", "--lf-step", "0.1", "--der-scale", "0,1",
                                 "--contingency", "branch:1"],
}


def _write_case27_map(data: Path, path: Path, entries) -> None:
    """Coupling map with the (feeder, extra keys) ``entries``, cycled, on the PQ buses of case27,
    next to copies of the feeders."""
    from tandem.ingest import parse_transmission
    from tandem.netmodel import BusKind

    net = parse_transmission(data / "case27.m")
    buses = sorted(b.id for b in net.buses if b.kind is BusKind.PQ)
    cycled = zip(buses, itertools.cycle(entries))
    couplings = [{"feeder": f"{name}.json", "bus": b, **extra} for b, (name, extra) in cycled]
    path.parent.mkdir(parents=True, exist_ok=True)
    for name in {name for name, _ in entries}:
        (path.parent / f"{name}.json").write_bytes((data / f"{name}.json").read_bytes())
    path.write_text(json.dumps({"schema": 1, "couplings": couplings}, indent=1) + "\n")


def snapshot(out: Path) -> int:
    import tandem
    from tandem.cli import main

    out = out.resolve()
    data = Path(tandem.__file__).resolve().parent / "data"
    k24_map, mixed_map = out / "inputs" / "case27_k24.json", out / "inputs" / "case27_mixed.json"
    _write_case27_map(data, k24_map, [("feeder_medium", {})])
    _write_case27_map(data, mixed_map, MIXED_ENTRIES)

    runs = {f"case9+{m}": ["--case", "case9.m", "--coupling", f"{m}.json"] for m in CASE9_MAPS}
    runs["case27+k24"] = ["--case", "case27.m", "--coupling", str(k24_map)]

    failed = 0
    cwd = os.getcwd()
    # relative case names keep the checkout's path out of summary.txt
    os.chdir(data)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for name, case_args in runs.items():
                for solver, solver_args in SOLVERS.items():
                    rc = main(["solve", *case_args, *solver_args, "--out", str(out / name / solver)])
                    failed += rc != 0
            for solver in ("direct", "gsn-w1", "direct-tight"):
                rc = main(["solve", "--case", "case27.m", "--coupling", str(mixed_map), *SOLVERS[solver],
                           "--out", str(out / "case27+mixed" / solver)])
                failed += rc != 0
            for name in HOMOTOPY_RUNS:
                case_args = runs.get(name, ["--case", f"{name}.m"])
                rc = main(["solve", *case_args, "--homotopy", "on", "--out", str(out / name / "direct-homotopy")])
                failed += rc != 0
            for name, pv_args in PVCURVE_RUNS.items():
                rc = main(["pvcurve", *runs["case9+case9_stressed"], *pv_args, "--out", str(out / name)])
                failed += rc != 0
    finally:
        os.chdir(cwd)
    files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"snapshot: {files} files under {out}, {failed} run(s) with a nonzero exit code")
    return 1 if failed else 0


def _solution_dv(a: Path, b: Path) -> float:
    def volts(path: Path) -> dict:
        nodes = json.loads(path.read_text())["nodes"]
        return {(n["bus"], n["phase"]): cmath.rect(n["vm"], math.radians(n["va_deg"])) for n in nodes}

    va, vb = volts(a), volts(b)
    if va.keys() != vb.keys():
        return math.inf
    return max((abs(va[k] - vb[k]) for k in va), default=0.0)


def _pvcurve_dv(a: Path, b: Path) -> float:
    ra = list(csv.reader(a.read_text().splitlines()))
    rb = list(csv.reader(b.read_text().splitlines()))
    if len(ra) != len(rb) or ra[:1] != rb[:1]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if len(row_a) != len(row_b) or row_a[0] != row_b[0]:
            return math.inf
        for ca, cb in zip(row_a[1:], row_b[1:]):
            if (ca == "") != (cb == ""):
                return math.inf
            if ca:
                worst = max(worst, abs(float(ca) - float(cb)))
    return worst


VOLTAGE_FILES = {"solution.json": _solution_dv, "pvcurve.csv": _pvcurve_dv}


def _first_difference(a, b, path: str = "") -> str | None:
    """Path of the first place two JSON values differ in shape, or a float by more than FLOAT_BOUND."""
    if isinstance(a, float) and isinstance(b, float):
        close = math.isclose(a, b, rel_tol=FLOAT_BOUND, abs_tol=FLOAT_BOUND)
        return None if close or (math.isnan(a) and math.isnan(b)) else path
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return next((f"{path}.{k}" for k in (*a, *b) if k not in a or k not in b), f"{path} key order")
        return next((d for k in a if (d := _first_difference(a[k], b[k], f"{path}.{k}"))), None)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} length {len(a)} != {len(b)}"
        return next((d for i, (x, y) in enumerate(zip(a, b)) if (d := _first_difference(x, y, f"{path}[{i}]"))), None)
    return None if type(a) is type(b) and a == b else path


def _report_shape(a: Path, b: Path) -> str:
    if a.suffix == ".jsonl":
        va = [json.loads(line) for line in a.read_text().splitlines()]
        vb = [json.loads(line) for line in b.read_text().splitlines()]
    else:
        va, vb = json.loads(a.read_text()), json.loads(b.read_text())
    where = _first_difference(va, vb)
    return "same shape" if where is None else f"differs at {where.lstrip('.') or 'top level'}"


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _same_number(a: str, b: str) -> bool:
    if a.lstrip("+-").isdigit() and b.lstrip("+-").isdigit():
        return int(a) == int(b)
    return math.isclose(float(a), float(b), rel_tol=FLOAT_BOUND, abs_tol=FLOAT_BOUND)


def _text_shape(a: Path, b: Path) -> str:
    """Line by line: the same text between the numbers, and numbers that ``_same_number`` accepts."""
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    if len(la) != len(lb):
        return f"differs: {len(la)} lines != {len(lb)}"
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        nx, ny = _NUMBER.findall(x), _NUMBER.findall(y)
        same = _NUMBER.split(x) == _NUMBER.split(y) and all(map(_same_number, nx, ny))
        if not same:
            return f"differs at line {i}"
    return "same shape"


SHAPE_FILES = {"report.json": _report_shape, "epochs.jsonl": _report_shape, "summary.txt": _text_shape}


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    bad = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel}: only in {a if rel in files_a else b}")
            bad += 1
            continue
        fa, fb = a / rel, b / rel
        if fa.read_bytes() == fb.read_bytes():
            print(f"{rel}: identical")
            continue
        if rel.name in SHAPE_FILES:
            print(f"{rel}: {SHAPE_FILES[rel.name](fa, fb)}")
            continue
        dv_of = VOLTAGE_FILES.get(rel.name)
        if dv_of is None:
            print(f"{rel}: differs")
            continue
        dv = dv_of(fa, fb)
        over = dv > V_BOUND
        bad += over
        print(f"{rel}: max |dV| {dv:.3e} pu{'  > bound' if over else ''}")
    print(f"compare: {len(files_a | files_b)} files, {bad} over the {V_BOUND:g} pu bound or missing")
    return 1 if bad else 0


def distance(snap: Path) -> int:
    tight = sorted(snap.glob("*/direct-tight/solution.json"))
    for ref in tight:
        for path in sorted(ref.parent.parent.glob("gsn-*/solution.json")):
            print(f"{path.relative_to(snap)}: max |dV| {_solution_dv(path, ref):.6e} pu from direct-tight")
    if not tight:
        print(f"distance: no direct-tight solution under {snap}", file=sys.stderr)
    return 0 if tight else 1


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "snapshot":
        return snapshot(Path(argv[1]))
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and argv[0] == "distance":
        return distance(Path(argv[1]))
    print("usage: compare_outputs.py snapshot DIR | compare A B | distance SNAP", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
