"""Command-line front end: solve, pvcurve, generate, bench.

Exit codes: 0 success, 2 input error, 3 non-convergence, 4 internal
error.  Solver failures leave a machine-readable ``error.json`` in the
output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import pickle
import shutil
import signal
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from .gsn import GsnError, GsnOptions, solve_gsn
from .ingest import (
    CaseFormatError,
    CouplingEntry,
    CouplingMap,
    parse_coupling_map,
    parse_feeder_doc,
    parse_transmission,
    build_combined,
    read_text,
)
from .netmodel import BusKind, NetworkError, build_index_map, validate
from .newton import SolveFailure, SolverOptions, solve_direct
from .results import poi_extremes, poi_voltages, solution_dict, solution_json
from .stamping import CompiledCircuit

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4

PVCURVE_HEADER = "lf"
PVCURVE_MAX_POINTS = 10_000  # each load factor costs one Newton solve per scenario
BENCH_HEADER = "k,unknowns,wall_time_s,epochs,mean_inner_iterations"


class InputError(ValueError):
    pass


def _solver_options(args) -> SolverOptions:
    """The --options file's overrides, then the flags', checked once by SolverOptions."""
    values = {}
    if getattr(args, "options", None):
        try:
            values = json.loads(read_text(args.options))
        except CaseFormatError as exc:
            raise InputError(f"solver options: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError
            raise InputError(f"solver options file {args.options} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise InputError(f"solver options file {args.options} must hold a JSON object")
    fields = {f.name for f in dataclasses.fields(SolverOptions)}
    unknown = set(values) - fields
    if unknown:
        raise InputError(f"unknown solver option(s) in {args.options}: {sorted(unknown)}")
    flags = {"tol": args.tol, "dv_max": args.dvmax, "gamma": args.gamma, "homotopy": args.homotopy}
    values.update({k: v for k, v in flags.items() if v is not None})
    try:
        return SolverOptions(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad solver option: {exc}") from exc


def _number_list(text: str, kind, flag: str) -> list:
    """A comma list of numbers from a command-line flag."""
    try:
        values = [kind(item) for item in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} must be a comma list of numbers, not {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise InputError(f"{flag} must be a comma list of finite numbers, not {text!r}")
    return values


def _gsn_options(args, out_dir: Path | None) -> GsnOptions:
    values = {}
    if args.outer_tol is not None:
        values["outer_tol"] = args.outer_tol
    if out_dir is not None:
        values["epoch_log_path"] = out_dir / "epochs.jsonl"
    try:
        return GsnOptions(**values)
    except ValueError as exc:
        raise InputError(f"bad gsn option: {exc}") from exc


def _load_network(args):
    tnet = parse_transmission(args.case)
    if args.coupling:
        cmap = parse_coupling_map(args.coupling)
        docs = {}
        for entry in cmap.entries:
            if entry.feeder not in docs:
                docs[entry.feeder] = parse_feeder_doc(cmap.feeder_path(entry))
        net = build_combined(tnet, cmap, docs, keep_bus_load=args.keep_bus_load)
    else:
        net = tnet
    violations = validate(net)
    if violations:
        raise InputError("invalid network:\n" + "\n".join(f"  {v}" for v in violations))
    return net


def _solve(net, args, opts: SolverOptions, gsn: GsnOptions):
    """(state, report dict, index map): the solver runs on the map the outputs are written with."""
    imap = build_index_map(net)
    if args.solver == "gsn":
        x, rep = solve_gsn(net, opts, gsn, imap=imap)
    else:
        x, rep = solve_direct(net, opts, circuit=CompiledCircuit(net, imap))
    return x, rep.to_dict(), imap


def _write_error(out_dir: Path | None, code: int, message: str) -> None:
    record = {"schema": 1, "error": message, "exit_code": code}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"error: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------


def cmd_solve(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    opts, gsn = _solver_options(args), _gsn_options(args, out_dir)
    net = _load_network(args)
    x, rep_dict, imap = _solve(net, args, opts, gsn)

    sol = solution_dict(net, imap, x)
    (out_dir / "solution.json").write_text(solution_json(sol) + "\n")
    (out_dir / "report.json").write_text(json.dumps(rep_dict, indent=2) + "\n")

    lines = ["tandem solve summary", f"case: {args.case}", f"solver: {args.solver}"]
    lines.append("converged: yes")
    if "final_residual" in rep_dict:
        lines.append(f"final residual: {rep_dict['final_residual']:.3e}")
    if "epochs" in rep_dict:
        lines.append(f"epochs: {rep_dict['epochs']}")
    if "iterations" in rep_dict:
        lines.append(f"iterations: {rep_dict['iterations']}")
    ext = poi_extremes(net, imap, x)
    if ext is None:
        lines.append("ports: 0 (POI-free network)")
        mags = [(node["vm"], node["bus"], node["phase"]) for node in sol["nodes"]]
        hi, lo = max(mags), min(mags)
        lines.append(f"max voltage: bus {hi[1]} phase {hi[2]}  {hi[0]:.4f}")
        lines.append(f"min voltage: bus {lo[1]} phase {lo[2]}  {lo[0]:.4f}")
    else:
        lines.append(f"ports: {len(net.ports)}")
        lines.append("POI substation voltages:")
        lines.append("              node      magnitude")
        lines.append(f"max voltage   {ext['max']['node']:<8}  {ext['max']['magnitude']:.4f}")
        lines.append(f"min voltage   {ext['min']['node']:<8}  {ext['min']['magnitude']:.4f}")
    summary = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(summary)
    print(summary, end="")
    return EXIT_OK


# ----------------------------------------------------------------------
# pvcurve
# ----------------------------------------------------------------------


def _lf_values(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError("loading-factor range must be finite numbers")
    if step <= 0 or stop < start:
        raise InputError("loading-factor range must satisfy start <= stop, step > 0")
    if (stop + 1e-9 - start) / step >= PVCURVE_MAX_POINTS:
        raise InputError(f"loading-factor range has more than {PVCURVE_MAX_POINTS} points")
    out, v, k = [], start, 0
    while v <= stop + 1e-9:
        out.append(round(v, 9))
        k += 1
        v = start + k * step
    return out


def _parse_contingency(spec: str | None, net):
    if not spec:
        return None
    drop_elements, drop_gens = [], []
    targets = {"branch": drop_elements, "gen": drop_gens}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, val = item.partition(":")
        try:
            targets[kind].append(int(val))
        except (KeyError, ValueError):
            raise InputError(f"bad contingency item {item!r}; use branch:<id> or gen:<bus>") from None
    known_el = {e.id for e in net.elements}
    for eid in drop_elements:
        if eid not in known_el:
            raise InputError(f"contingency branch {eid} not in the case")
    known_gen = {g.bus for g in net.generators}
    for b in drop_gens:
        if b not in known_gen:
            raise InputError(f"contingency generator bus {b} not in the case")
    return drop_elements, drop_gens


def _svg_plot(path: Path, series: dict[str, list[tuple[float, float]]], x_label: str, y_label: str) -> None:
    """Minimal polyline plot; one line per named series."""
    w, h, margin = 640, 420, 50
    pts = [p for s in series.values() for p in s]
    if not pts:
        path.write_text('<svg xmlns="http://www.w3.org/2000/svg"/>\n')
        return
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (w - 2 * margin)

    def sy(y):
        return h - margin - (y - y0) / (y1 - y0) * (h - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{margin}" y1="{h-margin}" x2="{w-margin}" y2="{h-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h-margin}" stroke="black"/>',
        f'<text x="{w//2}" y="{h-12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="14" y="{h//2}" font-size="12" transform="rotate(-90 14 {h//2})" text-anchor="middle">{y_label}</text>',
        f'<text x="{margin}" y="{h-margin+16}" font-size="10" text-anchor="middle">{x0:g}</text>',
        f'<text x="{w-margin}" y="{h-margin+16}" font-size="10" text-anchor="middle">{x1:g}</text>',
        f'<text x="{margin-6}" y="{h-margin}" font-size="10" text-anchor="end">{y0:g}</text>',
        f'<text x="{margin-6}" y="{margin+4}" font-size="10" text-anchor="end">{y1:g}</text>',
    ]
    for i, (name, data) in enumerate(series.items()):
        if not data:
            continue
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in data)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{w-margin+4}" y="{margin + 14*i + 10}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _processes(tasks: int) -> int:
    """One per CPU in the affinity set, up to ``tasks``; 1 where fork is missing or other threads run."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


def _fork_map(fn, items: list) -> list:
    """``[fn(item) for item in items]``, the items dealt round-robin over ``_processes`` processes.

    The caller runs its own share, item 0 first.  Each forked child pickles its share's outcomes, up
    to its first exception and that exception's traceback text, down a pipe and leaves by
    ``os._exit``.  The lowest-numbered item's exception is raised, as by the loop, a child's with
    its traceback text as its cause; a child that leaves no outcome is an internal error.  Every
    child is killed and reaped before the call returns or raises.  On one process no child is forked.
    """
    procs = _processes(len(items))

    def share(first: int) -> dict:
        done = {}  # item number: (True, result, None) or (False, exception, a child's traceback text)
        for i in range(first, len(items), procs):
            try:
                done[i] = True, fn(items[i]), None
            except Exception as exc:
                done[i] = False, exc, traceback.format_exc() if first else None
                break
        return done

    children = []
    try:
        for first in range(1, procs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(w, "wb") as pipe:
                        pipe.write(pickle.dumps(share(first)))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, first, open(r, "rb")))
        done = share(0)
        for pid, first, pipe in children if done[0][0] else ():  # an exception at item 0 wins over any child's
            data = pipe.read()
            done.update(pickle.loads(data) if data else
                        {first: (False, RuntimeError(f"pvcurve worker {pid} exited without a result"), None)})
    finally:
        for pid, _, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i in range(len(items)):
        ok, result, trace = done[i]  # every item before a child's first exception has an outcome
        if not ok:
            if trace:  # pickling dropped the child's frames: chain them, as text, for a logged stack
                raise result from RuntimeError(f"item {i}, in a forked process:\n{trace}")
            raise result
        results.append(result)
    return results


def cmd_pvcurve(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    opts, gsn = _solver_options(args), _gsn_options(args, None)
    net = _load_network(args)
    if not net.ports:
        raise InputError("pvcurve needs at least one coupling port")
    lfs = _lf_values(args.lf_start, args.lf_stop, args.lf_step)
    der_scales = _number_list(args.der_scale, float, "--der-scale") if args.der_scale else [1.0]
    contingency = _parse_contingency(args.contingency, net)
    poi_bus = sorted(net.ports, key=lambda p: p.id)[0].transmission_bus

    scenarios: list[tuple[str, float, bool]] = []
    for s in der_scales:
        scenarios.append((f"v_poi_der{s:g}", s, False))
    if contingency:
        for s in der_scales:
            scenarios.append((f"v_poi_cont_der{s:g}", s, True))

    def sweep(scenario) -> dict[float, float]:
        # one network, index map and direct circuit per scenario; a load factor is a value set on the circuit
        _, der, cont = scenario
        base = net.with_der_scale(der)
        if cont:
            base = base.without_elements(contingency[0]).without_generators(contingency[1])
        imap = build_index_map(base)
        circuit = None if args.solver == "gsn" else CompiledCircuit(base, imap)
        column = {}
        for lf in lfs:
            try:
                if circuit is None:
                    x, _ = solve_gsn(base.with_loading_factor(lf), opts, gsn, imap=imap)
                else:
                    circuit.set_load_factor(lf)
                    x, _ = solve_direct(base, opts, circuit=circuit)
            except (SolveFailure, GsnError):
                break  # past the nose; the scenario stops here
            column[lf] = dict(poi_voltages(base, imap, x))[poi_bus]
        return column

    columns = {name: column for (name, _, _), column in zip(scenarios, _fork_map(sweep, scenarios))}
    header = PVCURVE_HEADER + "".join(f",{name}" for name, _, _ in scenarios)
    rows = [header]
    for lf in lfs:
        if not any(lf in columns[name] for name, _, _ in scenarios):
            continue
        cells = [f"{lf:g}"]
        for name, _, _ in scenarios:
            cells.append(f"{columns[name][lf]:.6f}" if lf in columns[name] else "")
        rows.append(",".join(cells))
    (out_dir / "pvcurve.csv").write_text("\n".join(rows) + "\n")

    series = {
        name: sorted((lf, v) for lf, v in columns[name].items()) for name, _, _ in scenarios
    }
    _svg_plot(out_dir / "pvcurve.svg", series, "loading factor", "|V| at POI (pu)")
    print(f"pvcurve: wrote {out_dir/'pvcurve.csv'} ({len(rows)-1} rows)")
    return EXIT_OK


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_generate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = _load_network(args)  # also validates the coupling map
    if not args.coupling:
        raise InputError("generate needs a coupling map")
    case = Path(args.case)
    cmap = parse_coupling_map(Path(args.coupling))

    copied = {}
    for src in [case, Path(args.coupling)] + [cmap.feeder_path(e) for e in cmap.entries]:
        dst = out_dir / src.name
        if src.resolve() != dst.resolve():
            shutil.copy(src, dst)
        copied[src.name] = _sha256(dst)

    manifest = {
        "schema": 1,
        "case": case.name,
        "coupling_map": Path(args.coupling).name,
        "ports": len(net.ports),
        "buses": len(net.buses),
        "unknowns": build_index_map(net).n,
        "feeders": sorted({e.feeder for e in cmap.entries}),
        "couplings": [{"feeder": e.feeder, "bus": e.bus} for e in cmap.entries],
        "checksums": copied,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"generate: bundle at {out_dir} with {len(net.ports)} port(s)")
    return EXIT_OK


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------


def cmd_bench(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = _number_list(args.counts, int, "--counts")
    if not counts or any(k <= 0 for k in counts):
        raise InputError("counts must be positive integers")
    opts, gsn = _solver_options(args), _gsn_options(args, None)

    tnet, feeder = parse_transmission(args.case), Path(args.feeder)
    doc = parse_feeder_doc(feeder)

    pq_buses = sorted(b.id for b in tnet.buses if b.kind is BusKind.PQ)
    if max(counts) > len(pq_buses):
        raise InputError(f"case has only {len(pq_buses)} PQ buses; cannot attach {max(counts)} feeders")

    rows = [BENCH_HEADER]
    for k in counts:
        entries = [CouplingEntry(feeder=feeder.name, bus=pq_buses[i]) for i in range(k)]
        cmap = CouplingMap(entries=entries, base_dir=feeder.parent)
        net = build_combined(tnet, cmap, {feeder.name: doc})
        imap = build_index_map(net)
        n = imap.n
        t0 = time.perf_counter()
        try:
            _, rep = solve_gsn(net, opts, gsn, imap=imap)
            wall = time.perf_counter() - t0
            mean_inner = float(
                np.mean([sum(d.values()) / max(1, len(d)) for d in rep.inner_iterations])
            )
            rows.append(f"{k},{n},{wall:.4f},{rep.epochs},{mean_inner:.2f}")
        except (SolveFailure, GsnError) as exc:
            wall = time.perf_counter() - t0
            rows.append(f"{k},{n},{wall:.4f},,")
            print(f"bench: k={k} failed: {exc}", file=sys.stderr)
        print(rows[-1], file=sys.stderr)
    (out_dir / "bench.csv").write_text("\n".join(rows) + "\n")
    print(f"bench: wrote {out_dir/'bench.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, coupling: bool = True):
    p.add_argument("--case", required=True, help="MATPOWER-style transmission case file")
    if coupling:
        p.add_argument("--coupling", help="coupling map JSON (feeder files resolved relative to it)")
    p.add_argument("--solver", choices=("direct", "gsn"), default="direct")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for old scripts and ignored: gsn solves its feeders in one thread")
    p.add_argument("--tol", type=float, default=None, help="inner mismatch tolerance (pu current)")
    p.add_argument("--outer-tol", type=float, default=None, help="gsn global-mismatch tolerance")
    p.add_argument("--dvmax", type=float, default=None, help="per-iteration voltage step cap (pu)")
    p.add_argument("--gamma", type=float, default=None, help="continuation admittance scale factor")
    p.add_argument("--homotopy", choices=("auto", "on", "off"), default=None)
    p.add_argument("--keep-bus-load", action="store_true",
                   help="keep the transmission bus load at coupled buses instead of replacing it")
    p.add_argument("--options", help="JSON file with solver option overrides")
    p.add_argument("--out", default=".", help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tandem",
                                 description="Combined transmission and distribution power flow")
    ap.add_argument("-v", "--verbose", action="store_true", help="show progress (INFO) logs, such as GSN epochs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one case and write solution/report/summary")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pvcurve", help="sweep the loading factor and record POI voltage")
    _add_common(p)
    p.add_argument("--lf-start", type=float, default=1.0)
    p.add_argument("--lf-stop", type=float, default=2.0)
    p.add_argument("--lf-step", type=float, default=0.05)
    p.add_argument("--der-scale", default=None, help="comma list of DER scaling factors (default 1.0)")
    p.add_argument("--contingency", default=None,
                   help="comma list of branch:<id> / gen:<bus> to remove in a contingency scenario")
    p.set_defaults(func=cmd_pvcurve)

    p = sub.add_parser("generate", help="bundle a combined case with a manifest")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="scalability sweep over replicated feeder counts")
    _add_common(p, coupling=False)
    p.add_argument("--feeder", required=True, help="feeder JSON replicated k times")
    p.add_argument("--counts", default="1,4,16", help="comma list of feeder counts")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    ap = build_parser()
    args = ap.parse_args(argv)
    # on the package logger: basicConfig leaves a root logger that already has handlers alone
    logging.getLogger("tandem").setLevel(logging.INFO if args.verbose else logging.WARNING)
    out_dir = Path(args.out) if getattr(args, "out", None) else None
    try:
        return args.func(args)
    except (InputError, CaseFormatError, NetworkError, FileNotFoundError) as exc:
        _write_error(out_dir, EXIT_INPUT, str(exc))
        return EXIT_INPUT
    except (SolveFailure, GsnError) as exc:
        _write_error(out_dir, EXIT_NO_CONVERGENCE, str(exc))
        return EXIT_NO_CONVERGENCE
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        _write_error(out_dir, EXIT_INTERNAL, f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
