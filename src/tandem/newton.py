"""Robust direct Newton-Raphson driver.

The driver solves J(x_k) x_{k+1} = b(x_k) with per-iteration voltage
step limiting, gives up attempts that diverge or cycle, escalates
into an admittance-scaling continuation when needed (series elements
scaled by 1 + lam*gamma, shunts relaxed toward open circuit, then lam
walked back to zero), and runs a reactive-limit outer loop over PV
generators.  Convergence is always measured on the true nonlinear
mismatch, never on the step size, so limiting cannot fake convergence.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any

import numpy as np

from .netmodel import (
    POSITIVE_SEQUENCE,
    IndexMap,
    Network,
    build_index_map,
    initial_state,
)
from .sparse import SingularSystemError, factor_solve
from .stamping import DEFAULT_GAMMA, CompiledCircuit, HomotopyState, VoltageCollapseError, stamp_system

log = logging.getLogger(__name__)

V_MIN, V_MAX = -2.0, 2.0  # pu box of every limited voltage component
LAMBDA_STEP0 = 0.1  # first escalation step of the continuation schedule
_Q_EPS = 1e-8
_MAX_CONTROL_ROUNDS = 20
_MAX_SWITCHES_PER_BUS = 5


@dataclass
class SolverOptions:
    """Knobs of the direct solver; defaults are per-unit quantities."""

    tol: float = 1e-6
    max_iter: int = 100
    dv_max: float = 0.1
    gamma: float = DEFAULT_GAMMA
    homotopy: str = "auto"  # auto | on | off
    shunt_relax: bool = True
    limiting: bool = True
    divergence_window: int = 3
    blowup_ratio: float = 1e3
    lambda_min_step: float = 1e-4
    flat_start: bool = False
    keep_homotopy_states: bool = False
    debug_matrix_dir: str | None = None  # dump each iteration's system (MatrixMarket)

    def __post_init__(self):
        def number(name: str):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
            return value

        for name in ("tol", "dv_max", "lambda_min_step"):
            if not 0 < number(name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= number("gamma") < math.inf:
            raise ValueError("gamma must be non-negative and finite")
        if not number("blowup_ratio") > 0:  # inf turns the blow-up test off
            raise ValueError("blowup_ratio must be positive")
        for name in ("max_iter", "divergence_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, not {value!r}")
        for name in ("shunt_relax", "limiting", "flat_start", "keep_homotopy_states"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, not {getattr(self, name)!r}")
        if self.homotopy not in ("auto", "on", "off"):
            raise ValueError(f"unknown homotopy mode {self.homotopy!r}")
        if not (self.debug_matrix_dir is None or isinstance(self.debug_matrix_dir, str)):
            raise ValueError(f"debug_matrix_dir must be a directory name, not {self.debug_matrix_dir!r}")


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0
    final_residual: float = float("nan")
    residual_history: list[float] = field(default_factory=list)
    lambda_trajectory: list[dict] = field(default_factory=list)
    q_switch_log: list[dict] = field(default_factory=list)
    error: str | None = None
    homotopy_states: dict[float, np.ndarray] = field(default_factory=dict)
    gen_modes: dict[int, str] = field(default_factory=dict)
    gen_q_fixed: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_history": self.residual_history,
            "lambda_trajectory": self.lambda_trajectory,
            "q_switch_log": self.q_switch_log,
            "error": self.error,
        }


class SolveFailure(RuntimeError):
    """``x`` is the last iterate of the last Newton attempt."""

    def __init__(self, message: str, report: SolveReport, x: np.ndarray | None = None):
        super().__init__(message)
        self.report = report
        self.x = x


class UnsolvableCaseError(SolveFailure):
    pass


# ----------------------------------------------------------------------
# Step limiting and divergence heuristics
# ----------------------------------------------------------------------


def voltage_index_mask(imap: IndexMap) -> np.ndarray:
    """True on nodal voltage components; auxiliary unknowns are never limited."""
    mask = np.zeros(imap.n, dtype=bool)
    vr = imap.slots[imap.slots >= 0]
    mask[vr] = mask[vr + 1] = True
    return mask


def apply_voltage_limit(x: np.ndarray, dx: np.ndarray, options: SolverOptions, vmask: np.ndarray) -> np.ndarray:
    """Clamp each voltage component's step to dv_max and the result to [V_MIN, V_MAX]."""
    out = x + dx
    if not options.limiting:
        return out
    xv, dxv = x[vmask], dx[vmask]
    lim = xv + np.sign(dxv) * np.minimum(np.abs(dxv), options.dv_max)
    out[vmask] = np.clip(lim, V_MIN, V_MAX)
    return out


def divergence_reason(history: list[float], window: int = 3, blowup_ratio: float = 1e3) -> str | None:
    """Why an attempt with this residual history should be given up, or None.

    "diverging": the residual rose over each of the last ``window`` steps,
    blew past ``blowup_ratio`` times the initial residual, or went
    non-finite.  "cycling": the last ``3 * window`` residuals all stayed
    above half the best one before them, as in a limiter cycle.
    """
    if not history:
        return None
    if not np.isfinite(history[-1]) or history[-1] > blowup_ratio * history[0]:
        return "diverging"
    if len(history) > window:
        tail = history[-(window + 1):]
        if all(tail[i + 1] > tail[i] for i in range(window)):
            return "diverging"
    w = 3 * window  # converging attempts on the bundled cases stall for up to 6
    if len(history) > w and min(history[-w:]) > 0.5 * min(history[:-w]):
        return "cycling"
    return None


# ----------------------------------------------------------------------
# Homotopy schedule
# ----------------------------------------------------------------------


class HomotopySchedule:
    """Escalate lam until some point converges, then relax it back to zero.

    Escalation raises lam by a doubling step (0.1, then 0.2, 0.4, ...)
    capped at 1.  Relaxation walks lam down bisection-style: each
    converged point halves lam for the next attempt (jumping straight
    to zero once lam is small), and a failure halves the decrement and
    retries from the last converged point.  A decrement below
    ``min_step`` with lam still positive means the case is unsolvable.
    """

    # below this lam the continuation terms are a small perturbation and
    # the original problem is attempted directly
    jump_to_zero = 5e-4

    def __init__(self, min_step: float = 1e-4):
        self.phase = "escalate"
        self.step = LAMBDA_STEP0
        self.min_step = min_step
        self.lam_converged: float | None = None
        self.exhausted = False

    def next_lambda(self, lam: float, converged: bool) -> float | None:
        """Next lam to attempt after the outcome at ``lam``; None when done."""
        if converged:
            self.phase = "relax"
            self.lam_converged = lam
            if lam == 0.0:
                return None
            self.step = lam if lam <= self.jump_to_zero else lam / 2.0
            return max(0.0, lam - self.step)
        if self.phase == "escalate":
            if lam >= 1.0:
                self.exhausted = True
                return None
            nxt = min(1.0, lam + self.step)
            self.step *= 2.0
            return nxt
        # relaxation failure: shrink the decrement, retry from the converged point
        self.step /= 2.0
        if self.step < self.min_step:
            self.exhausted = True
            return None
        return max(0.0, self.lam_converged - self.step)


# ----------------------------------------------------------------------
# Reactive-limit control
# ----------------------------------------------------------------------


def enforce_q_limits(
    circuit: CompiledCircuit,
    x: np.ndarray,
    modes: dict[int, str],
    switch_counts: dict[int, int],
) -> list[dict]:
    """PV buses of the circuit's generators violating a reactive bound become PQ
    at that bound; switched buses whose voltage recovers past the setpoint
    switch back.

    A bus that has switched more than five times is frozen at its limit.
    Returns the applied switches; an empty list ends the outer loop.
    """
    switches: list[dict] = []
    for g, qi in zip(circuit.gens, circuit.gq.tolist()):
        if switch_counts.get(g.bus, 0) > _MAX_SWITCHES_PER_BUS:
            continue
        mode = modes.get(g.bus, "pv")
        if mode == "pv":
            qg = x[qi]
            new = None
            if qg > g.q_max + _Q_EPS:
                new = "qmax"
            elif qg < g.q_min - _Q_EPS:
                new = "qmin"
            if new:
                switches.append({"bus": g.bus, "from": "pv", "to": new, "q": float(qg)})
        else:
            vm = abs(circuit.imap.voltage(x, g.bus, POSITIVE_SEQUENCE))
            back = (mode == "qmax" and vm > g.v_set + _Q_EPS) or (
                mode == "qmin" and vm < g.v_set - _Q_EPS
            )
            if back:
                switches.append({"bus": g.bus, "from": mode, "to": "pv", "v": float(vm)})
    for sw in switches:
        bus = sw["bus"]
        switch_counts[bus] = switch_counts.get(bus, 0) + 1
        if switch_counts[bus] > _MAX_SWITCHES_PER_BUS:
            log.warning("generator at bus %s oscillating; frozen at %s", bus, sw["to"])
        modes[bus] = sw["to"]
    return switches


# ----------------------------------------------------------------------
# NR core
# ----------------------------------------------------------------------


def _nr_attempt(circuit: CompiledCircuit, x0: np.ndarray, hs: HomotopyState | None, options: SolverOptions,
                modes: dict[int, str], vmask: np.ndarray, residual_log: list[float]):
    """One NR run at fixed continuation state.  Returns (x, converged, reason)."""
    x = x0.copy()
    linear = None
    history: list[float] = []
    for _ in range(options.max_iter):
        try:
            linear, nonlin = stamp_system(circuit, x, hs, modes, linear)
        except VoltageCollapseError as exc:
            residual_log.extend(history)
            return x, False, f"collapse: {exc}"
        system = circuit.plan.assemble([linear, nonlin])
        if options.debug_matrix_dir:
            from pathlib import Path

            from .sparse import dump_matrix_market

            out = Path(options.debug_matrix_dir)
            out.mkdir(parents=True, exist_ok=True)
            dump_matrix_market(system, out / f"system_{len(residual_log) + len(history):04d}.mtx")
        resid = system.matrix @ x - system.rhs
        rnorm = float(np.abs(resid).max(initial=0.0))
        history.append(rnorm)
        if rnorm <= options.tol:
            residual_log.extend(history)
            return x, True, None
        if reason := divergence_reason(history, options.divergence_window, options.blowup_ratio):
            residual_log.extend(history)
            return x, False, reason
        try:
            x_new = factor_solve(system)
        except SingularSystemError as exc:
            residual_log.extend(history)
            return x, False, f"singular: {exc}"
        x_next = apply_voltage_limit(x, x_new - x, options, vmask)
        if np.array_equal(x_next, x):
            # clamped against the voltage box with no movement left
            residual_log.extend(history)
            return x, False, "stalled"
        x = x_next
    residual_log.extend(history)
    return x, False, "max-iterations"


def _solve_with_continuation(circuit, x, options, modes, vmask, report):
    """NR plus the lam schedule; returns the converged state at lam = 0.

    Forced continuation begins from the trivially solvable end, lam = 1.
    Escalation restarts from the initial state ``x``, relaxation from the
    last converged state.
    """
    sched = HomotopySchedule(min_step=options.lambda_min_step)
    lam = 1.0 if options.homotopy == "on" else 0.0
    x_best = x
    while True:
        start = x_best if sched.phase == "relax" else x
        hs = None if lam == 0.0 else HomotopyState(lam, options.gamma, options.shunt_relax)
        x_try, ok, reason = _nr_attempt(circuit, start, hs, options, modes, vmask, report.residual_history)
        report.lambda_trajectory.append({"lambda": lam, "converged": ok, "reason": reason})
        if ok:
            if options.keep_homotopy_states:
                report.homotopy_states[lam] = x_try.copy()
            if lam == 0.0:
                return x_try
            x_best = x_try
        elif options.homotopy == "off":
            report.error = "non-convergence with continuation disabled"
            raise SolveFailure(report.error, report, x_try)
        lam = sched.next_lambda(lam, ok)
        if lam is None:
            smallest = sched.lam_converged
            report.error = (
                f"continuation exhausted; smallest converged lambda = {smallest}"
                if smallest is not None
                else "continuation exhausted with no converged point"
            )
            raise UnsolvableCaseError(report.error, report, x_try)


def solve_direct(
    network: Network,
    options: SolverOptions | None = None,
    injections: dict[int, dict[str, complex]] | None = None,
    x0: np.ndarray | None = None,
    circuit: CompiledCircuit | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Full direct solve: NR with limiting, continuation rescue, and the
    reactive-limit outer loop.  Raises SolveFailure when no solution is found.

    ``injections`` maps a bus id to constant per-phase complex current
    consumption (the boundary drive of a torn subproblem).  A ``circuit``
    compiled from ``network``, or from a network of its topology whose
    values it was then set to, is solved as it stands on its own index
    map, ``network`` giving only the initial state; otherwise ``network``
    is compiled.
    """
    options = options or SolverOptions()
    circuit = circuit or CompiledCircuit(network, build_index_map(network))
    circuit.set_injections(injections)
    imap = circuit.imap
    x = x0.copy() if x0 is not None else initial_state(network, imap, flat=options.flat_start)
    vmask = voltage_index_mask(imap)
    report = SolveReport()
    modes: dict[int, str] = {}
    switch_counts: dict[int, int] = defaultdict(int)

    for _ in range(_MAX_CONTROL_ROUNDS):
        x = _solve_with_continuation(circuit, x, options, modes, vmask, report)
        switches = enforce_q_limits(circuit, x, modes, switch_counts)
        if not switches:
            break
        report.q_switch_log.extend(switches)
    else:
        report.error = "control-variable loop did not settle"
        raise SolveFailure(report.error, report, x)

    report.converged = True
    report.iterations = len(report.residual_history)
    report.final_residual = report.residual_history[-1] if report.residual_history else 0.0
    report.gen_modes = dict(modes)
    pinned = [g for g in circuit.gens if modes.get(g.bus, "pv") != "pv"]
    report.gen_q_fixed = {g.bus: g.q_max if modes[g.bus] == "qmax" else g.q_min for g in pinned}
    return x, report
