import json
import logging
import os
import re
import shutil
import threading
import time

import pytest

from netgen import case27_with_feeders
from tandem.cli import BENCH_HEADER, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main
from tandem.ingest import load_combined_case
from tandem.netmodel import Network, NetworkError, build_index_map
from tandem.newton import solve_direct
from tandem.results import solution_dict, solution_json


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def workdir(tmp_path, data_dir):
    """Copy of the bundled data next to a fresh output directory."""
    for name in (
        "case2.m", "case9.m", "case27.m", "case_radial7.m",
        "feeder_small.json", "feeder_medium.json", "feeder_stressed.json",
        "case9_feeder1.json", "case9_feeder4.json", "case9_stressed.json",
    ):
        shutil.copy(data_dir / name, tmp_path / name)
    return tmp_path


class TestSolve:
    def test_two_bus_poi_free(self, workdir, capsys):
        out = workdir / "out"
        rc = run(["solve", "--case", workdir / "case2.m", "--out", out])
        assert rc == EXIT_OK
        summary = (out / "summary.txt").read_text()
        assert "POI-free" in summary
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["final_residual"] <= 1e-6
        solution = json.loads((out / "solution.json").read_text())
        assert solution["schema"] == 1
        assert {"bus", "label", "phase", "vm", "va_deg"} <= set(solution["nodes"][0])

    def test_combined_direct_vs_gsn_summary(self, workdir):
        out_d = workdir / "direct"
        out_g = workdir / "gsn"
        assert run(["solve", "--case", workdir / "case9.m",
                    "--coupling", workdir / "case9_feeder1.json", "--out", out_d]) == EXIT_OK
        assert run(["solve", "--case", workdir / "case9.m",
                    "--coupling", workdir / "case9_feeder1.json",
                    "--solver", "gsn", "--out", out_g]) == EXIT_OK

        def poi_lines(p):
            return [
                l for l in (p / "summary.txt").read_text().splitlines()
                if l.startswith(("max voltage", "min voltage"))
            ]

        def magnitudes(lines):
            return [float(l.split()[-1]) for l in lines]

        d, g = magnitudes(poi_lines(out_d)), magnitudes(poi_lines(out_g))
        assert d == pytest.approx(g, abs=1e-3)

    def test_missing_case_input_error(self, workdir):
        rc = run(["solve", "--case", workdir / "nope.m", "--out", workdir / "o"])
        assert rc == EXIT_INPUT
        err = json.loads((workdir / "o" / "error.json").read_text())
        assert err["exit_code"] == EXIT_INPUT

    def test_non_convergence_exit_code(self, workdir):
        out = workdir / "o"
        # push the radial case beyond its nose
        case = workdir / "case_radial7.m"
        body = case.read_text().replace("35.0\t35.0", "80.0\t80.0")
        hot = workdir / "case_hot.m"
        hot.write_text(body)
        rc = run(["solve", "--case", hot, "--out", out])
        assert rc == EXIT_NO_CONVERGENCE
        assert (out / "error.json").exists()

    def test_options_file_and_flags(self, workdir):
        out = workdir / "o"
        opts = workdir / "opts.json"
        opts.write_text(json.dumps({"tol": 1e-8, "dv_max": 0.2}))
        rc = run(["solve", "--case", workdir / "case9.m", "--options", opts,
                  "--tol", "1e-9", "--out", out])
        assert rc == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        assert rep["final_residual"] <= 1e-9

    def test_unknown_option_rejected(self, workdir):
        opts = workdir / "opts.json"
        opts.write_text(json.dumps({"bogus": 1}))
        rc = run(["solve", "--case", workdir / "case9.m", "--options", opts,
                  "--out", workdir / "o"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "options_text, flags",
        [
            ('{"tol": 1e-6', []),  # malformed JSON
            ('{"tol": -1}', []),
            ('{"tol": "tight"}', []),
            (None, ["--tol", "-1"]),
            (None, ["--dvmax", "0"]),
            (None, ["--outer-tol", "-1", "--solver", "gsn"]),
            (None, ["--outer-tol", "inf", "--solver", "gsn"]),
            ('{"v_min": -1.5}', []),  # the voltage box is a module constant, not an option
            ('{"max_iter": "x"}', []),
            ('{"max_iter": 2.5}', []),
            ('{"max_iter": 0}', []),
            ('{"blowup_ratio": "x"}', []),
            ('{"limiting": "no"}', []),
            (None, ["--dvmax", "nan"]),
            (None, ["--tol", "nan"]),
            (None, ["--tol", "inf"]),
            (None, ["--gamma", "-1"]),
        ],
    )
    def test_bad_option_value_is_input_error(self, workdir, options_text, flags):
        args = ["solve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_feeder1.json", *flags]
        if options_text is not None:
            (workdir / "opts.json").write_text(options_text)
            args += ["--options", workdir / "opts.json"]
        out = workdir / "o"
        assert run([*args, "--out", out]) == EXIT_INPUT
        assert json.loads((out / "error.json").read_text())["exit_code"] == EXIT_INPUT
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_shows_gsn_epochs(self, workdir, caplog, verbose):
        logger = logging.getLogger("tandem")
        level = logger.level
        try:
            rc = run([*(["-v"] if verbose else []), "solve", "--case", workdir / "case9.m",
                      "--coupling", workdir / "case9_feeder1.json", "--solver", "gsn", "--out", workdir / "o"])
        finally:
            logger.setLevel(level)
        assert rc == EXIT_OK
        epochs = [r for r in caplog.records if r.name == "tandem.gsn" and r.getMessage().startswith("epoch")]
        report = json.loads((workdir / "o" / "report.json").read_text())
        assert len(epochs) == (report["epochs"] if verbose else 0)

    def test_outputs_deterministic_with_one_worker(self, workdir):
        outs = []
        for name in ("a", "b"):
            out = workdir / name
            rc = run(["solve", "--case", workdir / "case9.m",
                      "--coupling", workdir / "case9_feeder1.json",
                      "--solver", "gsn", "--workers", "1", "--out", out])
            assert rc == EXIT_OK
            outs.append(out)
        for fname in ("solution.json", "report.json", "summary.txt", "epochs.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_matrix_dump_debug_option(self, workdir):
        opts = workdir / "opts.json"
        dump = workdir / "mtx"
        opts.write_text(json.dumps({"debug_matrix_dir": str(dump)}))
        rc = run(["solve", "--case", workdir / "case2.m", "--options", opts,
                  "--out", workdir / "o"])
        assert rc == EXIT_OK
        dumped = sorted(dump.glob("system_*.mtx"))
        assert dumped and "MatrixMarket" in dumped[0].read_text()


class TestPvcurve:
    def test_single_point_matches_solve(self, workdir):
        out = workdir / "pv"
        rc = run(["pvcurve", "--case", workdir / "case9.m",
                  "--coupling", workdir / "case9_feeder1.json",
                  "--lf-start", "1.0", "--lf-stop", "1.0", "--lf-step", "0.5",
                  "--out", out])
        assert rc == EXIT_OK
        lines = (out / "pvcurve.csv").read_text().splitlines()
        assert lines[0] == "lf,v_poi_der1"
        lf, v = lines[1].split(",")
        assert float(lf) == 1.0

        out2 = workdir / "sv"
        run(["solve", "--case", workdir / "case9.m",
             "--coupling", workdir / "case9_feeder1.json", "--out", out2])
        summary = (out2 / "summary.txt").read_text()
        poi_v = float(
            next(l for l in summary.splitlines() if l.startswith("max voltage")).split()[-1]
        )
        assert float(v) == pytest.approx(poi_v, abs=1e-4)

    def test_requires_port(self, workdir):
        rc = run(["pvcurve", "--case", workdir / "case9.m", "--out", workdir / "pv"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("flag, value", [("--lf-step", "nan"), ("--lf-stop", "inf")])
    def test_non_finite_range_is_input_error(self, workdir, flag, value):
        # unchecked, a nan step gives a one-row curve and an infinite stop a range without end
        out = workdir / "pv"
        rc = run(["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                  flag, value, "--out", out])
        assert rc == EXIT_INPUT
        assert json.loads((out / "error.json").read_text())["exit_code"] == EXIT_INPUT
        assert not (out / "pvcurve.csv").exists()

    def test_too_many_points_is_input_error(self, workdir):
        # 1,000,001 load factors, one Newton solve each, unless rejected before the list is built
        out = workdir / "pv"
        t0 = time.perf_counter()
        rc = run(["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                  "--lf-start", "1.0", "--lf-stop", "2.0", "--lf-step", "1e-6", "--out", out])
        assert rc == EXIT_INPUT
        assert time.perf_counter() - t0 < 1.0
        assert "points" in json.loads((out / "error.json").read_text())["error"]

    def test_stressed_curve_monotone_and_der_lift(self, workdir):
        out = workdir / "pv"
        rc = run(["pvcurve", "--case", workdir / "case9.m",
                  "--coupling", workdir / "case9_stressed.json",
                  "--lf-start", "1.0", "--lf-stop", "3.0", "--lf-step", "0.1",
                  "--der-scale", "0,1", "--out", out])
        assert rc == EXIT_OK
        lines = (out / "pvcurve.csv").read_text().splitlines()
        assert lines[0] == "lf,v_poi_der0,v_poi_der1"
        base, der = {}, {}
        for row in lines[1:]:
            lf, b, d = row.split(",")
            if b:
                base[float(lf)] = float(b)
            if d:
                der[float(lf)] = float(d)
        bvals = [base[k] for k in sorted(base)]
        assert all(x > y for x, y in zip(bvals, bvals[1:]))  # monotone fall to the nose
        for lf in base:
            assert der[lf] > base[lf]  # DER支 lifts the curve
        assert max(der) > max(base)  # and extends the convergent range
        assert (out / "pvcurve.svg").read_text().startswith("<svg")

    @pytest.fixture()
    def compiled(self, monkeypatch):
        """One entry per CompiledCircuit built while the test runs."""
        import tandem.cli
        import tandem.gsn
        import tandem.newton
        import tandem.stamping

        compiled = []

        class Counting(tandem.stamping.CompiledCircuit):
            def __init__(self, *args, **kwargs):
                compiled.append(1)
                super().__init__(*args, **kwargs)

        for module in (tandem.stamping, tandem.newton, tandem.gsn, tandem.cli):
            monkeypatch.setattr(module, "CompiledCircuit", Counting, raising=False)
        return compiled

    @staticmethod
    def processes(monkeypatch, count):
        """Sweep the scenarios on ``count`` processes at most, whatever the host's CPUs and threads."""
        import tandem.cli

        monkeypatch.setattr(tandem.cli, "_processes", lambda tasks: min(tasks, count))

    def test_one_compile_per_scenario(self, workdir, compiled, monkeypatch):
        # each DER scenario compiles one circuit and sets each load factor on it; counted in
        # this process, so on one process, and then forked, where this process compiles its share
        args = ["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                "--lf-start", "1.0", "--lf-stop", "3.0", "--lf-step", "0.1", "--der-scale", "0,1"]
        self.processes(monkeypatch, 1)
        assert run([*args, "--out", workdir / "serial"]) == EXIT_OK
        assert len(compiled) == 2
        compiled.clear()
        self.processes(monkeypatch, 2)
        assert run([*args, "--out", workdir / "forked"]) == EXIT_OK
        assert len(compiled) == 1

    def test_zero_load_factor_start(self, workdir, compiled, monkeypatch):
        # the zero point sets the load legs to zero demand on the scenario's one circuit
        self.processes(monkeypatch, 1)
        out = workdir / "pv"
        rc = run(["pvcurve", "--case", workdir / "case9.m",
                  "--coupling", workdir / "case9_stressed.json",
                  "--lf-start", "0.0", "--lf-stop", "0.2", "--lf-step", "0.1", "--out", out])
        assert rc == EXIT_OK
        assert len((out / "pvcurve.csv").read_text().splitlines()) == 4
        assert len(compiled) == 1

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def sweep_both_ways(self, workdir, monkeypatch, flags):
        """(exit code, {file name: bytes}) of one run on one process and of one forked run."""
        args = ["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                "--lf-start", "1.0", "--lf-stop", "3.0", "--lf-step", "0.1", *flags]
        outcomes = []
        for count in (1, 2):
            self.processes(monkeypatch, count)
            out = workdir / f"p{count}"
            with monkeypatch.context() as m:
                if count == 1:
                    m.delattr(os, "fork")  # one process forks nothing
                outcomes.append((run([*args, "--out", out]), {f.name: f.read_bytes() for f in out.iterdir()}))
            self.assert_no_child()
        return outcomes

    @pytest.mark.parametrize("solver", ["direct", "gsn"])
    @pytest.mark.parametrize("contingency", [[], ["--contingency", "branch:1"]], ids=["2", "4"])
    def test_forked_sweep_matches_serial(self, workdir, monkeypatch, solver, contingency):
        serial, forked = self.sweep_both_ways(workdir, monkeypatch,
                                              ["--der-scale", "0,1", "--solver", solver, *contingency])
        assert serial == forked
        assert serial[0] == EXIT_OK and sorted(serial[1]) == ["pvcurve.csv", "pvcurve.svg"]

    @pytest.mark.parametrize("error, code", [(NetworkError, EXIT_INPUT), (KeyError, 4)])
    def test_child_exception_matches_serial(self, workdir, monkeypatch, caplog, error, code):
        # forked, this process fails at scale 2 and the child at scale 1: scale 1's error wins, as serially
        with_der_scale = Network.with_der_scale

        def failing(net, scale):
            if scale >= 1:
                raise error(f"no network at DER scale {scale:g}")
            return with_der_scale(net, scale)

        monkeypatch.setattr(Network, "with_der_scale", failing)
        serial, forked = self.sweep_both_ways(workdir, monkeypatch, ["--der-scale", "0,1,2"])
        assert serial == forked
        assert serial[0] == code and list(serial[1]) == ["error.json"]
        assert "DER scale 1" in json.loads(serial[1]["error.json"])["error"]
        if code == 4:  # the logged internal error shows the frames the child's pickled exception lost
            assert re.search(r"item 1, in a forked process:\n.*in failing\n", caplog.text, re.S)

    def test_child_without_outcome_is_internal_error(self, workdir, monkeypatch):
        parent, with_der_scale = os.getpid(), Network.with_der_scale

        def dying(net, scale):
            if os.getpid() != parent:
                os._exit(0)
            return with_der_scale(net, scale)

        monkeypatch.setattr(Network, "with_der_scale", dying)
        self.processes(monkeypatch, 2)
        out = workdir / "pv"
        rc = run(["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                  "--der-scale", "0,1", "--out", out])
        self.assert_no_child()
        assert rc == 4 and [f.name for f in out.iterdir()] == ["error.json"]
        assert "without a result" in json.loads((out / "error.json").read_text())["error"]

    def test_failure_at_first_scenario_kills_children(self, workdir, monkeypatch):
        # the first scenario's error wins at once: the child, stuck in its scenario, is killed
        parent, with_der_scale = os.getpid(), Network.with_der_scale

        def stuck(net, scale):
            if os.getpid() != parent:
                time.sleep(60)
            elif scale == 0:
                raise NetworkError("no network at DER scale 0")
            return with_der_scale(net, scale)

        monkeypatch.setattr(Network, "with_der_scale", stuck)
        self.processes(monkeypatch, 2)
        t0 = time.perf_counter()
        rc = run(["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                  "--der-scale", "0,1", "--out", workdir / "pv"])
        assert time.perf_counter() - t0 < 30
        self.assert_no_child()
        assert rc == EXIT_INPUT

    def test_process_count(self, monkeypatch):
        import tandem.cli

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [tandem.cli._processes(n) for n in (1, 2, 5)] == [1, 2, 3]
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            assert tandem.cli._processes(5) == 1  # fork copies only the calling thread
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        monkeypatch.delattr(os, "fork")
        assert tandem.cli._processes(5) == 1

    def test_gsn_sweep_matches_direct(self, workdir):
        # the GSN sweep solves a network variant per point, the direct one sets a load factor
        args = ["pvcurve", "--case", workdir / "case9.m", "--coupling", workdir / "case9_stressed.json",
                "--lf-start", "1.0", "--lf-stop", "3.0", "--lf-step", "0.1", "--der-scale", "0,1"]
        rows = {}
        for solver in ("direct", "gsn"):
            assert run([*args, "--solver", solver, "--out", workdir / solver]) == EXIT_OK
            rows[solver] = [row.split(",") for row in (workdir / solver / "pvcurve.csv").read_text().splitlines()]
        direct, gsn = rows["direct"], rows["gsn"]
        assert [[cell == "" for cell in row] for row in gsn] == [[cell == "" for cell in row] for row in direct]
        assert [row[0] for row in gsn] == [row[0] for row in direct]
        for row_d, row_g in zip(direct[1:], gsn[1:]):
            for d, g in zip(row_d[1:], row_g[1:]):
                assert d == g == "" or float(g) == pytest.approx(float(d), abs=1e-3)

    def test_contingency_column_lower(self, workdir):
        # drop one of the two corridors into the POI bus: the contingency
        # curve must sit below the base curve at every shared point
        out = workdir / "pv"
        rc = run(["pvcurve", "--case", workdir / "case9.m",
                  "--coupling", workdir / "case9_stressed.json",
                  "--lf-start", "1.0", "--lf-stop", "1.4", "--lf-step", "0.2",
                  "--contingency", "branch:1", "--out", out])
        assert rc == EXIT_OK
        lines = (out / "pvcurve.csv").read_text().splitlines()
        assert lines[0] == "lf,v_poi_der1,v_poi_cont_der1"
        shared = 0
        for row in lines[1:]:
            _, b, c = row.split(",")
            if b and c:
                assert float(c) < float(b)
                shared += 1
        assert shared >= 2


class TestGenerate:
    def test_bundle_manifest(self, workdir):
        out = workdir / "bundle"
        rc = run(["generate", "--case", workdir / "case9.m",
                  "--coupling", workdir / "case9_feeder4.json", "--out", out])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == 1
        assert manifest["ports"] == 4
        assert manifest["feeders"] == ["feeder_medium.json"]
        assert set(manifest["checksums"]) == {
            "case9.m", "case9_feeder4.json", "feeder_medium.json"
        }
        assert (out / "feeder_medium.json").exists()

    def test_repeated_feeder_distinct_buses(self, workdir):
        # one feeder file reused at many buses: port count equals pair count
        out = workdir / "bundle"
        rc = run(["generate", "--case", workdir / "case9.m",
                  "--coupling", workdir / "case9_feeder4.json", "--out", out])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["couplings"]) == manifest["ports"] == 4

    def test_malformed_map_rejected(self, workdir):
        bad = workdir / "bad_map.json"
        bad.write_text(json.dumps({"schema": 1, "couplings": [
            {"feeder": "feeder_small.json", "bus": 5},
            {"feeder": "feeder_small.json", "bus": 5},
        ]}))
        rc = run(["generate", "--case", workdir / "case9.m",
                  "--coupling", bad, "--out", workdir / "b"])
        assert rc == EXIT_INPUT


class TestBench:
    def test_two_points(self, workdir):
        out = workdir / "bench"
        rc = run(["bench", "--case", workdir / "case9.m",
                  "--feeder", workdir / "feeder_small.json",
                  "--counts", "1,4", "--out", out])
        assert rc == EXIT_OK
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 3
        k1 = lines[1].split(",")
        assert k1[0] == "1" and int(k1[1]) > 0
        epochs = int(lines[1].split(",")[3])
        assert 1 <= epochs <= 100

    def test_too_many_feeders_rejected(self, workdir):
        rc = run(["bench", "--case", workdir / "case9.m",
                  "--feeder", workdir / "feeder_small.json",
                  "--counts", "1,99", "--out", workdir / "bench"])
        assert rc == EXIT_INPUT


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bench", ["--counts", "1,x"]),
        ("bench", ["--counts", ","]),
        ("pvcurve", ["--der-scale", "0,abc"]),
        ("pvcurve", ["--der-scale", "1,nan"]),  # unchecked, NaN reached the stamps and exited 4
        ("pvcurve", ["--contingency", "branch:x"]),
    ],
)
def test_bad_list_argument_is_input_error(workdir, command, flags):
    case = ["--case", workdir / "case9.m"]
    case += ["--feeder", workdir / "feeder_small.json"] if command == "bench" else [
        "--coupling", workdir / "case9_stressed.json"]
    rc = run([command, *case, *flags, "--out", workdir / "o"])
    assert rc == EXIT_INPUT
    assert json.loads((workdir / "o" / "error.json").read_text())["exit_code"] == EXIT_INPUT


@pytest.mark.parametrize(
    "target, old, new",
    [
        ("feeder_medium.json", '"nominal_kv": 12.47', '"nominal_kv": 1' + "0" * 5000),
        ("case9_stressed.json", '"bus": 5', '"bus": 1' + "0" * 5000),
    ],
    ids=["feeder", "map"],
)
def test_json_integer_past_digit_limit_is_input_error(workdir, target, old, new):
    # json.loads raises a plain ValueError past 4,300 digits; it exited 4 as an internal error
    text = (workdir / target).read_text()
    assert old in text
    (workdir / target).write_text(text.replace(old, new, 1))
    coupling = workdir / "case9_stressed.json"
    if target.startswith("feeder"):
        coupling = workdir / "map.json"
        coupling.write_text(json.dumps({"schema": 1, "couplings": [{"feeder": target, "bus": 5}]}))
    rc = run(["solve", "--case", workdir / "case9.m", "--coupling", coupling, "--out", workdir / "o"])
    assert rc == EXIT_INPUT
    assert target in json.loads((workdir / "o" / "error.json").read_text())["error"]


@pytest.mark.parametrize(
    "target, path, value, named",
    [
        ("feeder_medium.json", ("loads", 0, "connection"), "star", "loads[0]"),
        ("feeder_medium.json", ("nominal_kv",), None, "nominal_kv"),
        ("feeder_medium.json", ("loads", 4, "kw"), ["x"], "loads[4]"),  # a one-phase load
        ("feeder_medium.json", ("nodes", 3, "id"), None, "nodes[3]"),
        ("feeder_medium.json", ("lines", 2, "from"), None, "lines[2]"),
        ("map.json", ("couplings", 0, "bus"), None, "couplings[0]"),
        ("map.json", ("couplings", 0, "bus"), "five", "couplings[0]"),
        ("map.json", (), "list", "JSON object"),
        ("feeder_medium.json", ("nodes",), 5, "nodes"),
        ("feeder_medium.json", ("loads",), 7, "loads"),
        ("feeder_medium.json", ("lines", 0, "z_ohms_per_mile"), [1, 2, 3], "impedance rows"),
        # unchecked, NaN and Infinity reached the stamps and exited 4
        ("map.json", ("couplings", 0, "load_scale"), float("nan"), "couplings[0]: bad load_scale nan"),
        ("feeder_medium.json", ("loads", 0, "kw"), float("inf"), "loads[0]: bad kw inf"),
        ("feeder_medium.json", ("lines", 0, "z_ohms_per_mile"), [[[10**400, 0]]], "expected finite number"),
    ],
    ids=["star-load", "no-nominal-kv", "kw-text", "node-without-id", "line-without-from",
         "entry-without-bus", "bus-text", "map-list", "nodes-number", "loads-number", "z-flat-row",
         "load-scale-nan", "kw-infinity", "z-int-overflow"],
)
def test_bad_feeder_or_map_record_is_input_error(workdir, target, path, value, named):
    """A malformed record exits 2 with a message naming the file and the record, value None dropping the key."""
    docs = {"map.json": {"schema": 1, "couplings": [{"feeder": "feeder_medium.json", "bus": 5}]},
            "feeder_medium.json": json.loads((workdir / "feeder_medium.json").read_text())}
    if path:
        *parents, key = path
        rec = docs[target]
        for part in parents:
            rec = rec[part]
        if value is None:
            del rec[key]
        else:
            rec[key] = value
    else:
        docs[target] = [docs[target]]
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc))
    rc = run(["solve", "--case", workdir / "case9.m", "--coupling", workdir / "map.json", "--out", workdir / "o"])
    assert rc == EXIT_INPUT
    message = json.loads((workdir / "o" / "error.json").read_text())["error"]
    assert target in message and named in message


@pytest.mark.parametrize("feeders", ["case9_feeder1", "k24"])
def test_solution_writer_matches_json_dumps(data_dir, feeders):
    # solution.json is formatted directly; its bytes stay those of json.dumps(indent=2)
    if feeders == "k24":
        net = case27_with_feeders(data_dir, [("feeder_medium", 1.0, 1.0)])
    else:
        net = load_combined_case(data_dir / "case9.m", data_dir / f"{feeders}.json")
    x, _ = solve_direct(net)
    sol = solution_dict(net, build_index_map(net), x)
    assert solution_json(sol) == json.dumps(sol, indent=2)
    # an integer base and a label that needs escaping
    sol = {**sol, "base_mva": 100, "nodes": [{**sol["nodes"][0], "label": 'b\u00e9 "1"'}]}
    assert solution_json(sol) == json.dumps(sol, indent=2)


def test_infinite_q_limits_still_solve(workdir):
    # MATPOWER writes a generator without reactive limits as Qmax = Inf, Qmin = -Inf
    case = workdir / "case9_inf.m"
    case.write_text((workdir / "case9.m").read_text().replace("\t300\t-300\t", "\tInf\t-Inf\t"))
    out = workdir / "o"
    assert run(["solve", "--case", case, "--out", out]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["q_switch_log"] == []


def test_invalid_network_is_input_error(workdir):
    case = workdir / "case9_no_slack.m"
    case.write_text((workdir / "case9.m").read_text().replace("\t1\t3\t", "\t1\t2\t"))
    out = workdir / "o"
    assert run(["solve", "--case", case, "--out", out]) == EXIT_INPUT
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == "invalid network:\n  [no-slack] transmission network has no slack bus"


@pytest.mark.parametrize("target", ["case", "feeder", "options", "case-bytes"])
def test_unreadable_input_is_input_error(workdir, target):
    # a directory, or a byte that is not UTF-8 in a MATPOWER comment, exited 4 as an internal error
    (workdir / "adir").mkdir()
    case, coupling, named, extra = workdir / "case9.m", workdir / "case9_feeder1.json", "adir", []
    if target == "case":
        case = workdir / "adir"
    elif target == "feeder":
        coupling = workdir / "map.json"
        coupling.write_text(json.dumps({"schema": 1, "couplings": [{"feeder": "adir", "bus": 5}]}))
    elif target == "options":
        extra = ["--options", workdir / "adir"]
    else:
        lines = (workdir / "case9.m").read_bytes().split(b"\n")
        case, named = workdir / "case9_latin1.m", "case9_latin1.m"
        case.write_bytes(b"\n".join([lines[0], b"% caf\xe9 \xff", *lines[1:]]))
    rc = run(["solve", "--case", case, "--coupling", coupling, *extra, "--out", workdir / "o"])
    assert rc == EXIT_INPUT
    assert named in json.loads((workdir / "o" / "error.json").read_text())["error"]


@pytest.mark.parametrize("bus", ["[\n]", "5"])
def test_case_without_bus_rows_is_input_error(workdir, bus):
    # a bus matrix with no rows passed validation and exited 4 from the POI-free summary; a scalar
    # failed to unpack and exited 4
    case = workdir / "case_empty.m"
    case.write_text(f"function mpc = case_empty\nmpc.baseMVA = 100;\nmpc.bus = {bus};\nmpc.gen = [];\nmpc.branch = [];\n")
    out = workdir / "o"
    assert run(["solve", "--case", case, "--out", out]) == EXIT_INPUT
    assert json.loads((out / "error.json").read_text())["error"] == "line 3: mpc.bus must be a matrix with at least one row"


@pytest.mark.parametrize("section", ["gen", "branch"])
def test_scalar_gen_or_branch_is_input_error(workdir, section):
    # a scalar failed to unpack as a matrix's rows and exited 4
    text = (workdir / "case9.m").read_text()
    start = text.index(f"mpc.{section} = [")
    case = workdir / "case_scalar.m"
    case.write_text(text[:start] + f"mpc.{section} = 5;" + text[text.index("];", start) + 2:])
    line = text[:start].count("\n") + 1
    out = workdir / "o"
    assert run(["solve", "--case", case, "--out", out]) == EXIT_INPUT
    assert json.loads((out / "error.json").read_text())["error"] == f"line {line}: mpc.{section} must be a matrix"
