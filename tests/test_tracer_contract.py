"""The benchmark tracer's contract with the program: every name in ``perfbench/tracer.py``'s
``WRAPS`` exists and is still called where it is wrapped, so a traced op records each layer span."""

from pathlib import Path

import pytest

import tandem.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracer(monkeypatch):
    """The benchmark's tracer module and a tracer installed on it, removed after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as module

    installed = module.Tracer()
    installed.install()  # raises when a wrapped name is gone
    yield module, installed
    installed.uninstall()


@pytest.mark.parametrize("argv, extra", [
    (["solve", "case9_feeder1.json"], lambda module: set()),
    (["solve", "case9_feeder1.json", "--solver", "gsn"], lambda module: module.GSN_SPANS),
    (["pvcurve", "case9_stressed.json", "--lf-start", "1.0", "--lf-stop", "1.2", "--lf-step", "0.1"],
     lambda module: {"netmodel.variant"}),
], ids=["direct", "gsn", "pvcurve"])
def test_traced_op_records_every_layer(tracer, data_dir, tmp_path, argv, extra):
    module, installed = tracer
    command, coupling, *flags = argv
    installed.begin_op()
    rc = tandem.cli.main([command, "--case", str(data_dir / "case9.m"), "--coupling", str(data_dir / coupling),
                          *flags, "--out", str(tmp_path / "out")])
    assert rc == tandem.cli.EXIT_OK
    assert (module.CORE_SPANS | extra(module)) - module.span_names(installed.spans) == set()
