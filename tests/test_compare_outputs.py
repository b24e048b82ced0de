import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

SUMMARY = "tandem solve summary\ncase: case9.m\nepochs: 2\nfinal residual: 6.149e-13\nmax voltage   7   1.0547\n"


@pytest.mark.parametrize(
    "old, new, verdict",
    [
        ("6.149e-13", "6.140e-13", "same shape"),  # roundoff of a converged residual
        ("1.0547", "1.0547000001", "same shape"),
        ("1.0547", "1.0548", "differs at line 5"),
        ("epochs: 2", "epochs: 3", "differs at line 3"),
        ("case: case9.m", "case: case9.json", "differs at line 2"),
        ("final residual", "final mismatch", "differs at line 4"),
    ],
)
def test_summary_numbers_within_the_bound_read_same_shape(tmp_path, capsys, old, new, verdict):
    for side, text in (("a", SUMMARY), ("b", SUMMARY.replace(old, new))):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "summary.txt").write_text(text)
    assert compare_outputs.compare(tmp_path / "a", tmp_path / "b") == 0
    assert capsys.readouterr().out.splitlines()[0] == f"run/summary.txt: {verdict}"
