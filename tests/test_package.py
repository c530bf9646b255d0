import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankone_gap

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    for name in rankone_gap.__all__:
        module = importlib.import_module(f"rankone_gap.{rankone_gap._MODULE_OF[name]}")
        assert getattr(rankone_gap, name) is getattr(module, name)
    assert set(rankone_gap.__all__) <= set(dir(rankone_gap))
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        rankone_gap.bogus


def test_weight_and_gap_commands_run_without_numpy():
    """A cold process imports the package and runs ``duals``, ``ktype`` and
    ``gap params`` without loading numpy; ``cfun`` loads it.  Every submodule
    is in ``sys.modules`` from the start, where code that hooks the package's
    functions by module name (``perfbench/tracer.py``) looks for it."""
    code = """if True:
        import sys
        import rankone_gap
        assert "numpy" not in sys.modules, "import rankone_gap"
        for module in ("quadrature", "stieltjes", "laplace", "cfunction", "measures"):
            assert f"rankone_gap.{module}" in sys.modules, module
        from rankone_gap.cli import run
        for argv in (["duals", "dim", "--n", "8", "--entries", "4,4,3,-2"],
                     ["ktype", "minimal", "--d", "3", "--sigma", "1"],
                     ["gap", "params", "--kappa-gamma", "1", "--d", "2"]):
            assert run(argv) == 0, argv
            assert "numpy" not in sys.modules, argv
        assert run(["cfun", "eval", "--d", "2", "--sigma", "0", "--tau", "0", "--s", "2"]) == 0
        assert "numpy" in sys.modules
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0.5"
