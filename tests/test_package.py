import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankone_gap
from rankone_gap import Channel, RealLineMeasure, SpectralModel, validate

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


def test_benchmark_tracer_still_installs(tmp_path):
    """``perfbench/tracer.py::install`` hooks the package's functions by name,
    wraps the integrand, the first argument of ``quadrature.
    integrate_adaptive``, and reads the result's ``converged``.  Under it a
    ``sim laplace``, a ``stieltjes invert``, a ``cfun scan`` and a ``cfun
    eval`` still exit 0, each ``laplace_numeric`` call makes one quadrature
    call, and the scan and the eval make one ``nonvanishing_scan`` and one
    ``evaluate`` call."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(SpectralModel(
        d=2, delta=1.5, tempered_amplitude=0.3,
        channels=(Channel(validate(2, (0,)), RealLineMeasure(
            atoms=((1.5, 1.0), (1.2, 0.5)), pieces=((1.05, 1.25, (1.0, -0.5)),)), (1.0, 0.5)),),
    ).to_json()))
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps(RealLineMeasure(atoms=((0.5, 1.0),), pieces=((0.2, 0.8, (1.0,)),)).to_json()))
    code = f"""if True:
        import contextlib, io
        import rankone_gap.cli as cli
        from perfbench import tracer as tr
        tracer = tr.Tracer()
        tr.install(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(["sim", "laplace", "--model", {str(model)!r}, "--z-grid", "0.2:2:10"]),
                     cli.run(["stieltjes", "invert", "--model", {str(measure)!r}, "--a", "0", "--b", "1"]),
                     cli.run(["cfun", "scan", "--d", "5", "--sigma", "1,0", "--grid", "200"]),
                     cli.run(["cfun", "eval", "--d", "7", "--sigma", "1,0,0", "--tau", "1,0,0,0", "--s", "5.3"])]
        per, _ = tracer.per_function()
        calls = [per[f]["calls"] for f in ("quadrature.integrate_adaptive", "laplace.laplace_numeric",
                                           "cfunction.nonvanishing_scan", "cfunction.evaluate")]
        print(codes, calls, tracer.counts["quadrature.integrate_adaptive.evals"] > 0)
    """
    path = os.pathsep.join(filter(None, [str(SRC), str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] [1.0, 1.0, 1.0, 1.0] True"
