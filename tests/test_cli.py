import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone_gap import (
    GapParameters,
    HighestWeight,
    RealLineMeasure,
    SpectralModel,
    correlation,
    halfopen_grid,
    laplace_numeric,
    nonvanishing_scan,
)
from rankone_gap.cli import run


DOC = "<document>"
TRANSFORM_ARGV = ["stieltjes", "transform", "--model", DOC, "--z-re", "0.5", "--z-im", "0.25"]
POLES_ARGV = ["sim", "poles", "--model", DOC, "--eta", "0.1"]


def with_doc(argv, path):
    return [path if a == DOC else a for a in argv]


MEASURE, MODEL = "<measure>", "<model>"


def with_docs(argv, directory):
    """``argv`` with MEASURE and MODEL replaced by files holding VALID_MEASURE
    and VALID_MODEL, written to ``directory``."""
    paths = {}
    for name, doc in ((MEASURE, VALID_MEASURE), (MODEL, VALID_MODEL)):
        paths[name] = os.path.join(directory, name.strip("<>") + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return [paths.get(a, a) for a in argv]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExamples:
    def test_cfun_eval_prints_half(self, capsys):
        code, out, _ = invoke(capsys, ["cfun", "eval", "--d", "2", "--sigma", "0", "--tau", "0", "--s", "2"])
        assert code == 0
        assert out.strip() == "0.5"

    def test_gap_params_twelfth(self, capsys):
        code, out, _ = invoke(capsys, ["gap", "params", "--kappa-gamma", "1", "--d", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa1"] == 0.0833333333333333
        assert doc["schema"] == "rankone-gap/1"

    def test_duals_dual_wire_format(self, capsys):
        code, out, _ = invoke(capsys, ["duals", "dual", "--n", "2", "--entries", "3"])
        assert code == 0
        assert out.strip() == '{"n":2,"entries":[-3]}'


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        code, _, _ = invoke(capsys, ["duals", "dual", "--n", "2", "--bogus", "1"])
        assert code == 2

    def test_invalid_weight_is_one(self, capsys):
        code, out, _ = invoke(capsys, ["duals", "validate", "--n", "4", "--entries", "1,2"])
        assert code == 1
        assert json.loads(out)["error_code"] == "ordering"

    def test_domain_error_is_two(self, capsys):
        code, _, err = invoke(capsys, ["gap", "params", "--kappa-gamma", "0", "--d", "2"])
        assert code == 2
        assert "error" in err

    def test_scan_failure_is_one(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["cfun", "scan", "--d", "2", "--sigma", "0", "--tau", "2", "--grid", "3"],
        )
        assert code == 1
        assert out.splitlines()[0] == "s,value,classification"


class TestInputErrors:
    """Malformed input exits 2 with one ``error:`` line, the same bytes every run."""

    def assert_input_error(self, capsys, argv):
        runs = [invoke(capsys, argv) for _ in range(2)]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        return err

    @pytest.fixture
    def list_doc(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        return str(path)

    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(SpectralModel(d=2, delta=1.5).to_json()))
        return str(path)

    def test_top_level_list_to_invert(self, capsys, list_doc):
        self.assert_input_error(
            capsys, ["stieltjes", "invert", "--model", list_doc, "--a", "0", "--b", "1"]
        )

    def test_top_level_list_to_poles(self, capsys, list_doc):
        self.assert_input_error(capsys, ["sim", "poles", "--model", list_doc, "--eta", "0.1"])

    def test_correlate_nonpositive_dt(self, capsys, model_file):
        argv = ["sim", "correlate", "--model", model_file, "--t-max", "1", "--dt"]
        self.assert_input_error(capsys, argv + ["-0.1"])
        self.assert_input_error(capsys, argv + ["0"])

    def test_correlate_negative_t_max(self, capsys, model_file):
        self.assert_input_error(
            capsys, ["sim", "correlate", "--model", model_file, "--t-max", "-1", "--dt", "0.1"]
        )

    @pytest.mark.parametrize("cmd", ["laplace", "compare"])
    @pytest.mark.parametrize("spec", ["0.2:2:0", "0.2:2:-3"])
    def test_zgrid_without_points(self, capsys, tmp_path, cmd, spec):
        # numpy's zero-size-reduction and negative-sample-count messages
        # named neither the option nor the grid
        argv = with_docs(["sim", cmd, "--model", MODEL, f"--z-grid={spec}"], str(tmp_path))
        err = self.assert_input_error(capsys, argv)
        assert err == f"error: z-grid {spec!r} needs at least one point\n"

    @pytest.mark.parametrize("t_max", ["-4.8", "0"])
    def test_laplace_nonpositive_t_max(self, capsys, tmp_path, t_max):
        # at Re z = 1e308 the tempered tail bound is inf - inf, so t_max is
        # checked before the bound is computed
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**VALID_MODEL, "tempered_amplitude": 0.3}))
        argv = ["sim", "laplace", "--model", str(path), "--z-grid", "1e308:1e308:1"]
        err = self.assert_input_error(capsys, argv + [f"--t-max={t_max}"])
        assert err == f"error: t_max must be positive, got {float(t_max)}\n"

    @pytest.mark.parametrize(
        "doc, argv",
        [
            ({"atoms": [1]}, TRANSFORM_ARGV),
            ({"densities": [{"a": 0, "b": 1, "coeffs_re": "12"}]}, TRANSFORM_ARGV),
            ({"d": 2, "delta": 1.5, "channels": [1]}, POLES_ARGV),
            ({"rows": [[1, 2], [3, 4]]}, ["sim", "rank", "--q", DOC]),
            ({"d": 2.7, "delta": 1.5, "channels": []}, POLES_ARGV),
            ({"d": True, "delta": 1.0, "channels": []}, POLES_ARGV),
            (
                {
                    "d": 2,
                    "delta": 1.5,
                    "channels": [
                        {
                            "sigma": {"n": 2, "entries": [0.9]},
                            "measure": {"atoms": [], "densities": []},
                        }
                    ],
                },
                ["gap", "verdict", "--model", DOC],
            ),
            ({"densities": [{"a": 0, "b": 1, "coeffs_re": [math.nan]}]}, TRANSFORM_ARGV),
        ],
    )
    def test_nested_malformed_document(self, capsys, tmp_path, doc, argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        self.assert_input_error(capsys, with_doc(argv, str(path)))

    def test_gap_params_domain(self, capsys):
        self.assert_input_error(capsys, ["gap", "params", "--kappa-gamma", "inf", "--d", "2"])
        self.assert_input_error(capsys, ["gap", "params", "--kappa-gamma", "1", "--d", "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["stieltjes", "transform", "--model", MEASURE, "--z-re", "nan", "--z-im", "1"],
            ["stieltjes", "transform", "--model", MEASURE, "--z-re", "0", "--z-im", "inf"],
            ["stieltjes", "invert", "--model", MEASURE, "--a", "0", "--b", "1", "--y0", "0"],
            ["stieltjes", "invert", "--model", MEASURE, "--a", "0", "--b", "1", "--y0", "-1"],
            ["stieltjes", "invert", "--model", MEASURE, "--a", "0", "--b", "1", "--k-max", "1"],
            ["sim", "poles", "--model", MODEL, "--eta", "0.4", "--x-step", "-1"],
            ["sim", "poles", "--model", MODEL, "--eta", "0.4", "--x-step", "0.4"],
            ["sim", "laplace", "--model", MODEL, "--z-grid", "0.2:2:3", "--t-max", "1e308"],
            ["sim", "laplace", "--model", MODEL, "--z-grid", "nan:2:3"],
        ],
    )
    def test_domain_without_an_answer(self, capsys, tmp_path, argv):
        # each printed a value with exit 0, escaped with a traceback, or ran
        # out of memory
        self.assert_input_error(capsys, with_docs(argv, tmp_path))

    def test_memory_error(self, capsys, tmp_path, monkeypatch):
        import rankone_gap.cli as cli

        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "correlation", fail)
        argv = ["sim", "correlate", "--model", MODEL, "--t-max", "1e9", "--dt", "1e-3"]
        self.assert_input_error(capsys, with_docs(argv, tmp_path))

    def test_quadrature_error(self, capsys, tmp_path, monkeypatch):
        import rankone_gap.cli as cli
        from rankone_gap.quadrature import QuadratureError

        def fail(*args, **kwargs):
            raise QuadratureError("panel budget exhausted")

        monkeypatch.setattr(cli, "invert_interval", fail)
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(RealLineMeasure(atoms=((0.5, 1.0),)).to_json()))
        self.assert_input_error(
            capsys, ["stieltjes", "invert", "--model", str(path), "--a", "0", "--b", "1"]
        )


class TestDeterminism:
    def test_run_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["duals", "dual", "--n", "2", "--entries", "3"]
        monkeypatch.setattr("sys.argv", ["rankone-gap", *argv])
        assert invoke(capsys, None) == invoke(capsys, argv)

    def test_identical_bytes(self, capsys):
        argv = ["cfun", "scan", "--d", "3", "--sigma", "1", "--grid", "11"]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second

    def test_workers_do_not_change_output(self, capsys):
        argv = ["cfun", "scan", "--d", "3", "--sigma", "1", "--grid", "11"]
        _, serial, _ = invoke(capsys, argv)
        _, parallel, _ = invoke(capsys, ["--workers", "4"] + argv)
        assert serial == parallel

    def test_threads_variable_is_inert(self, capsys, monkeypatch):
        argv = ["cfun", "scan", "--d", "3", "--sigma", "1", "--grid", "11"]
        monkeypatch.delenv("RANKONE_GAP_THREADS", raising=False)
        unset = invoke(capsys, argv)
        for value in ("abc", "4"):
            monkeypatch.setenv("RANKONE_GAP_THREADS", value)
            assert invoke(capsys, argv) == unset


VALID_MEASURE = {
    "atoms": [{"t": 0.5, "w_re": 1.0, "w_im": 0.25}],
    "densities": [{"a": 1.0, "b": 2.0, "coeffs_re": [1.0, -0.25], "coeffs_im": [0.5]}],
}
VALID_MODEL = {
    "schema": "rankone-gap/1",
    "d": 2,
    "delta": 1.5,
    "tempered_amplitude": 0.5,
    "channels": [
        {
            "sigma": {"n": 2, "entries": [0]},
            "measure": {
                "atoms": [{"t": 1.5, "w_re": 1.0, "w_im": 0.0}],
                "densities": [{"a": 1.1, "b": 1.3, "coeffs_re": [1.0], "coeffs_im": [0.0]}],
            },
            "coeff_re": [1.0, 0.5],
            "coeff_im": [0.0],
        }
    ],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def node_paths(doc, path=()):
    """Every node of a JSON document, as a key path from the root."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from node_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@st.composite
def mutated_documents(draw):
    doc, argv = draw(st.sampled_from([(VALID_MEASURE, TRANSFORM_ARGV), (VALID_MODEL, POLES_ARGV)]))
    path = draw(st.sampled_from(list(node_paths(doc))))
    return replaced(doc, path, draw(json_values)), argv


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40)
@given(mutated_documents())
def test_mutated_document_keeps_exit_contract(case):
    """One node of a valid document replaced by any JSON value: exit 0, 1 or 2,
    never a traceback, and the same bytes on a rerun."""
    doc, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = with_doc(argv, path)
        first = run_captured(argv)
        assert run_captured(argv) == first
    code, _, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err


EXTREME_REALS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, -1.0, -2.5]
reals = st.sampled_from(EXTREME_REALS) | st.floats(-20, 20)
# steps never tiny: a step of 1e-300 asks for a grid no machine can hold
steps = st.sampled_from(EXTREME_REALS) | st.floats(0.05, 2)
CFUN_CASES = [("2", "0", "0"), ("3", "1", "1,1"), ("8", "3,3,0,0", "3,3,3,0")]


def option(name, value):
    """``--name=value``, so that values such as ``-inf`` are not read as options."""
    return f"--{name}={value!r}"


# Im z of 1e308 oscillates faster than any quadrature resolves: the Laplace
# quadrature then spends its whole panel budget, about 4 GB, before it fails
im_parts = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]) | st.floats(-20, 20)


@st.composite
def z_grid(draw):
    parts = [repr(draw(reals)), repr(draw(reals)), str(draw(st.integers(-1, 4)))]
    if draw(st.booleans()):
        parts.append(repr(draw(im_parts)))
    return "--z-grid=" + ":".join(parts)


@st.composite
def fuzzed_argv(draw):
    d, sigma, tau = draw(st.sampled_from(CFUN_CASES))
    cfun = ["--d", d, "--sigma", sigma]
    maybe = lambda opt: [opt] if draw(st.booleans()) else []  # noqa: E731
    command = draw(st.sampled_from(
        ["eval", "scan", "params", "transform", "invert", "detect",
         "poles", "correlate", "laplace", "compare"]
    ))
    if command == "eval":
        return ["cfun", "eval", *cfun, "--tau", tau, option("s", draw(reals))]
    if command == "scan":
        argv = ["cfun", "scan", *cfun, "--grid", str(draw(st.integers(-1, 50)))]
        for name in ("s-min", "s-max"):
            if draw(st.booleans()):
                argv.append(option(name, draw(reals)))
        return argv
    if command == "params":
        argv = ["gap", "params", option("kappa-gamma", draw(reals))]
        argv.append(f"--d={draw(st.sampled_from([-1, 0, 1, 2, 5, 10**400]) | st.integers(-5, 20))}")
        if draw(st.booleans()):
            argv.append(option("delta", draw(reals)))
        return argv
    if command == "transform":
        z = [option("z-re", draw(reals)), option("z-im", draw(reals))]
        return ["stieltjes", "transform", "--model", MEASURE, *z]
    if command in ("invert", "detect"):
        argv = ["stieltjes", command, "--model", MEASURE]
        argv += [option("a", draw(reals)), option("b", draw(reals))]
        if command == "invert":
            argv += maybe(option("y0", draw(reals)))
            argv += maybe(f"--k-max={draw(st.integers(-1, 12))}")
        return argv
    argv = ["sim", command, "--model", MODEL]
    if command == "poles":
        return argv + [option("eta", draw(reals)), *maybe(option("x-step", draw(steps)))]
    if command == "correlate":
        return argv + [option("t-max", draw(reals)), option("dt", draw(steps))]
    grid = draw(z_grid())
    argv += [grid] if command == "laplace" else maybe(grid)
    return argv + maybe(option("t-max", draw(reals)))


def refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@settings(max_examples=100, deadline=None)
@given(fuzzed_argv())
@example(["gap", "params", "--kappa-gamma=inf", "--d=2"])
@example(["cfun", "eval", "--d", "3", "--sigma", "1", "--tau", "1,1", "--s=-1e308"])
@example(["stieltjes", "transform", "--model", MEASURE, "--z-re=nan", "--z-im=1"])
@example(["stieltjes", "transform", "--model", MEASURE, "--z-re=0", "--z-im=inf"])
@example(["stieltjes", "invert", "--model", MEASURE, "--a=0", "--b=1", "--y0=nan"])
@example(["stieltjes", "invert", "--model", MEASURE, "--a=0", "--b=1", "--y0=0"])
@example(["stieltjes", "invert", "--model", MEASURE, "--a=0", "--b=1", "--y0=-1"])
@example(["stieltjes", "invert", "--model", MEASURE, "--a=0", "--b=1", "--k-max=1"])
@example(["sim", "poles", "--model", MODEL, "--eta=0.4", "--x-step=-1"])
@example(["sim", "laplace", "--model", MODEL, "--z-grid=0.2:2:3", "--t-max=1e308"])
@example(["sim", "laplace", "--model", MODEL, "--z-grid=0.2:2:3", "--t-max=inf"])
@example(["sim", "laplace", "--model", MODEL, "--z-grid=nan:2:3"])
@example(["sim", "compare", "--model", MODEL, "--t-max=1e308"])
def test_fuzzed_argv_keeps_exit_contract(argv):
    """Extreme numbers in argv: exit 0, 1 or 2, never a traceback, the same
    bytes on a rerun, and stdout JSON without NaN or Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = with_docs(argv, tmp)
        first = run_captured(argv)
        assert run_captured(argv) == first
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    for line in out.splitlines():
        if line.startswith("{"):
            json.loads(line, parse_constant=refuse_constant)


USAGE_CASES = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_usage_bytes_unchanged(case, monkeypatch):
    """Help, usage and error output, byte for byte, as the CLI printed it
    before its parser was built from one declaration table (commit fb24dec)."""
    monkeypatch.setenv("COLUMNS", "80")
    assert run_captured(case["argv"]) == (case["code"], case["out"], case["err"])


WEIGHT_CASES = json.loads((Path(__file__).parent / "cli_weights_golden.json").read_text())


@pytest.mark.parametrize("case", WEIGHT_CASES, ids=lambda case: " ".join(case["argv"]))
def test_weight_bytes_unchanged(case):
    """``ktype minimal`` (no bound, a larger bound, a bound below the largest
    entry), ``duals branch`` and ``duals enum`` on every SO(d) weight with
    d <= 8 and entries of magnitude <= 2, byte for byte, as the CLI printed
    them while ``ktype minimal`` still enumerated K-types (commit 6ea6b26)."""
    assert run_captured(case["argv"]) == (case["code"], case["out"], case["err"])


MODEL_CASES = json.loads((Path(__file__).parent / "cli_model_golden.json").read_text())


@pytest.mark.parametrize("case", MODEL_CASES, ids=lambda case: " ".join(case["argv"]))
def test_model_bytes_unchanged(case, tmp_path):
    """``gap verdict``, ``sim poles/compare/laplace/correlate`` and
    ``stieltjes transform/invert/detect`` on untempered models and on measures
    without zero parts, byte for byte, as the CLI printed them while the
    verdict still took a list of (sigma, measure) pairs (commit 01c151c).
    Each case carries its input document."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(case["document"]))
    argv = with_doc(case["argv"], str(path))
    assert run_captured(argv) == (case["code"], case["out"], case["err"])


def two_channel_doc(atoms, pieces=()):
    """d = 2, delta = 1.7: a trivial channel with an atom at delta, and a
    (-1) channel with the given atoms and density pieces."""
    return {
        "d": 2,
        "delta": 1.7,
        "channels": [
            {"sigma": {"n": 2, "entries": [0]}, "coeff_re": [1.0],
             "measure": {"atoms": [{"t": 1.7, "w_re": 1.0}]}},
            {"sigma": {"n": 2, "entries": [-1]}, "coeff_re": [1.0],
             "measure": {
                 "atoms": [{"t": t, "w_re": w} for t, w in atoms],
                 "densities": [{"a": a, "b": b, "coeffs_re": c} for a, b, c in pieces],
             }},
        ],
    }


ZERO_PART_ARGV = [
    ["gap", "verdict", "--model", DOC],
    POLES_ARGV,
    ["sim", "compare", "--model", DOC],
    ["sim", "laplace", "--model", DOC, "--z-grid", "0.2:2:3"],
    ["sim", "correlate", "--model", DOC, "--t-max", "1", "--dt", "0.5"],
]


class TestZeroParts:
    """Zero-weight atoms and all-zero density pieces are not support: every
    model command treats a model with them as the model without them."""

    def run_on(self, capsys, tmp_path, doc, argv):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return invoke(capsys, with_doc(argv, str(path)))

    def test_verdict_and_poles_agree_on_zero_atoms(self, capsys, tmp_path):
        # zero atoms at delta and just below it in the non-trivial channel
        doc = two_channel_doc([(1.7, 0.0), (1.65, 0.0)])
        code, out, _ = self.run_on(capsys, tmp_path, doc, ["gap", "verdict", "--model", DOC])
        report = json.loads(out)
        assert code == 0 and report["verdict"] and report["offenders"] == []
        assert report["sup_support_below_delta"] is None
        code, out, _ = self.run_on(capsys, tmp_path, doc, POLES_ARGV)
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize("argv", ZERO_PART_ARGV, ids=lambda argv: " ".join(argv[:2]))
    def test_zero_parts_outside_interval_change_nothing(self, capsys, tmp_path, argv):
        plain = self.run_on(capsys, tmp_path, two_channel_doc([(1.2, 0.5)]), argv)
        zeros = two_channel_doc([(1.2, 0.5), (1.9, 0.0)], [(0.5, 3.0, [0.0, 0.0])])
        assert plain[0] in (0, 1) and self.run_on(capsys, tmp_path, zeros, argv) == plain


class TestJsonRoundTrips:
    def test_weight_output_loads(self, capsys):
        _, out, _ = invoke(capsys, ["ktype", "witness", "--d", "3", "--sigma", "2"])
        w = HighestWeight.from_json(json.loads(out))
        assert w.entries == (2, 0)

    def test_gap_params_loads(self, capsys):
        _, out, _ = invoke(
            capsys, ["gap", "params", "--kappa-gamma", "0.3", "--d", "3", "--delta", "2.0"]
        )
        doc = json.loads(out)
        doc.pop("schema")
        params = GapParameters.from_json(doc)
        assert params.kappa_gamma == 0.3

    def test_model_file_pipeline(self, tmp_path, capsys):
        from rankone_gap import Channel, validate

        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(validate(2, (0,)), RealLineMeasure(atoms=((1.5, 1.0),)), (1.0,)),
            ),
        )
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_json()))
        code, out, _ = invoke(capsys, ["gap", "verdict", "--model", str(path)])
        assert code == 0
        assert json.loads(out)["verdict"] is True

        code, out, _ = invoke(capsys, ["sim", "poles", "--model", str(path), "--eta", "0.1"])
        assert code == 0

        code, out, _ = invoke(
            capsys,
            ["sim", "correlate", "--model", str(path), "--t-max", "1", "--dt", "0.5"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 4

        code, out, _ = invoke(
            capsys,
            ["sim", "laplace", "--model", str(path), "--z-grid", "0.5:1:2"],
        )
        assert code == 0
        assert out.splitlines()[0] == "z_re,z_im,re,im,truncation_bound"

        code, out, _ = invoke(capsys, ["sim", "compare", "--model", str(path)])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_measure_file_pipeline(self, tmp_path, capsys):
        nu = RealLineMeasure(atoms=((0.0, 1.0),))
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(nu.to_json()))
        code, out, _ = invoke(
            capsys,
            ["stieltjes", "transform", "--model", str(path), "--z-re", "0", "--z-im", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["re"] == 0.0 and doc["im"] == -1.0

        code, out, _ = invoke(
            capsys,
            ["stieltjes", "invert", "--model", str(path), "--a", "-1", "--b", "1", "--k-max", "8"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mass_re"] == pytest.approx(1.0, abs=1e-4)
        assert doc["converged"] is True

        code, out, _ = invoke(
            capsys,
            ["stieltjes", "detect", "--model", str(path), "--a", "2", "--b", "3"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "vanishes"

    def test_rank_file(self, tmp_path, capsys):
        q = {
            "rows": [
                [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}],
                [{"re": 2.0, "im": 0.0}, {"re": 4.0, "im": 0.0}],
            ]
        }
        path = tmp_path / "q.json"
        path.write_text(json.dumps(q))
        code, out, _ = invoke(capsys, ["sim", "rank", "--q", str(path)])
        assert code == 0
        assert out.strip() == "1"


class TestFifteenDigits:
    def test_scan_values_have_15_significant_digits(self, capsys):
        _, out, _ = invoke(
            capsys, ["cfun", "scan", "--d", "2", "--sigma", "1", "--grid", "4"]
        )
        row = out.splitlines()[1].split(",")
        # 1/(s+1) at s = 1.25 has a long expansion; %.15g keeps 15 digits
        assert len(row[1].replace("-", "").replace(".", "").lstrip("0")) >= 14


def per_row_table(header, rows):
    """The CSV table one row at a time, each float as f"{x:.15g}"."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else f"{float(c):.15g}" for c in row))
    return "".join(line + "\n" for line in lines)


class TestCsvTables:
    """The one-block CSV writer gives the bytes of a row-by-row table."""

    @pytest.mark.parametrize(
        "sigma, tau, lo, hi, n",
        [
            # poles at s = -1 and 0, zeros at s = 3/2 and 5/2, negative values
            ("0", "2,0", -2.0, 3.0, 10),
            ("1", None, 1.5, 3.0, 7),
            ("1", None, 1.5, 3.0, 1),
        ],
    )
    def test_scan(self, capsys, sigma, tau, lo, hi, n):
        argv = ["cfun", "scan", "--d", "3", "--sigma", sigma, "--grid", str(n)]
        argv += ["--s-min", str(lo), "--s-max", str(hi)] + (["--tau", tau] if tau else [])
        tau_w = HighestWeight(4, tuple(int(e) for e in tau.split(","))) if tau else None
        report = nonvanishing_scan(HighestWeight(3, (int(sigma),)), 3,
                                   halfopen_grid(lo, hi, n), tau=tau_w)
        classes = {cls for _, _, cls in report.rows}
        assert tau is None or {"pole", "zero", "finite"} <= classes
        _, out, _ = invoke(capsys, argv)
        assert out == per_row_table("s,value,classification", report.rows)

    # complex coefficients give negative real and imaginary parts
    SIGNED_MODEL = {
        **VALID_MODEL,
        "channels": [
            {**VALID_MODEL["channels"][0], "coeff_re": [-1.0, 0.5], "coeff_im": [0.0, -0.75]}
        ],
    }

    @pytest.mark.parametrize("t_max", ["3", "0"])
    def test_correlate(self, capsys, tmp_path, t_max):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.SIGNED_MODEL))
        ts = np.arange(0.0, float(t_max) + 0.25, 0.5)
        values = correlation(SpectralModel.from_json(self.SIGNED_MODEL), ts)
        rows = [(t, v.real, v.imag) for t, v in zip(ts, np.atleast_1d(values))]
        assert any(v < 0 for row in rows for v in row)
        _, out, _ = invoke(capsys, ["sim", "correlate", "--model", str(path),
                                    "--t-max", t_max, "--dt", "0.5"])
        assert out == per_row_table("t,re,im", rows)

    @pytest.mark.parametrize("spec, zs", [
        ("0.2:2:4:-0.5", [complex(x, -0.5) for x in np.linspace(0.2, 2, 4)]),
        ("0.2:2:1", [0.2 + 0j]),
    ])
    def test_laplace(self, capsys, tmp_path, spec, zs):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.SIGNED_MODEL))
        res = laplace_numeric(SpectralModel.from_json(self.SIGNED_MODEL), np.array(zs))
        values, bounds = np.atleast_1d(res.value), np.atleast_1d(res.truncation_bound)
        rows = [(z.real, z.imag, v.real, v.imag, b) for z, v, b in zip(zs, values, bounds)]
        assert any(v < 0 for row in rows for v in row)
        _, out, _ = invoke(capsys, ["sim", "laplace", "--model", str(path), "--z-grid", spec])
        assert out == per_row_table("z_re,z_im,re,im,truncation_bound", rows)
