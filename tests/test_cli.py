import json

import pytest

from rankone_gap import GapParameters, HighestWeight, RealLineMeasure, SpectralModel
from rankone_gap.cli import run


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
