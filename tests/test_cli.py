"""CLI contract: exit codes, report files, config handling, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
INDEPENDENT = REPO / "data" / "independent.csv"


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "shaplab", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
        timeout=timeout,
    )


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path


class TestExplain:
    def test_linear_matches_closed_form(self, out_dir):
        result = run_cli(
            "explain",
            "--dataset", str(INDEPENDENT),
            "--model", "linear:0.5,2,-1,0.5",
            "--instance", "1,3,-2",
            "--value-fn", "marginal-joint",
            "--solver", "exact",
            "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "attribution.json").read_text())
        assert [v["phi"] for v in payload["values"]] == pytest.approx([2.0, -3.0, -1.0], abs=1e-9)
        assert [v["feature"] for v in payload["values"]] == ["x1", "x2", "x3"]
        assert payload["contrast"] == {"fx": -1.5, "base": 0.5}
        assert payload["method"] == "exact-subset"
        assert payload["config"]["model"] == "linear:0.5,2,-1,0.5"
        assert "out" not in payload["config"]

    def test_instance_at_mean_earns_zero(self, out_dir):
        result = run_cli(
            "explain",
            "--dataset", str(INDEPENDENT),
            "--model", "linear:0.5,2,-1,0.5",
            "--instance", "0,0,0",
            "--out", str(out_dir),
        )
        assert result.returncode == 0
        payload = json.loads((out_dir / "attribution.json").read_text())
        assert [v["phi"] for v in payload["values"]] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_instance_row_index_and_sampled_solver(self, out_dir):
        result = run_cli(
            "explain",
            "--dataset", str(INDEPENDENT),
            "--model", "multiplicative",
            "--instance", "7",
            "--solver", "sampled",
            "--n-samples", "500",
            "--seed", "3",
            "--out", str(out_dir),
        )
        assert result.returncode == 0
        payload = json.loads((out_dir / "attribution.json").read_text())
        assert payload["method"] == "sampled"
        assert payload["diagnostics"]["seed"] == 3

    def test_tree_model_from_file(self, out_dir, tmp_path):
        tree_file = tmp_path / "m.tree"
        tree_file.write_text(
            "tree 0\n0 split 0 0.0 1 2 8\n1 leaf -1.0 4\n2 leaf 1.0 4\n"
        )
        result = run_cli(
            "explain",
            "--dataset", str(INDEPENDENT),
            "--model", str(tree_file),
            "--instance", "7",
            "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "attribution.json").read_text())
        assert payload["contrast"]["fx"] == 1.0


class TestExitCodes:
    def test_sampled_without_seed_is_config_error(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "0", "--solver", "sampled", "--out", str(out_dir),
        )
        assert result.returncode == 2
        assert "seed" in result.stderr

    def test_missing_dataset_is_load_error(self, out_dir):
        result = run_cli(
            "explain", "--dataset", "no-such.csv", "--model", "recourse",
            "--instance", "0", "--out", str(out_dir),
        )
        assert result.returncode == 3

    def test_unknown_builtin_model(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "spline",
            "--instance", "0", "--out", str(out_dir),
        )
        assert result.returncode == 3

    def test_continuous_conditional_is_computation_error(self, out_dir, tmp_path):
        csv = tmp_path / "cont.csv"
        csv.write_text("x\n0.5\n1.5\n")
        result = run_cli(
            "explain", "--dataset", str(csv), "--model", "recourse",
            "--instance", "0", "--value-fn", "conditional", "--out", str(out_dir),
        )
        assert result.returncode == 4
        assert "continuous" in result.stderr

    def test_empty_conditioning_names_coalition(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "5,5,5", "--value-fn", "conditional", "--out", str(out_dir),
        )
        assert result.returncode == 4
        assert "{x1}" in result.stderr

    def test_asymmetric_without_edges(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "0", "--solver", "asymmetric", "--out", str(out_dir),
        )
        assert result.returncode == 2

    def test_edges_with_exact_solver_rejected(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "0", "--edges", "x1->x2", "--out", str(out_dir),
        )
        assert result.returncode == 2

    def test_cyclic_edges_rejected(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "0", "--solver", "asymmetric",
            "--edges", "x1->x2,x2->x1", "--out", str(out_dir),
        )
        assert result.returncode == 2
        assert "cycle" in result.stderr

    def test_unknown_scenario(self, out_dir):
        result = run_cli("scenario", "nosuch", "--out", str(out_dir))
        assert result.returncode == 2

    def test_cyclic_tree_file_is_load_error(self, out_dir, tmp_path):
        tree_file = tmp_path / "cyclic.tree"
        tree_file.write_text("0 split 0 0.5 0 1 5\n1 leaf 1.0 0\n")
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", str(tree_file),
            "--instance", "0,0,0", "--out", str(out_dir), timeout=60,
        )
        assert result.returncode == 3
        assert "reached twice" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_is_load_error(self, out_dir, tmp_path, value):
        csv = tmp_path / "bad.csv"
        csv.write_text(f"a,b\n0,1\n1,{value}\n")
        result = run_cli(
            "explain", "--dataset", str(csv), "--model", "linear:0,1,1",
            "--instance", "0", "--out", str(out_dir),
        )
        assert result.returncode == 3
        assert f"{csv}:3" in result.stderr
        assert not (out_dir / "attribution.json").exists()

    def test_non_finite_model_output_names_coalition(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "linear:0,1e307,1e307,0",
            "--instance", "10,10,0", "--out", str(out_dir),
        )
        assert result.returncode == 4
        assert "not finite" in result.stderr and "{x1}" in result.stderr
        assert not (out_dir / "attribution.json").exists()

    def test_non_finite_instance_is_config_error(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "1,nan,0", "--out", str(out_dir),
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--value-fn", "product-of-marginals", "--seed", "1"],
            ["--value-fn", "marginal-joint", "--seed", "1"],
            ["--solver", "sampled", "--seed", "1"],
        ],
        ids=["product-of-marginals", "marginal-joint", "sampled"],
    )
    @pytest.mark.parametrize("n_samples", ["0", "-3"])
    def test_n_samples_below_one_is_config_error(self, out_dir, extra, n_samples):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "0", "--n-samples", n_samples, *extra, "--out", str(out_dir),
        )
        assert result.returncode == 2
        assert "--n-samples" in result.stderr

    def test_scenario_n_samples_below_one_is_config_error(self, out_dir):
        result = run_cli("scenario", "recourse", "--n-samples", "0", "--out", str(out_dir))
        assert result.returncode == 2

    def test_ragged_csv_row_is_load_error(self, out_dir, tmp_path):
        csv = tmp_path / "ragged.csv"
        csv.write_text("a,b\n1,2\n3\n")
        result = run_cli(
            "explain", "--dataset", str(csv), "--model", "linear:0,1,1",
            "--instance", "0", "--out", str(out_dir),
        )
        assert result.returncode == 3
        assert f"{csv}:3" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (out_dir / "attribution.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
             "--instance", "0", "--solver", "sampled"],
            ["explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
             "--instance", "0", "--value-fn", "product-of-marginals"],
            ["audit", "--dataset", str(INDEPENDENT), "--model", "multiplicative", "--instance", "0"],
            ["scenario", "linear"],
        ],
        ids=["explain-sampled", "explain-product-of-marginals", "audit", "scenario"],
    )
    def test_negative_seed_is_config_error(self, out_dir, argv):
        result = run_cli(*argv, "--seed", "-1", "--out", str(out_dir))
        assert result.returncode == 2
        assert "--seed" in result.stderr
        assert "Traceback" not in result.stderr
        assert list(out_dir.iterdir()) == []


class TestScenarioCommand:
    def test_beetle_passes(self, out_dir):
        result = run_cli("scenario", "beetle", "--out", str(out_dir))
        assert result.returncode == 0
        payload = json.loads((out_dir / "beetle.json").read_text())
        assert payload["id"] == "beetle"
        assert all(c["pass"] for c in payload["claims"])

    def test_asymmetric_solver_via_cli(self, out_dir):
        result = run_cli(
            "explain", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "7", "--solver", "asymmetric", "--edges", "x1->x3",
            "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "attribution.json").read_text())
        assert payload["method"] == "asymmetric"
        assert payload["diagnostics"]["admissible_permutations"] == 3

    def test_single_scenario_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("scenario", "engineered-feature", "--seed", "5", "--out", str(d1)).returncode == 0
        assert run_cli("scenario", "engineered-feature", "--seed", "5", "--out", str(d2)).returncode == 0
        for name in ("engineered-feature.json", "engineered_hybrids.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestAudit:
    def test_asymmetric_above_old_enumeration_cap(self, out_dir, tmp_path):
        d = 12
        rows = np.round(np.random.default_rng(3).standard_normal((16, d)), 6)
        csv = tmp_path / "wide.csv"
        csv.write_text(
            ",".join(f"f{j}" for j in range(d)) + "\n"
            + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        )
        model = "linear:0.5," + ",".join(str(j - 5) for j in range(d))
        result = run_cli(
            "audit", "--dataset", str(csv), "--model", model, "--instance", "2",
            "--solver", "asymmetric", "--edges", "f0->f3,f3->f11,f7->f2", "--out", str(out_dir),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "audit.json").read_text())
        assert payload["pass"] is True and payload["method"] == "asymmetric"

    def test_exact_solver_passes(self, out_dir):
        result = run_cli(
            "audit", "--dataset", str(INDEPENDENT), "--model", "linear:0,1,1,0",
            "--instance", "0", "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "audit.json").read_text())
        assert payload["pass"] is True
        assert payload["efficiency_gap"] <= 1e-6
        assert payload["additivity_gap"] <= 1e-6

    def test_equal_split_reports_additivity_violation(self, out_dir):
        result = run_cli(
            "audit", "--dataset", str(INDEPENDENT), "--model", "multiplicative",
            "--instance", "7", "--solver", "equal-split", "--seed", "11",
            "--out", str(out_dir),
        )
        assert result.returncode == 5
        payload = json.loads((out_dir / "audit.json").read_text())
        assert payload["additivity_gap"] > 1e-6
        assert payload["pass"] is False

    def test_sampled_efficiency_flagged_not_failed(self, out_dir):
        result = run_cli(
            "audit", "--dataset", str(INDEPENDENT), "--model", "linear:0,1,1,0",
            "--instance", "0", "--solver", "sampled", "--n-samples", "1",
            "--seed", "2", "--tolerance", "0.5", "--out", str(out_dir),
        )
        payload = json.loads((out_dir / "audit.json").read_text())
        assert payload["method"] == "sampled"
        assert result.returncode == 0, (result.stderr, payload)


class TestConfigFile:
    def test_config_file_with_flag_override(self, out_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "dataset = {}\nmodel = linear:0.5,2,-1,0.5\ninstance = 0,0,0\n"
            "value_fn = marginal-joint\nsolver = exact\n".format(INDEPENDENT)
        )
        result = run_cli(
            "explain", "--config", str(config), "--instance", "1,3,-2",
            "--out", str(out_dir),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "attribution.json").read_text())
        # the flag wins over the config file's instance
        assert payload["config"]["instance"] == "1,3,-2"
        assert [v["phi"] for v in payload["values"]] == pytest.approx([2.0, -3.0, -1.0], abs=1e-9)

    def test_unknown_config_key(self, out_dir, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("wibble = 3\n")
        result = run_cli("explain", "--config", str(config), "--out", str(out_dir))
        assert result.returncode == 2

    def test_missing_config_file(self, out_dir):
        result = run_cli("explain", "--config", "no.cfg", "--out", str(out_dir))
        assert result.returncode == 2
