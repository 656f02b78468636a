"""CLI behavior: subcommands, flags, exit codes, report formats."""

import json
import time

import pytest

from qassert.cli import main
from qassert.parser import parse_circuit
from qassert.runner import ProgramConfig, render_report, run_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExampleCommand:
    def test_bell_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "example", "bell", "--shots", "1000")
        assert code == 0  # verdict fail was expected, so the run matches
        assert "PRODUCT" in out
        assert "FISHER_EXACT" in out
        assert "failed" in out
        assert "summary: 1 checkpoints" in out

    def test_xgate_passes_and_legacy_flag_flips_it(self, capsys):
        code, out, _ = run_cli(capsys, "example", "xgate", "--shots", "1000")
        assert code == 0
        assert "p=1 passed" in out
        code, out, _ = run_cli(capsys, "example", "xgate", "--shots", "1000",
                               "--legacy-chisq")
        assert code == 1
        assert "LEGACY_CHI_SQUARE_ADD1" in out
        assert "failed" in out

    def test_unknown_example_is_lookup_error(self, capsys):
        code, _, err = run_cli(capsys, "example", "ghz9")
        assert code == 2
        assert "unknown example" in err

    def test_unknown_bug_rejected(self, capsys):
        code, _, err = run_cli(capsys, "example", "bv", "--inject-bug", "nonsense")
        assert code == 2
        assert "does not support" in err

    def test_bv_bug_run_exits_nonzero(self, capsys):
        code, out, _ = run_cli(capsys, "example", "bv", "--shots", "2000",
                               "--inject-bug", "drop-setup-hadamard")
        assert code == 1
        assert "MISMATCH" in out

    def test_list_examples(self, capsys):
        code, out, _ = run_cli(capsys, "list-examples")
        assert code == 0
        for name in ("bell", "xgate", "teleport", "bv", "qft"):
            assert name in out


class TestRunCommand:
    def test_run_circuit_file(self, capsys, tmp_path):
        path = tmp_path / "bell.qc"
        path.write_text("qubits 2\nh 0\ncx 0 1\nassert_product [0] [1] "
                        "shots=500 verdict=fail\n")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "failed expected=fail match" in out

    def test_run_file_without_checkpoints(self, capsys, tmp_path):
        path = tmp_path / "plain.qc"
        path.write_text("qubits 1\nh 0\n")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "summary: 0 checkpoints" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "/does/not/exist.qc")
        assert code == 2
        assert "error" in err

    def test_parse_error_reported_with_location(self, capsys, tmp_path):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 1\nbadgate 0\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("angle", ["nan", "inf", "1e400"])
    def test_non_finite_angle_is_located_parse_error(self, capsys, tmp_path, angle):
        path = tmp_path / "nan.qc"
        path.write_text(f"qubits 1\nrx {angle} 0\nassert_uniform 0\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "line 2" in err and "finite" in err
        assert "Traceback" not in err and out == ""


class TestJsonReport:
    def test_json_round_trip_identity(self, capsys):
        _, out, _ = run_cli(capsys, "example", "xgate", "--shots", "500",
                            "--format", "json")
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out

    def test_json_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "example", "bell", "--shots", "800",
                              "--seed", "5", "--format", "json")
        _, second, _ = run_cli(capsys, "example", "bell", "--shots", "800",
                               "--seed", "5", "--format", "json")
        assert first == second

    def test_json_fields(self, capsys):
        _, out, _ = run_cli(capsys, "example", "xgate", "--shots", "500",
                            "--format", "json")
        payload = json.loads(out)
        assert payload["config"]["shots"] == 500
        assert payload["summary"] == {"checkpoints": 1, "passed": 1,
                                      "failed": 0, "mismatched": 0, "errors": 0}
        checkpoint = payload["checkpoints"][0]
        assert checkpoint["kind"] == "PRODUCT"
        assert checkpoint["method"] == "FISHER_EXACT"
        assert checkpoint["p_value"] == 1.0
        assert checkpoint["table_shape"] == [2, 2]
        assert checkpoint["passed"] is True


class TestSeedHandling:
    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QASSERT_SEED", "7")
        _, with_env, _ = run_cli(capsys, "example", "bell", "--shots", "200",
                                 "--format", "json")
        monkeypatch.delenv("QASSERT_SEED")
        _, explicit, _ = run_cli(capsys, "example", "bell", "--shots", "200",
                                 "--seed", "7", "--format", "json")
        assert with_env == explicit

    def test_cli_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QASSERT_SEED", "7")
        _, out, _ = run_cli(capsys, "example", "bell", "--shots", "200",
                            "--seed", "3", "--format", "json")
        assert json.loads(out)["config"]["seed"] == 3


class TestConfigValidation:
    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "example", "bell", "--alpha", "2.0")
        assert code == 2
        assert "alpha" in err

    def test_zero_resamples(self, capsys):
        code, _, err = run_cli(capsys, "example", "bell", "--resamples", "0")
        assert code == 2

    def test_resamples_above_cap_is_checkpoint_error(self, capsys):
        code, out, _ = run_cli(capsys, "example", "teleport", "--shots", "500",
                               "--resamples", "1000000000000", "--format", "json")
        assert code == 1
        [checkpoint] = json.loads(out)["checkpoints"]
        assert checkpoint["error"].startswith("CapacityError")

    def test_shots_above_cap_is_checkpoint_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "example", "bell", "--shots", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "ERROR CapacityError" in out
        assert "Traceback" not in out + err

    def test_table_above_cell_cap_is_checkpoint_error(self, capsys, tmp_path):
        # 2^7 x 2^7 = 16384 cells, past the Monte Carlo cell cap
        path = tmp_path / "wide_product.qc"
        path.write_text("qubits 14\n" + "".join(f"h {q}\n" for q in range(14))
                        + "assert_product [0 1 2 3 4 5 6] [7 8 9 10 11 12 13]\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "ERROR CapacityError" in out
        assert "Traceback" not in out + err

    def test_program_config_validation_direct(self):
        with pytest.raises(ValueError):
            ProgramConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ProgramConfig(shots=0)
        report = run_program(parse_circuit("qubits 1\n"), ProgramConfig())
        with pytest.raises(ValueError):
            render_report(report, "xml")


class TestRenderReport:
    def test_error_checkpoint_rendered_and_counted(self):
        # uniform over 11 qubits at 1000 shots is infeasible: the checkpoint
        # reports an error, the run exits nonzero
        text = "qubits 11\n" + "\n".join(f"h {q}" for q in range(11)) + \
               "\nassert_uniform " + " ".join(str(q) for q in range(11)) + "\n"
        circuit = parse_circuit(text)
        report = run_program(circuit, ProgramConfig(shots=1000))
        assert report.n_errors == 1
        assert report.exit_status() == 1
        rendered = render_report(report, "text")
        assert "ERROR" in rendered
        assert "InfeasibleShotsError" in rendered
        payload = json.loads(render_report(report, "json"))
        assert payload["summary"]["errors"] == 1
