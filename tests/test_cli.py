"""CLI behavior: subcommands, flags, exit codes, report formats."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qassert import runner, sim
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


THREE_CHECKPOINTS = ("qubits 2\nh 0\nassert_uniform 0\nx 1\n"
                     "assert_classical 1 expect=1\nassert_product [0] [1]\n")


@pytest.fixture
def second_checkpoint_raises(monkeypatch):
    """Make evaluating the second checkpoint raise a non-qassert exception."""
    evaluate = runner.evaluate_checkpoint
    calls = []

    def flaky(circuit, index, config, *held):
        calls.append(index)
        if len(calls) == 2:
            raise RuntimeError("injected fault")
        return evaluate(circuit, index, config, *held)

    monkeypatch.setattr(runner, "evaluate_checkpoint", flaky)


class TestFaultContainment:
    def test_fault_is_that_checkpoints_error_and_the_trail_goes_on(
            self, second_checkpoint_raises):
        report = run_program(parse_circuit(THREE_CHECKPOINTS),
                             ProgramConfig(shots=200, resamples=99))
        first, second, third = report.checkpoints
        assert first.result is not None and third.result is not None
        assert second.result is None
        assert second.error == "RuntimeError: injected fault"
        assert report.exit_status() == 1
        assert "#3 ERROR RuntimeError: injected fault" in render_report(report, "text")
        payload = json.loads(render_report(report, "json"))
        assert payload["checkpoints"][1] == {"index": 3, "error": "RuntimeError: injected fault"}
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["checkpoints"] == 3

    def test_cli_reports_the_fault_without_a_traceback(
            self, second_checkpoint_raises, capsys, tmp_path):
        path = tmp_path / "three.qc"
        path.write_text(THREE_CHECKPOINTS)
        code, out, err = run_cli(capsys, "run", str(path), "--format", "json")
        assert code == 1
        assert [c["index"] for c in json.loads(out)["checkpoints"]] == [1, 3, 4]
        assert "Traceback" not in out + err

    def test_a_fault_partway_through_advancing_the_held_state_drops_it(
            self, monkeypatch):
        # Checkpoint 2 advances the held state by `x 1` and then `h 2`. The
        # fault hits `h 2`, after `x 1` has changed the state; reusing that
        # state from the old position would apply `x 1` twice.
        circuit = parse_circuit("qubits 3\nh 0\nassert_uniform 0\nx 1\nh 2\n"
                                "assert_uniform 2\ncx 0 2\nassert_classical 1 expect=1\n")
        config = ProgramConfig(shots=200)
        clean = json.loads(render_report(run_program(circuit, config), "json"))
        apply_gate = sim.apply_gate
        calls = []

        def faulty(state, gate):
            calls.append(gate)
            if len(calls) == 3:
                raise RuntimeError("injected fault")
            return apply_gate(state, gate)

        monkeypatch.setattr(sim, "apply_gate", faulty)
        faulted = json.loads(render_report(run_program(circuit, config), "json"))
        assert calls[2] == circuit.items[3]
        assert faulted["checkpoints"][0] == clean["checkpoints"][0]
        assert faulted["checkpoints"][1] == {"index": 4, "error": "RuntimeError: injected fault"}
        assert faulted["checkpoints"][2] == clean["checkpoints"][2]
        assert clean["checkpoints"][2]["passed"]


# Circuit-file grammar fuzzing: valid statements with some tokens swapped
# for malformed ones, a token dropped, or a stray token added.
_BAD_TOKENS = ["nan", "inf", "-inf", "1e400", "-1", "-7", "12345678901234567890",
               "\u0663", "\u0661.5", "[", "]", "[0", "1]", "[]", "->", "=", "x"]
_TOKEN = st.sampled_from(_BAD_TOKENS)
_QUBIT = st.one_of(st.sampled_from(["0", "1", "2"]), _TOKEN)
_ANGLE = st.one_of(st.sampled_from(["0.5", "-1.25", "3.141592653589793"]), _TOKEN)
_GROUP = st.lists(_QUBIT, max_size=3).map(lambda qs: "[" + " ".join(qs) + "]")
_OPTION = st.sampled_from([
    "", "alpha=0.05", "alpha=nan", "alpha=1.5", "alpha=", "shots=100", "shots=0",
    "shots=" + "9" * 30, "shots=\u0665", "resamples=19", "resamples=-3",
    "verdict=pass", "verdict=fail", "verdict=maybe", "expect=01", "expect=2", "=",
])
_ARGUMENTS = {
    "h": [_QUBIT], "rx": [_ANGLE, _QUBIT], "cx": [_QUBIT, _QUBIT],
    "cr1": [_ANGLE, _QUBIT, _QUBIT], "swap": [_QUBIT, _QUBIT],
    "measure": [_QUBIT, st.just("->"), _QUBIT], "cif": [_QUBIT, st.just("x"), _QUBIT],
    "assert_classical": [_QUBIT, _QUBIT, _OPTION], "assert_uniform": [_QUBIT, _OPTION],
    "assert_product": [_GROUP, _GROUP, _OPTION, _OPTION], "qubits": [_QUBIT],
}


@st.composite
def _statement(draw):
    head = draw(st.sampled_from(sorted(_ARGUMENTS)))
    tokens = [head] + [draw(arg) for arg in _ARGUMENTS[head]]
    edit = draw(st.sampled_from(["keep", "keep", "drop", "add"]))
    if edit == "drop":
        del tokens[draw(st.integers(1, len(tokens) - 1))]
    elif edit == "add":
        tokens.insert(draw(st.integers(1, len(tokens))), draw(_TOKEN))
    return " ".join(tokens)


_HEADER = st.one_of(st.sampled_from(["1", "2", "3"]),
                    st.sampled_from(["0", "21", "\u0662", "nan", "-1", "9" * 20]))


class TestCircuitFileFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=_HEADER, body=st.lists(_statement(), max_size=6))
    def test_no_exception_escapes_the_cli(self, tmp_path, header, body):
        path = tmp_path / "fuzz.qc"
        path.write_text("\n".join([f"qubits {header}"] + body) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--shots", "50", "--resamples", "19"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
