import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow.cli import (
    RunConfig,
    build_parser,
    main,
    matrix_from_json,
    matrix_to_json,
    parse_config,
    resolve_pair,
)
from backflow.dynamics import lambda_map_coefficients, make_grid, rates_from_model
from backflow.errors import BackflowError, ParseError, ValidationError

MPAIR_BACKFLOW = 1.0 - np.exp(-0.12)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def zero_plus_pair_file(tmp_path):
    zero = [[1, 0], [0, 0]]
    plus = [[0.5, 0.5], [0.5, 0.5]]
    return write_json(tmp_path / "pair.json", [zero, plus])


class TestParseConfig:
    def test_defaults(self):
        config = parse_config()
        assert config.t_max == pytest.approx(2 * np.pi)
        assert config.grid_steps == 2000
        assert config.bins == 50
        assert config.engine == "closed_form"
        assert config.format == "csv"
        assert config.model["preset"] == "sinusoidal"
        assert config.model["amplitude"] == pytest.approx(0.03)

    def test_file_and_overrides(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"samples": 500, "seed": 42})
        config = parse_config(path, {"seed": 99})
        assert config.samples == 500
        assert config.seed == 99  # flags win

    def test_paper_scale_sample_size_accepted(self):
        assert parse_config(None, {"samples": 10**5}).samples == 10**5

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid_steps"):
            parse_config(None, {"grid_steps": 5})

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError, match="trials"):
            parse_config(None, {"trials": 0})

    def test_unknown_field_rejected(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"sampels": 3})
        with pytest.raises(ValidationError, match="sampels"):
            parse_config(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  samples: 3\n}")
        with pytest.raises(ParseError, match=r":2:"):
            parse_config(str(path))

    def test_candidate_pairs_validated_at_load(self, tmp_path):
        good = write_json(
            tmp_path / "good.json",
            {"candidate_pairs": [[[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]]},
        )
        config = parse_config(good)
        assert len(config.candidate_pairs) == 1
        bad = write_json(
            tmp_path / "bad.json",
            {"candidate_pairs": [[[[2, 0], [0, -1]], [[1, 0], [0, 0]]]]},
        )
        with pytest.raises(ValidationError, match=r"candidate_pairs\[0\]"):
            parse_config(bad)

    def test_dims_accepted_as_tuple(self):
        assert parse_config(None, {"dims": (2, 3)}).dims == (2, 3)

    def test_matrix_round_trip(self):
        m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        np.testing.assert_allclose(matrix_from_json(matrix_to_json(m), "x"), m)


# each value once ended in a traceback, a silent truncation or an ignored key
BAD_CONFIG_VALUES = [
    ({"grid_steps": "abc"}, "grid_steps"),
    ({"grid_steps": 2000.5}, "grid_steps"),
    ({"samples": 2.5}, "samples"),
    ({"bins": 2.5}, "bins"),
    ({"t_max": "7"}, "t_max"),
    ({"seed": "x"}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"samples": True}, "samples"),
    ({"dims": 5}, "dims"),
    ({"candidate_pairs": 5}, "candidate_pairs"),
    ({"candidate_pairs": [[[[10**400]], [[1]]]]}, "candidate_pairs"),
    ({"candidate_pairs": [[[[float("nan")]], [[1]]]]}, "candidate_pairs"),
    ({"model": {"preset": "sinusoidal", "amplitude": "x"}}, "model.amplitude"),
    ({"model": {"preset": "sinusoidal", "amplitud": 0.3}}, "model.amplitud"),
    ({"model": {"preset": "tabulated", "gamma1": 5}}, "model.gamma1"),
    # sizes that allocate memory are capped
    ({"grid_steps": 10**15}, "grid_steps"),
    ({"samples": 10**15}, "samples"),
    ({"bins": 10**15}, "bins"),
    ({"dims": [2, 10**15]}, "dims"),
    ({"trials": 10**15}, "trials"),
    # each suite keys its stream by (seed, suite, dim): a repeat adds no coverage
    ({"dims": [2, 2]}, "dims"),
]


@pytest.mark.parametrize("values, field", BAD_CONFIG_VALUES)
def test_bad_config_value_is_one_validation_error(tmp_path, capsys, values, field):
    cfg = write_json(tmp_path / "cfg.json", values)
    assert main(["trajectory", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error (ValidationError): {field}")


@pytest.mark.parametrize(
    "args",
    [
        ["measure", "--format", "csv"],
        ["histogram", "--engine", "integrator"],
        ["verify", "--grid-steps", "400"],
        ["translate", "--pair", "mpair", "--seed", "3"],
        ["trajectory", "--samples", "5"],
    ],
)
def test_flag_of_a_field_the_command_does_not_read_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_command_takes_the_flags_of_the_fields_it_reads():
    accepted = {}
    for name, choice in build_parser()._subparsers._group_actions[0].choices.items():
        accepted[name] = {flag for action in choice._actions for flag in action.option_strings} - {"-h", "--help"}
    assert accepted == {
        "trajectory": {"--config", "--t-max", "--grid-steps", "--engine", "--format", "--output", "--pair"},
        "measure": {"--config", "--t-max", "--grid-steps", "--seed", "--samples", "--refine", "--output"},
        "histogram": {"--config", "--t-max", "--grid-steps", "--seed", "--samples", "--bins", "--format", "--output"},
        "verify": {"--config", "--seed", "--dims", "--trials", "--output", "--inject-fault"},
        "translate": {"--config", "--output", "--pair"},
    }


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, 10**15, 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([f.name for f in fields(RunConfig)]), value=JSON_VALUES)
def test_any_config_value_parses_or_raises_backflow_error(tmp_path_factory, name, value):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps({name: value}))
    try:
        parse_config(str(path))
    except BackflowError:
        pass


MODEL_KEYS = ["preset", "amplitude", "frequency", "gamma", "shift", "gamma1", "gamma2", "lambda1", "lambda2"]


@settings(max_examples=300, deadline=None)
@given(
    preset=st.sampled_from(["sinusoidal", "constant", "zero", "tabulated"]),
    key=st.sampled_from(MODEL_KEYS),
    value=JSON_VALUES,
)
def test_any_model_value_resolves_or_raises_backflow_error(preset, key, value):
    try:
        lambda_map_coefficients(rates_from_model({"preset": preset, key: value}), make_grid(2 * np.pi, 10))
    except BackflowError:
        pass


class TestTrajectoryCommand:
    def test_mpair_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--pair", "mpair", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,distance,sigma"
        final = lines[-2].split(",")  # last data row before the backflow footer
        assert float(final[1]) == pytest.approx(1.0, abs=1e-5)
        assert lines[-1].startswith("# backflow,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(MPAIR_BACKFLOW, abs=1e-5)

    def test_identical_pair_zero_distance(self, tmp_path):
        state = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
        pair = write_json(tmp_path / "same.json", [state, state])
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--pair", pair, "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
        assert all(float(row[1]) == 0.0 for row in rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main(
            ["trajectory", "--pair", "pure-ab", "--format", "json", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "trajectory"
        assert payload["results"]["backflow"] == pytest.approx(MPAIR_BACKFLOW / 2, abs=1e-5)
        assert len(payload["results"]["distance"]) == 2001

    def test_integrator_engine(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "trajectory", "--pair", "mpair", "--engine", "integrator",
                "--grid-steps", "300", "--output", str(out),
            ]
        )
        assert code == 0
        final = out.read_text().splitlines()[-2].split(",")
        assert float(final[1]) == pytest.approx(1.0, abs=1e-5)


class TestMeasureCommand:
    def test_defaults_include_reference_pair(self, tmp_path):
        out = tmp_path / "measure.json"
        assert main(["measure", "--samples", "5", "--seed", "1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        results = payload["results"]
        assert results["estimate"] >= 0.113070
        assert results["bound_type"] == "lower"
        assert results["candidate_breakdown"]["explicit"] >= 0.113070
        assert results["seed"] == 1
        best = matrix_from_json(results["best_pair"][0], "best")
        assert best.shape == (3, 3)

    def test_markovian_model_zero(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"preset": "constant", "gamma": 0.03}})
        out = tmp_path / "measure.json"
        assert main(["measure", "--config", cfg, "--samples", "30", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["estimate"] == 0.0

    def test_zero_rates_zero(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"preset": "zero"}})
        out = tmp_path / "measure.json"
        assert main(["measure", "--config", cfg, "--samples", "10", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["estimate"] == 0.0


class TestHistogramCommand:
    def test_gap_reproduced(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main(
            ["histogram", "--samples", "400", "--bins", "30", "--seed", "2", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count,probability"
        meta = {
            line[2:].split(",")[0]: line[2:].split(",")[1]
            for line in lines
            if line.startswith("# ")
        }
        assert float(meta["max_sampled"]) < float(meta["reference_value"])
        assert int(meta["n_samples"]) == 400

    def test_probabilities_sum_to_one(self, tmp_path):
        out = tmp_path / "hist.csv"
        main(["histogram", "--samples", "200", "--bins", "25", "--seed", "3", "--output", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_markovian_single_zero_bin(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"preset": "constant", "gamma": 0.03}})
        out = tmp_path / "hist.csv"
        main(["histogram", "--config", cfg, "--samples", "60", "--bins", "20", "--output", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        counts = [int(r[2]) for r in rows]
        assert counts[0] == 60
        assert sum(1 for c in counts if c > 0) == 1

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["histogram", "--samples", "150", "--seed", "4"]
        main(args + ["--output", str(out1)])
        main(args + ["--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "hist.json"
        main(["histogram", "--samples", "80", "--seed", "4", "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert len(payload["results"]["counts"]) == 50
        assert sum(payload["results"]["probabilities"]) == pytest.approx(1.0, abs=1e-12)

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["histogram", "--samples", "150", "--seed", "5"]
        monkeypatch.delenv("BACKFLOW_THREADS", raising=False)
        assert main(args + ["--output", str(out1)]) == 0
        # the variable no longer selects anything; a bad value must not crash
        monkeypatch.setenv("BACKFLOW_THREADS", "abc")
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestTranslateCommand:
    def test_zero_plus_pair(self, tmp_path, zero_plus_pair_file):
        out = tmp_path / "translate.json"
        assert main(["translate", "--pair", zero_plus_pair_file, "--output", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["epsilon_max"] == pytest.approx(1.20711, abs=1e-5)
        assert min(results["min_eigenvalues"]) > 0.0
        assert results["distance_preserved"] < 1e-10
        shift = matrix_from_json(results["shift"], "shift")
        assert abs(np.trace(shift)) < 1e-12

    def test_orthogonal_pair_exit_code(self, capsys):
        assert main(["translate", "--pair", "pure-ab"]) == 1
        assert "OrthogonalPair" in capsys.readouterr().err

    def test_named_pairs_resolve(self):
        for name in ("mpair", "pure-ab", "pure-a-plus"):
            rho1, rho2 = resolve_pair(name)
            assert rho1.dim == rho2.dim == 3

    def test_missing_pair_file(self):
        assert main(["translate", "--pair", "no-such-file.json"]) == 1


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--trials", "5", "--seed", "6", "--output", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS metric-symmetry" in captured
        assert "FAIL" not in captured
        payload = json.loads(out.read_text())
        assert payload["violations"] == []
        assert payload["results"]["n_failed"] == 0

    def test_injected_fault_fails_translation_suite(self, capsys):
        code = main(["verify", "--trials", "4", "--seed", "6", "--inject-fault", "shift-sign"])
        captured = capsys.readouterr().out
        assert code == 2
        assert "FAIL translate-strictly-interior" in captured

    def test_zero_trials_rejected(self, capsys):
        assert main(["verify", "--trials", "0"]) == 1


class TestReportContract:
    def test_json_payload_round_trips(self, tmp_path):
        out = tmp_path / "measure.json"
        main(["measure", "--samples", "3", "--seed", "7", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) == {"command", "config", "results", "violations"}
        echo = write_json(tmp_path / "echo.json", payload["config"])
        config = parse_config(echo)  # re-parses and re-validates
        assert config.seed == 7
        assert isinstance(config, RunConfig)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"preset": "constant", "gamma": -0.03}})
        assert main(["measure", "--config", cfg, "--samples", "2"]) == 2
        assert "CptViolation" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_horizon_fails_without_warnings(self, capsys):
        assert main(["trajectory", "--t-max", "1e308"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error (QuadratureFailure)")

    def test_overflowing_rate_fails_without_warnings(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"preset": "sinusoidal", "frequency": 1e308}})
        assert main(["trajectory", "--config", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error (QuadratureFailure)")

    def test_vanishing_grid_step_fails_without_warnings(self, capsys):
        assert main(["trajectory", "--t-max", "1e-300", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error (ValidationError): t_max")

    def test_byte_identical_json_outputs(self, tmp_path):
        # identical config (including the output path) and seed
        out = tmp_path / "m.json"
        args = ["measure", "--samples", "4", "--seed", "8", "--output", str(out)]
        main(args)
        first = out.read_bytes()
        main(args)
        assert out.read_bytes() == first
