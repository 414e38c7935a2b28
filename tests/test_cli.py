import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import cli, errors
from backflow.cli import (
    MAX_GRID_STEP,
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

    def test_output_checked_without_creating_it(self, tmp_path):
        path = tmp_path / "out.json"
        assert parse_config(None, {"output": str(path)}).output == str(path)
        assert not path.exists()
        with pytest.raises(ValidationError, match="output: cannot write .*Is a directory"):
            parse_config(None, {"output": str(tmp_path)})
        # open() raises ValueError, not OSError, on a null byte
        with pytest.raises(ValidationError, match="output: cannot write .*embedded null byte"):
            parse_config(None, {"output": str(tmp_path / "x\0y")})

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
    # a state check names the matrix, once
    ({"candidate_pairs": [[[[1, 0], [0, 0]], [[2, 0], [0, 0]]]]}, "candidate_pairs[0][1]: trace deviates"),
    # level shifts move no trace distance, so the model takes none
    ({"model": {"preset": "constant", "shift": 0.5}}, "model.shift"),
    ({"model": {"preset": "tabulated", "lambda1": "lambda1.csv"}}, "model.lambda1"),
    ({"model": {"preset": "tabulated", "lambda2": "lambda2.csv"}}, "model.lambda2"),
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


# the first four cells were once read as numbers: a bool as 0 or 1, a long list by its first two items
BAD_MATRIX_CELLS = [True, [1, 0, 7], [True, 0], [1, False], [1], "1", None]


@pytest.mark.parametrize("cell", BAD_MATRIX_CELLS, ids=repr)
def test_malformed_matrix_cell_is_one_validation_error(tmp_path, capsys, cell):
    # with the cell read as 1 the pair is |0><0|, |1><1|: a valid orthogonal pair
    bad = [[cell, 0, 0], [0, 0, 0], [0, 0, 0]]
    good = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    pair = write_json(tmp_path / "pair.json", [bad, good])
    cfg = write_json(tmp_path / "cfg.json", {"candidate_pairs": [[good, bad]]})
    for args, matrix in [
        (["trajectory", "--pair", pair], f"pair file {pair}[0]"),
        (["measure", "--config", cfg, "--samples", "1"], "candidate_pairs[0][1]"),
    ]:
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error (ValidationError): ")
        assert f"{matrix}: cannot parse matrix entries" in lines[0]
        assert lines[0].count(matrix.rpartition("[")[0]) == 1  # the pair is named once


# the 2x2 and 4x4 pairs once ended in a numpy ValueError traceback, and
# the non-orthogonal one was named "explicit candidate pair 3"
BAD_CANDIDATE_PAIRS = {
    "2x2": ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "BadDimension", "is not a pair of 3x3 states"),
    "4x4": (
        [np.diag([1, 0, 0, 0]).tolist(), np.diag([0, 1, 0, 0]).tolist()], "BadDimension", "is not a pair of 3x3 states"
    ),
    "non-orthogonal": (
        [np.diag([1, 0, 0]).tolist(), [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]]], "ValidationError", "is not orthogonal"
    ),
}


@pytest.mark.parametrize("pair, error, reason", BAD_CANDIDATE_PAIRS.values(), ids=BAD_CANDIDATE_PAIRS)
def test_bad_candidate_pair_is_one_error_naming_it(tmp_path, capsys, pair, error, reason):
    cfg = write_json(tmp_path / "cfg.json", {"candidate_pairs": [pair]})
    assert main(["measure", "--config", cfg, "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error ({error}): candidate_pairs[0] {reason}")


# each file content once ended in a UnicodeDecodeError, RecursionError or ValueError traceback
BAD_JSON_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "nested-too-deeply": b"[" * 100_000 + b"]" * 100_000,
    "integer-too-long": b'{"seed": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("command", [["measure", "--config"], ["translate", "--pair"]], ids=["config", "pair"])
@pytest.mark.parametrize("content", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES.keys())
def test_unparsable_json_file_is_one_parse_error(tmp_path, capsys, content, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error (ParseError): {path}: ")


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
        "measure": {"--config", "--t-max", "--grid-steps", "--seed", "--samples", "--output"},
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


MODEL_KEYS = ["preset", "amplitude", "frequency", "gamma", "gamma1", "gamma2"]


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


def read_csv(path):
    """Column name -> cells of the data rows, and footer key -> value."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("# ")]
    footer = dict(line[2:].split(",") for line in lines if line.startswith("# "))
    return dict(zip(lines[0].split(","), zip(*rows))), footer


def as_cells(values):
    """JSON numbers as the CSV writes them: ints whole, floats at 9 significant digits."""
    return tuple(str(v) if isinstance(v, int) else format(v, ".9g") for v in values)


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

    @pytest.mark.parametrize("engine", ["closed_form", "integrator"])
    def test_json_holds_the_csv_columns(self, tmp_path, engine):
        args = ["trajectory", "--pair", "mpair", "--engine", engine, "--grid-steps", "300"]
        assert main(args + ["--output", str(tmp_path / "t.csv")]) == 0
        assert main(args + ["--format", "json", "--output", str(tmp_path / "t.json")]) == 0
        columns, footer = read_csv(tmp_path / "t.csv")
        results = json.loads((tmp_path / "t.json").read_text())["results"]
        scalars = {"pair", "backflow", "initial_distance", "final_distance"}
        assert set(results) == scalars | {"grid", "distance", "sigma"}
        assert list(columns) == ["t", "distance", "sigma"]
        for csv_name, json_name in [("t", "grid"), ("distance", "distance"), ("sigma", "sigma")]:
            assert len(results[json_name]) == 301
            assert as_cells(results[json_name]) == columns[csv_name]
        assert footer == {"backflow": format(results["backflow"], ".9g")}

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
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "hist.json"
        main(["histogram", "--samples", "80", "--seed", "4", "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert len(payload["results"]["counts"]) == 50
        assert sum(payload["results"]["probabilities"]) == pytest.approx(1.0, abs=1e-12)

    def test_json_holds_the_csv_columns(self, tmp_path):
        args = ["histogram", "--samples", "120", "--bins", "15", "--seed", "9", "--grid-steps", "400"]
        assert main(args + ["--output", str(tmp_path / "h.csv")]) == 0
        assert main(args + ["--format", "json", "--output", str(tmp_path / "h.json")]) == 0
        columns, footer = read_csv(tmp_path / "h.csv")
        results = json.loads((tmp_path / "h.json").read_text())["results"]
        scalars = {"max_sampled", "reference_value", "gap", "n_samples", "seed"}
        assert set(results) == scalars | {"bin_edges", "counts", "probabilities"}
        assert list(columns) == ["bin_left", "bin_right", "count", "probability"]
        edges = results["bin_edges"]
        assert len(edges) == 16
        assert as_cells(edges[:-1]) == columns["bin_left"]
        assert as_cells(edges[1:]) == columns["bin_right"]
        assert all(type(c) is int for c in results["counts"])
        assert as_cells(results["counts"]) == columns["count"]
        assert as_cells(results["probabilities"]) == columns["probability"]
        assert footer == {key: as_cells([results[key]])[0] for key in scalars - {"gap"}}

    def test_threads_do_not_change_bytes(self, tmp_path):
        # sampling runs on one thread, so a rerun must write the same bytes
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["histogram", "--samples", "150", "--seed", "5"]
        assert main(args + ["--output", str(out1)]) == 0
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


# the library errors that end in exit code 2; every other BackflowError ends in 1
NUMERICAL_FAILURES = {
    "NumericalFailure", "QuadratureFailure", "CptViolation", "IntegratorDiverged", "PositivityLost", "PositivityFailure"
}
ERROR_CLASSES = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, BackflowError)]


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

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda error: error.__name__)
    def test_exit_code_follows_the_error_class(self, monkeypatch, capsys, error):
        def fail(config):
            raise error("injected")

        monkeypatch.setattr(cli, "cmd_measure", fail)
        assert main(["measure", "--samples", "1"]) == (2 if error.__name__ in NUMERICAL_FAILURES else 1)
        assert capsys.readouterr().err == f"error ({error.__name__}): injected\n"

    def test_coarse_grid_cpt_error_names_the_grid(self, tmp_path, capsys):
        # tabulated rates are integrated by quadrature, whose error on this
        # coarse grid makes the feeding of the rate-free channel negative
        t = np.linspace(0.0, 2 * np.pi, 2001)
        table = tmp_path / "gamma2.csv"
        table.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), (1.0 + np.cos(t)).tolist())))
        cfg = write_json(tmp_path / "cfg.json", {"model": {"preset": "tabulated", "gamma2": str(table)}})
        assert main(["measure", "--config", cfg, "--grid-steps", "150", "--samples", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error (CptViolation): invalid map: |g1+g2+|f|^2-1| = ")
        assert "min g = -4.995e-06 at t = 3.14159, on 150 grid steps of width up to 0.0418879" in lines[0]
        assert "a finer grid lowers the quadrature error" in lines[0]
        # the presets' coefficients are closed forms, valid on any grid
        assert main(["measure", "--grid-steps", "150", "--samples", "2"]) == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_horizon_fails_without_warnings(self, capsys):
        assert main(["trajectory", "--t-max", "1e308"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error (ValidationError): t_max")
        # the longest horizon allowed still runs, np.gradient included
        assert main(["trajectory", "--t-max", repr(MAX_GRID_STEP * 2000), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "trajectory"

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

    @pytest.mark.parametrize(
        "args, target",
        [(["histogram", "--samples", "10"], "missing/x.csv"), (["verify", "--dims", "2", "--trials", "1"], ".")],
        ids=["histogram-missing-directory", "verify-directory"],
    )
    def test_unwritable_output_is_one_validation_error(self, tmp_path, capsys, args, target):
        path = str(tmp_path / target)
        assert main(args + ["--output", path]) == 1
        captured = capsys.readouterr()
        # the path is checked before the run, so verify prints no check lines
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error (ValidationError): output: cannot write {path!r}")

    @pytest.mark.parametrize(
        "run, sizes",
        [
            (cli.cmd_histogram, {"samples": 16, "grid_steps": 400, "bins": 5, "format": "csv"}),
            (cli.cmd_measure, {"samples": 4, "grid_steps": 400}),
            (lambda config: cli.cmd_verify(config, None), {"dims": (2, 3), "trials": 1}),
        ],
        ids=["histogram", "measure", "verify"],
    )
    def test_benchmark_entry_points(self, tmp_path, capsys, run, sizes):
        # bench/child.py times these calls with these argument lists
        out = tmp_path / "payload"
        config = parse_config(None, dict(sizes, seed=3, output=str(out)))
        report, code = run(config)
        assert code == 0
        assert isinstance(report, cli.RunReport)
        assert report.violations == []
        assert out.stat().st_size > 0

    def test_byte_identical_json_outputs(self, tmp_path):
        # identical config (including the output path) and seed
        out = tmp_path / "m.json"
        args = ["measure", "--samples", "4", "--seed", "8", "--output", str(out)]
        main(args)
        first = out.read_bytes()
        main(args)
        assert out.read_bytes() == first


def old_fmt(x) -> str:
    """A CSV cell as it was formatted before columns were typed once: by its own type."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def old_render_csv(header, rows, footer=()) -> str:
    lines = [",".join(header)] + [",".join(old_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines + list(footer)) + "\n"


class TestCsvRendering:
    @pytest.mark.parametrize(
        "args",
        [
            ["histogram", "--samples", "300", "--seed", "6"],
            ["histogram", "--samples", "40", "--seed", "6", "--config", "constant.json"],
            ["trajectory", "--pair", "mpair", "--engine", "closed_form"],
            ["trajectory", "--pair", "pure-a-plus", "--engine", "integrator"],
        ],
        ids=["histogram", "histogram-constant", "trajectory-closed-form", "trajectory-integrator"],
    )
    def test_typed_columns_render_the_same_bytes(self, tmp_path, monkeypatch, args):
        # each table is rendered both ways from the rows the command made, and
        # the file the command writes is the new way's text
        write_json(tmp_path / "constant.json", {"model": {"preset": "constant", "gamma": 0.03}})
        monkeypatch.chdir(tmp_path)
        rendered = []
        render = cli.render_csv

        def both(header, rows, footer=()):
            rows = list(rows)
            rendered.append((render(header, rows, footer), old_render_csv(header, rows, footer)))
            return rendered[-1][0]

        monkeypatch.setattr(cli, "render_csv", both)
        assert main(args + ["--output", "out.csv"]) == 0
        [(new, old)] = rendered
        assert new == old
        assert (tmp_path / "out.csv").read_text() == new

    @pytest.mark.parametrize(
        "cell", [0, 7, -3, np.int64(12), True, 0.0, -0.0, 1.5, 1e-300, np.float64(0.1), np.nan, -np.inf, "mpair"]
    )
    def test_cells_format_as_before(self, cell):
        assert cli._fmt(cell) == old_fmt(cell)
        assert cli.render_csv(["a", "b"], [(cell, cell)] * 2) == old_render_csv(["a", "b"], [(cell, cell)] * 2)

    def test_no_rows(self):
        assert cli.render_csv(["a", "b"], [], ["# n,0"]) == "a,b\n# n,0\n"
