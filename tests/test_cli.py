import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fixtures import relay_chain_instance, single_sensor_fixture
from minmaxloc import geom, model
from minmaxloc.cli import main


def write_scenario(tmp_path, scen, name="scen.json"):
    path = tmp_path / name
    path.write_text(model.scenario_to_json(scen))
    return str(path)


@pytest.fixture()
def generated(tmp_path):
    path = str(tmp_path / "scen.json")
    code = main(
        ["generate", "--seed", "4", "--n-sensors", "5", "--sigma", "0.02",
         "--out", path]
    )
    assert code == 0
    return path


def test_cli_import_leaves_out_scipy_sparse():
    # the solver applies its coefficients with numpy alone; importing
    # scipy.sparse would cost every command its import time and memory
    code = "import sys, minmaxloc.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


def test_chebyshev_oracle_leaves_out_scipy_spatial():
    # the Chebyshev targets come from a hull in grid-index space, with
    # numpy alone; importing Qhull would cost the oracle its memory.  Nor do
    # the oracles or a one-sensor solve, an exact QP, load scipy.linalg: only
    # the SDP's Cholesky and products need it
    code = (
        "import sys, minmaxloc.cli\n"
        "from fixtures import NONCONVEX_FIXTURES, relay_chain_instance\n"
        "from minmaxloc import central, geom\n"
        "scen, bounds = NONCONVEX_FIXTURES['ring']\n"
        "assert central.solve_minmax_sdp(scen, bounds).solver_status.value == 'optimal'\n"
        "reg = geom.single_sensor_region(scen, bounds)\n"
        "geom.grid_chebyshev_center(reg, resolution=5e-3)\n"
        "geom.project_to_region(reg, (0.5, 0.5), resolution=5e-3)\n"
        "geom.grid_max_distance(reg, (0.5, 0.5), resolution=5e-3)\n"
        "geom.relaxed_center_value(reg, resolution=5e-3)\n"
        "print('scipy.spatial' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        "central.solve_minmax_sdp(relay_chain_instance())\n"
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["False", "False", "True"]


def test_generate_is_deterministic(tmp_path, generated):
    other = str(tmp_path / "again.json")
    assert main(
        ["generate", "--seed", "4", "--n-sensors", "5", "--sigma", "0.02",
         "--out", other]
    ) == 0
    assert open(other).read() == open(generated).read()
    scen = model.scenario_from_json(open(generated).read())
    assert len(scen.sensors) == 5
    assert scen.gamma == pytest.approx(0.06)


def test_generate_without_error_flags_is_exact(tmp_path):
    path = str(tmp_path / "exact.json")
    assert main(["generate", "--seed", "1", "--n-sensors", "4", "--out", path]) == 0
    scen = model.scenario_from_json(open(path).read())
    assert scen.gamma == 0.0
    for e, z in scen.measurements.items():
        assert z == pytest.approx(scen.true_distance(e), abs=1e-12)


def test_generated_gaussian_scenario_with_negative_readings_is_accepted(tmp_path):
    # unbounded noise can read a short edge below zero; its interval clamps
    # at 0, so validate and the solvers take the file
    path = str(tmp_path / "s.json")
    assert main(
        ["generate", "--seed", "1", "--n-sensors", "30", "--range", "0.3", "--sigma", "0.05",
         "--out", path]
    ) == 0
    scen = model.scenario_from_json(open(path).read())
    assert min(scen.measurements.values()) < 0.0
    assert main(["validate", path]) == 0
    assert main(["solve-central", path, "--out", str(tmp_path / "est.json")]) == 0


def test_generate_rejects_conflicting_flags(capsys):
    assert main(["generate", "--gamma", "0.1", "--sigma", "0.02"]) == 1
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["generate", "--ratio", "0.5"]) == 1
    assert main(["generate", "--n-sensors", "0"]) == 1


def test_solve_central_writes_estimate(tmp_path, generated):
    out = str(tmp_path / "est.json")
    assert main(["solve-central", generated, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert set(doc) == {
        "positions", "worst_case_value", "solver_status", "solve_seconds",
        "iterations", "gap", "residual_primal", "residual_dual",
    }
    assert doc["solver_status"] == "optimal"
    assert doc["worst_case_value"] >= 0.0
    assert len(doc["positions"]) == 5


def test_solve_central_reports_numerical_failure(tmp_path, capsys):
    # measurements promise one anchor is ~5 away and another, half a unit
    # from the first, is essentially touching; no position can do both
    scen = model.NetworkScenario(
        sensors=(0,),
        anchors={1: (0.0, 0.0), 2: (0.5, 0.0)},
        true_positions={0: (0.2, 0.0)},
        sensor_edges=(),
        anchor_edges=((0, 1), (0, 2)),
        measurements={(0, 1): 5.05, (0, 2): 0.025},
        gamma=0.05,
        sensing_range=10.0,
    )
    path = write_scenario(tmp_path, scen)
    out = str(tmp_path / "est.json")
    assert main(["solve-central", path, "--out", out]) == 2
    assert "solver status" in capsys.readouterr().err
    assert json.loads(open(out).read())["solver_status"] != "optimal"


def test_solve_dist_writes_trace(tmp_path, generated):
    out = str(tmp_path / "trace.jsonl")
    assert main(["solve-dist", generated, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) >= 2
    last = json.loads(lines[-1])
    assert all(node["localized"] for node in last["per_node"])


def test_solve_dist_round_cap_exits_numerical(tmp_path, capsys):
    path = write_scenario(tmp_path, relay_chain_instance())
    out = str(tmp_path / "trace.jsonl")
    assert main(["solve-dist", path, "--max-rounds", "1", "--out", out]) == 2
    assert "not all nodes localized" in capsys.readouterr().err
    assert len(open(out).read().splitlines()) == 2  # partial trace still written


def test_solve_dist_rejects_bad_epsilon(generated):
    assert main(["solve-dist", generated, "--epsilon", "0"]) == 1


BAD_NUMBERS = [
    ["oracle", "SCENARIO", "--resolution", "0"],
    ["oracle", "SCENARIO", "--resolution", "-0.01"],
    ["oracle", "SCENARIO", "--resolution", "nan"],
    ["oracle", "SCENARIO", "--resolution", "inf"],
    ["solve-dist", "SCENARIO", "--epsilon", "nan"],
    ["solve-dist", "SCENARIO", "--epsilon", "inf"],
    ["generate", "--range", "nan"],
    ["generate", "--range", "inf"],
    ["generate", "--gamma", "-0.1"],
    ["generate", "--gamma", "nan"],
    ["generate", "--sigma", "nan"],
    ["generate", "--sigma", "-0.1"],
    ["generate", "--sigma", "0.02", "--ratio", "nan"],
    ["generate", "--sigma", "0.02", "--ratio", "-0.5"],
]


@pytest.mark.parametrize("argv", BAD_NUMBERS, ids=" ".join)
def test_bad_numeric_flags_are_usage_errors(tmp_path, capsys, argv):
    scen, _ = single_sensor_fixture(
        {1: (0.0, 0.0), 2: (1.0, 0.0)}, {1: (0.3, 0.7), 2: (0.5, 0.9)}
    )
    path = write_scenario(tmp_path, scen)
    assert main([path if a == "SCENARIO" else a for a in argv]) == 1
    assert "must be" in capsys.readouterr().err


def test_oracle_matches_direct_grid_search(tmp_path):
    scen, bounds = single_sensor_fixture(
        {1: (0.0, 0.0), 2: (1.0, 0.0)}, {1: (0.3, 0.7), 2: (0.5, 0.9)}
    )
    path = write_scenario(tmp_path, scen)
    out = str(tmp_path / "oracle.json")
    assert main(["oracle", path, "--resolution", "5e-3", "--out", out]) == 0
    doc = json.loads(open(out).read())

    region = geom.single_sensor_region(scen, model.build_feasibility_intervals(scen))
    cheb = geom.grid_chebyshev_center(region, resolution=5e-3)
    assert doc["chebyshev_radius"] == pytest.approx(cheb.radius)
    assert tuple(doc["chebyshev_center"]) == pytest.approx(cheb.center)
    (rx, ry), rval = geom.relaxed_center_value(region, resolution=5e-3)
    assert doc["relaxed_value"] == pytest.approx(rval)
    assert doc["relaxed_center"] == pytest.approx([rx, ry])


def test_oracle_rejects_multi_sensor_scenarios(generated, capsys):
    assert main(["oracle", generated]) == 1
    assert "single-sensor" in capsys.readouterr().err


def test_experiment_end_to_end(tmp_path, capsys):
    spec = {
        "scenario": {
            "n_sensors": 3,
            "anchor_positions": [[0.3, 0.3], [-0.3, 0.3], [0.3, -0.3], [-0.3, -0.3]],
            "sensing_range": 0.8,
            "area": [[-0.5, 0.5], [-0.5, 0.5]],
        },
        "error_family": "uniform",
        "sweep_values": [0.05],
        "trials": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    prefix = str(tmp_path / "exp")
    assert main(["experiment", str(spec_path), "--out", prefix, "--trials", "1"]) == 0
    assert "1 trials" in capsys.readouterr().out
    rows = open(prefix + ".csv").read().splitlines()
    assert len(rows) == 1 + 1 * 3  # header + trials x estimators
    report = json.loads(open(prefix + ".json").read())
    assert report["spec"]["trials"] == 1
    assert len(report["trials"]) == 1


def test_experiment_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps({"error_family": "uniform"}))
    assert main(["experiment", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "bad experiment spec" in capsys.readouterr().err


def test_experiment_rejects_nan_epsilon(tmp_path, capsys):
    spec = {
        "scenario": {
            "n_sensors": 3,
            "anchor_positions": [[0.3, 0.3], [-0.3, 0.3], [0.3, -0.3]],
            "sensing_range": 0.8,
            "area": [[-0.5, 0.5], [-0.5, 0.5]],
        },
        "error_family": "uniform",
        "sweep_values": [0.05],
        "trials": 1,
        "epsilon": math.nan,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["experiment", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "bad experiment spec" in capsys.readouterr().err


def _spec_file(tmp_path, **fields):
    spec = {
        "scenario": {
            "n_sensors": 3,
            "anchor_positions": [[0.3, 0.3], [-0.3, 0.3], [0.3, -0.3]],
            "sensing_range": 0.8,
            "area": [[-0.5, 0.5], [-0.5, 0.5]],
        },
        "error_family": "uniform",
        "sweep_values": [0.05],
        "trials": 1,
        **fields,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_generate_rejects_negative_seed(tmp_path, capsys):
    assert main(["generate", "--seed", "-1", "--out", str(tmp_path / "s.json")]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-5"], ["--trials", "-1"]], ids=" ".join)
def test_experiment_rejects_negative_overrides(tmp_path, capsys, flags):
    path = _spec_file(tmp_path)
    assert main(["experiment", path, "--out", str(tmp_path / "x"), *flags]) == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_rejects_negative_master_seed(tmp_path, capsys):
    path = _spec_file(tmp_path, master_seed=-5)
    assert main(["experiment", path, "--out", str(tmp_path / "x")]) == 1
    assert "bad experiment spec" in capsys.readouterr().err


def test_validate_exit_codes(tmp_path, generated, capsys):
    assert main(["validate", generated]) == 0
    assert "connected: True" in capsys.readouterr().out
    disconnected = model.NetworkScenario(
        sensors=(0, 1),
        anchors={2: (0.0, 0.0)},
        true_positions={0: (0.1, 0.0), 1: (3.0, 0.0)},
        sensor_edges=(),
        anchor_edges=((0, 2),),
        measurements={(0, 2): 0.1},
        gamma=0.0,
        sensing_range=0.2,
    )
    path = write_scenario(tmp_path, disconnected, "bad.json")
    assert main(["validate", path]) == 1
    assert "connected: False" in capsys.readouterr().out


def test_missing_input_file_is_io_error(tmp_path, capsys):
    assert main(["solve-central", str(tmp_path / "nope.json")]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_malformed_scenario_is_usage_error(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("not json at all")
    assert main(["solve-central", str(junk)]) == 1
    assert "not a scenario file" in capsys.readouterr().err


def _edited_scenario(tmp_path, n_sensors, edit):
    """Path of a generated scenario file after ``edit`` changed its JSON."""
    path = str(tmp_path / "scen.json")
    assert main(
        ["generate", "--seed", "4", "--n-sensors", str(n_sensors), "--gamma", "0.02",
         "--out", path]
    ) == 0
    doc = json.loads(open(path).read())
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("command", ["validate", "solve-central", "solve-dist", "oracle"])
@pytest.mark.parametrize("field, value", [("z", math.nan), ("gamma", -0.02), ("z", math.inf)])
def test_nonfinite_or_negative_numbers_are_usage_errors(
    tmp_path, capsys, command, field, value
):
    def edit(doc):
        if field == "z":
            doc["edges"][0]["z"] = value
        else:
            doc["gamma"] = value

    assert main([command, _edited_scenario(tmp_path, 1, edit)]) == 1
    assert "not a scenario file" in capsys.readouterr().err


def _self_edge(doc):
    doc["edges"].append({"a": doc["sensors"][0], "b": doc["sensors"][0], "z": 0.1})


def _duplicate_edge(doc):
    doc["edges"].append(dict(doc["edges"][0]))


def _reversed_duplicate_edge(doc):
    e = doc["edges"][0]
    doc["edges"].append({"a": e["b"], "b": e["a"], "z": e["z"]})


def _sensor_id_as_anchor(doc):
    doc["anchors"].append({"id": doc["sensors"][0], "x": 0.0, "y": 0.0})


def _repeated_sensor_id(doc):
    doc["sensors"].append(doc["sensors"][0])


def _repeated_anchor_id(doc):
    moved = dict(doc["anchors"][0])
    moved["x"] += 0.2
    doc["anchors"].append(moved)


def _no_sensors(doc):
    doc["sensors"], doc["true_positions"], doc["edges"] = [], {}, []


@pytest.mark.parametrize("command", ["validate", "solve-central", "solve-dist", "oracle"])
@pytest.mark.parametrize(
    "edit",
    [
        _self_edge,
        _duplicate_edge,
        _reversed_duplicate_edge,
        _sensor_id_as_anchor,
        _repeated_sensor_id,
        _repeated_anchor_id,
        _no_sensors,
    ],
)
def test_malformed_graphs_are_usage_errors(tmp_path, capsys, command, edit):
    assert main([command, _edited_scenario(tmp_path, 6, edit)]) == 1
    assert "not a scenario file" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stdout_default_output(generated, capsys):
    assert main(["solve-central", generated]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver_status"] == "optimal"


_FUZZ_BASE = json.loads(
    model.scenario_to_json(
        model.apply_errors(
            model.generate_scenario(
                model.ScenarioConfig(
                    n_sensors=3,
                    anchor_positions=((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3)),
                    sensing_range=0.8,
                ),
                seed=2,
            ),
            model.UniformError(gamma=0.02),
            seed=2,
        )
    )
)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """Every key path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_scenario(draw):
    doc = json.loads(json.dumps(_FUZZ_BASE))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_keys, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parent_keys:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_json_values)
    return doc


@given(_mutated_scenario())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_validate_mutated_scenarios_exit_zero_or_one(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) in (0, 1)
