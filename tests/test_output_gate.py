import json
import math

import pytest

import output_gate


def record():
    return {
        "twenty": {
            "twenty-0": {
                "status": "optimal",
                "iterations": 20,
                "worst_case_value": 0.5,
                "positions": {"0": [0.1, 0.2]},
            }
        },
        "distributed": {"seed-1": {"rounds": 3, "converged": True, "rmse_upper_bound": 0.1}},
        "baseline": {"trial-0": {"rmse": 0.02, "converged": True, "iterations": 7}},
        "grid": {
            "disc": {
                "chebyshev": {"center": [0.0, 0.005], "radius": 0.9995},
                "max_distance-probe": 1.2,
            }
        },
    }


def test_identical_records_pass(tmp_path):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(record()))
    after.write_text(json.dumps(record()))
    assert output_gate.main(["--compare", str(before), str(after)]) == 0


@pytest.mark.parametrize(
    "family, key, value, passes",
    [
        ("twenty", "status", "numerical_failure", False),
        ("twenty", "worst_case_value", 0.5 * (1 + 2e-6), False),
        ("twenty", "worst_case_value", 0.5 * (1 + 5e-7), True),
        ("twenty", "positions", {"0": [0.1, 0.2 + 2e-5]}, False),
        ("twenty", "iterations", 21, True),
        ("distributed", "rounds", 4, False),
        ("distributed", "converged", False, False),
        ("distributed", "rmse_upper_bound", 0.1 * (1 + 2e-6), False),
        ("baseline", "iterations", 8, False),
        ("baseline", "converged", False, False),
        ("baseline", "rmse", 0.02 + 2e-5, False),
        ("grid", "max_distance-probe", math.nextafter(1.2, 2.0), False),
        ("grid", "chebyshev", {"empty": "no feasible grid point at resolution 0.005"}, False),
    ],
)
def test_gate_fails_on_a_flip_a_count_or_a_deviation_past_its_tolerance(
    tmp_path, family, key, value, passes
):
    changed = record()
    (run,) = changed[family].values()
    run[key] = value
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(record()))
    after.write_text(json.dumps(changed))
    assert output_gate.main(["--compare", str(before), str(after)]) == (0 if passes else 1)


def test_a_run_missing_from_one_record_fails_and_a_new_family_does_not():
    grown = record()
    grown["exact"] = {}
    assert output_gate.compare(record(), grown)
    del grown["baseline"]["trial-0"]
    assert not output_gate.compare(record(), grown)


def test_comparison_names_the_solve_that_deviates_most(capsys):
    after = record()
    after["twenty"]["twenty-1"] = dict(after["twenty"]["twenty-0"])
    before = json.loads(json.dumps(after))
    after["twenty"]["twenty-1"]["worst_case_value"] = 0.5 * (1 + 3e-7)
    after["twenty"]["twenty-1"]["positions"] = {"0": [0.1, 0.2 + 4e-6]}
    after["distributed"]["seed-1"]["rmse_upper_bound"] = 0.1 * (1 + 2e-7)
    assert output_gate.compare(before, after)
    out = capsys.readouterr().out
    assert "rel dev 3.0e-07 at twenty-1 (abs" in out
    assert "position dev 4.0e-06 at twenty-1," in out
    assert "rmse_upper_bound dev 2.0e-07 at seed-1" in out
    assert output_gate.compare(before, before)
    assert " at " not in capsys.readouterr().out
