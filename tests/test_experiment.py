import csv
import json
import math

import numpy as np
import pytest

from minmaxloc import experiment, model

ANCHORS4 = ((0.3, 0.3), (-0.3, 0.3), (0.3, -0.3), (-0.3, -0.3))


def small_spec(trials=2):
    return experiment.ExperimentSpec(
        scenario=model.ScenarioConfig(
            n_sensors=3, anchor_positions=ANCHORS4, sensing_range=0.8
        ),
        error_family="uniform",
        sweep_values=(0.02, 0.05),
        trials=trials,
        master_seed=9,
    )


@pytest.fixture(scope="module")
def small_reports():
    spec = small_spec()
    return spec, experiment.run_experiment(spec), experiment.run_experiment(spec)


# --- rmse ---------------------------------------------------------------------


def test_rmse_of_exact_estimates_is_zero():
    pts = {0: (0.1, -0.2), 5: (1.0, 1.0)}
    assert experiment.rmse(pts, dict(pts)) == 0.0


def test_rmse_hand_values():
    est = {0: (0.3, 0.4), 1: (0.0, 0.0)}
    truth = {0: (0.0, 0.0), 1: (0.0, 0.0)}
    assert experiment.rmse(est, truth) == pytest.approx(math.sqrt(0.125))
    assert experiment.rmse({0: (0.3, -0.4)}, {0: (0.0, 0.0)}) == pytest.approx(0.5)


def test_rmse_rejects_mismatched_keys():
    with pytest.raises(ValueError, match="mismatch"):
        experiment.rmse({0: (0.0, 0.0)}, {1: (0.0, 0.0)})


# --- least-squares baseline ----------------------------------------------------


def noisy_scenario():
    cfg = model.ScenarioConfig(
        n_sensors=4, anchor_positions=ANCHORS4, sensing_range=0.7
    )
    scen = model.generate_scenario(cfg, seed=3)
    return model.apply_errors(scen, model.GaussianError(sigma=0.02), seed=4)


def test_gradient_matches_finite_differences():
    scen = noisy_scenario()
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(3):
        flat = rng.uniform(-0.5, 0.5, 2 * len(scen.sensors))
        _, grad = experiment.baseline_objective(scen, flat)
        for k in range(flat.size):
            ep, em = flat.copy(), flat.copy()
            ep[k] += h
            em[k] -= h
            fd = (
                experiment.baseline_objective(scen, ep)[0]
                - experiment.baseline_objective(scen, em)[0]
            ) / (2 * h)
            assert abs(fd - grad[k]) / max(1.0, abs(fd)) <= 1e-4


def test_baseline_recovers_exact_scenario_from_good_init():
    cfg = model.ScenarioConfig(
        n_sensors=4, anchor_positions=ANCHORS4, sensing_range=0.7
    )
    scen = model.generate_scenario(cfg, seed=3)  # gamma 0, exact ranges
    init = {i: (p[0] + 0.01, p[1] - 0.01) for i, p in scen.true_positions.items()}
    res = experiment.baseline_least_squares(scen, seed=1, init=init)
    assert res.converged
    for i, p in scen.true_positions.items():
        assert math.dist(res.positions[i], p) <= 1e-4
    assert res.objective <= 1e-12


def test_baseline_objective_history_non_increasing():
    res = experiment.baseline_least_squares(noisy_scenario(), seed=11)
    hist = res.objective_history
    assert len(hist) >= 2
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert res.objective == hist[-1]


def test_baseline_reports_non_convergence():
    res = experiment.baseline_least_squares(noisy_scenario(), seed=11, max_iters=1)
    assert not res.converged
    assert res.iterations == 1
    assert set(res.positions) == set(noisy_scenario().sensors)


# --- seed splitting -------------------------------------------------------------


def test_trial_seed_is_deterministic_and_role_separated():
    a = experiment.trial_seed(9, 0, 0, "scenario")
    assert a == experiment.trial_seed(9, 0, 0, "scenario")
    others = {
        experiment.trial_seed(9, 0, 0, "errors"),
        experiment.trial_seed(9, 0, 0, "baseline"),
        experiment.trial_seed(9, 0, 1, "scenario"),
        experiment.trial_seed(9, 1, 0, "scenario"),
        experiment.trial_seed(10, 0, 0, "scenario"),
    }
    assert a not in others
    assert len(others) == 5


# --- run_experiment --------------------------------------------------------------


def test_run_experiment_counts_and_estimators(small_reports):
    spec, rep, _ = small_reports
    assert len(rep.trials) == spec.trials * len(spec.sweep_values)
    for t in rep.trials:
        assert not t.failures
        assert t.rmse_central is not None and t.rmse_central >= 0.0
        assert t.worst_case_value is not None and t.worst_case_value >= 0.0
        assert t.rmse_baseline is not None
        assert t.dist_rounds == len(t.rmse_distributed_by_round) - 1
        assert len(t.rmse_upper_bound_by_round) == len(t.rmse_distributed_by_round)
        assert set(t.runtimes) == set(spec.estimators)


def test_run_experiment_is_deterministic_up_to_runtimes(small_reports):
    spec, rep1, rep2 = small_reports
    assert rep1.aggregates == rep2.aggregates
    for a, b in zip(rep1.trials, rep2.trials):
        assert a.seeds == b.seeds
        assert a.failures == b.failures
        for name in spec.estimators:
            assert a.final_rmse(name) == b.final_rmse(name)
        assert a.rmse_distributed_by_round == b.rmse_distributed_by_round
        assert a.rmse_upper_bound_by_round == b.rmse_upper_bound_by_round


def test_aggregates_recomputable_from_trials(small_reports):
    spec, rep, _ = small_reports
    assert rep.aggregates
    for row in rep.aggregates:
        vals = [
            t.final_rmse(row.estimator)
            for t in rep.trials
            if t.sweep_value == row.sweep_value
            and t.final_rmse(row.estimator) is not None
        ]
        assert row.count == len(vals)
        assert row.mean_rmse == pytest.approx(sum(vals) / len(vals), abs=1e-15)
        if len(vals) > 1:
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            assert row.stdev_rmse == pytest.approx(math.sqrt(var), abs=1e-12)


def test_central_rmse_within_certificate_on_in_bound_trials(small_reports):
    # Uniform errors never exceed the bound, so every trial qualifies.
    spec, rep, _ = small_reports
    for t in rep.trials:
        scen = model.generate_scenario(spec.scenario, seed=t.seeds["scenario"])
        scen = model.apply_errors(
            scen, spec.error_model(t.sweep_value), seed=t.seeds["errors"]
        )
        assert max(abs(v) for v in scen.realized_errors().values()) <= scen.gamma
        n = len(scen.sensors)
        bound = math.sqrt(t.worst_case_value / n) * (1 + 1e-6)
        assert t.rmse_central <= bound + 1e-12


def test_scenario_failure_is_recorded_not_raised():
    spec = experiment.ExperimentSpec(
        scenario=model.ScenarioConfig(
            n_sensors=5, anchor_positions=ANCHORS4, sensing_range=0.01
        ),
        error_family="uniform",
        sweep_values=(0.02,),
        estimators=("baseline",),
        trials=1,
    )
    rep = experiment.run_experiment(spec)
    assert len(rep.trials) == 1
    assert "scenario" in rep.trials[0].failures
    assert rep.trials[0].rmse_baseline is None
    assert rep.aggregates == []


@pytest.mark.parametrize("error, recorded", [(RuntimeError, True), (TypeError, False)])
def test_estimator_errors_recorded_programming_errors_raised(monkeypatch, error, recorded):
    def broken(scen, seed=None):
        raise error("boom")

    monkeypatch.setattr(experiment, "baseline_least_squares", broken)
    spec = experiment.ExperimentSpec(
        scenario=model.ScenarioConfig(
            n_sensors=3, anchor_positions=ANCHORS4, sensing_range=0.8
        ),
        error_family="uniform",
        sweep_values=(0.02,),
        estimators=("baseline",),
        trials=1,
    )
    if recorded:
        rep = experiment.run_experiment(spec)
        assert rep.trials[0].failures == {"baseline": "RuntimeError: boom"}
        assert rep.trials[0].rmse_baseline is None
    else:
        with pytest.raises(TypeError, match="boom"):
            experiment.run_experiment(spec)


# --- outputs ---------------------------------------------------------------------


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(experiment.CSV_COLUMNS)
        return list(reader)


def test_csv_emission_row_count_and_determinism(small_reports, tmp_path):
    spec, rep1, rep2 = small_reports
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    experiment.emit_outputs(rep1, csv_path=str(p1))
    experiment.emit_outputs(rep2, csv_path=str(p2))
    rows1, rows2 = read_rows(p1), read_rows(p2)
    assert len(rows1) == len(rep1.trials) * len(spec.estimators)
    for r1, r2 in zip(rows1, rows2):
        del r1["seconds"], r2["seconds"]
        assert r1 == r2
    baseline_rows = [r for r in rows1 if r["estimator"] == "baseline"]
    assert baseline_rows and all(r["worst_case_value"] == "" for r in baseline_rows)
    dist_rows = [r for r in rows1 if r["estimator"] == "dis_minmax"]
    assert dist_rows and all(int(r["rounds"]) >= 0 for r in dist_rows)


def test_empty_report_emits_header_only(tmp_path):
    spec = small_spec(trials=0)
    rep = experiment.run_experiment(spec)
    assert rep.trials == []
    path = tmp_path / "empty.csv"
    experiment.emit_outputs(rep, csv_path=str(path))
    lines = path.read_text().splitlines()
    assert lines == [",".join(experiment.CSV_COLUMNS)]


def test_json_report_round_trip(small_reports, tmp_path):
    _, rep, _ = small_reports
    assert experiment.report_from_json(experiment.report_to_json(rep)) == rep
    path = tmp_path / "report.json"
    experiment.emit_outputs(rep, json_path=str(path))
    assert experiment.report_from_json(path.read_text()) == rep
    json.loads(path.read_text())  # plain JSON, no trailing junk


def test_io_errors_carry_path_context(small_reports, tmp_path):
    _, rep, _ = small_reports
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    with pytest.raises(OSError, match="cannot write CSV"):
        experiment.emit_outputs(rep, csv_path=str(missing))
    with pytest.raises(OSError, match="cannot write JSON"):
        experiment.emit_outputs(rep, json_path=str(missing))


# --- spec validation ---------------------------------------------------------------


def test_spec_rejects_bad_fields():
    cfg = model.ScenarioConfig(
        n_sensors=3, anchor_positions=ANCHORS4, sensing_range=0.8
    )
    with pytest.raises(ValueError, match="error family"):
        experiment.ExperimentSpec(cfg, "lognormal", (0.1,))
    with pytest.raises(ValueError, match="sweep_values"):
        experiment.ExperimentSpec(cfg, "uniform", ())
    with pytest.raises(ValueError, match="estimators"):
        experiment.ExperimentSpec(cfg, "uniform", (0.1,), estimators=("magic",))
    with pytest.raises(ValueError, match="trials"):
        experiment.ExperimentSpec(cfg, "uniform", (0.1,), trials=-1)
    with pytest.raises(ValueError):
        experiment.ExperimentSpec(cfg, "uniform", (0.1,), epsilon=0.0)


def test_spec_json_round_trip():
    spec = small_spec()
    doc = experiment.spec_to_dict(spec)
    assert experiment.spec_from_dict(json.loads(json.dumps(doc))) == spec
    assert experiment.spec_from_dict({"scenario": doc["scenario"],
                                      "error_family": "gaussian",
                                      "sweep_values": [0.01]}).trials == 20
