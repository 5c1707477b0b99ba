import json

import numpy as np
import pytest

from ipal.bench import autotune
from ipal.bench.cli import main
from ipal.bench.problems import NotFound, OracleResult, get, names
from ipal.bench.report import BenchmarkReport, format_csv, format_table, run_benchmark
from ipal.cone import in_cone
from ipal.model import evaluate_values

EXPECTED_NAMES = (
    "particle-impact-free",
    "particle-impact-contact",
    "particle-friction",
    "soc-projection",
    "nonneg-qp",
    "state-triggered-toy",
    "double-integrator-trajopt",
    "mpc-autotune",
)


def test_registry_names_frozen():
    assert names() == EXPECTED_NAMES
    with pytest.raises(NotFound):
        get("missing-benchmark")


def test_oracle_values_frozen():
    # closed-form objective values, worked out per problem
    frozen = {
        "particle-impact-free": 12178.818461 / 10201.0,
        "particle-impact-contact": 0.09,
        "particle-friction": (0.1 * (0.4905 + 0.095095 / 1.01) - 1.0) ** 2
        + (0.095095 / 1.01) ** 2,
        "soc-projection": 2.0,
        "nonneg-qp": -2.375,
        "state-triggered-toy": 0.25 + 1e-3 / 1.001,
    }
    for name, expected in frozen.items():
        problem = get(name)
        oracle = problem.oracle(problem.theta)
        assert oracle.objective == pytest.approx(expected, abs=1e-12), name


def test_impact_oracle_branch_points():
    free = get("particle-impact-free").oracle(np.zeros(0))
    assert free.x[0] == pytest.approx(92.19 / 101.0, abs=1e-12)  # airborne height
    assert free.x[1] == 0.0
    contact = get("particle-impact-contact").oracle(np.zeros(0))
    np.testing.assert_allclose(contact.x, [0.0, 1.481, 0.0], atol=1e-12)


def test_oracle_points_are_feasible():
    for name in names():
        problem = get(name)
        oracle = problem.oracle(problem.theta)
        assert isinstance(oracle, OracleResult)
        c, g, h = evaluate_values(problem.model, oracle.x, problem.theta)
        assert c == pytest.approx(oracle.objective, abs=1e-9), name
        if problem.model.m:
            assert np.abs(g).max() < 1e-9, name
        if problem.model.p:
            assert in_cone(h, problem.model.cone), name


def test_trajopt_oracle_solves_its_kkt():
    problem = get("double-integrator-trajopt")
    oracle = problem.oracle(problem.theta)
    # endpoint rows of the stacked system: start pinned, target reached
    np.testing.assert_allclose(oracle.x[:2], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(oracle.x[-2:], problem.theta, atol=1e-10)
    g = problem.model.equality(oracle.x, problem.theta)
    assert np.abs(g).max() < 1e-9


def test_run_benchmark_row():
    row = run_benchmark("soc-projection")
    assert row.status == "solved"
    assert row.passed
    assert row.objective_gap < 1e-5
    assert row.complementarity <= 1e-6
    assert row.iterations > 0


def test_report_round_trip_ignores_wall_time():
    from ipal.bench.report import run_suite

    report = run_suite(["soc-projection", "nonneg-qp"])
    back = BenchmarkReport.from_json(report.to_json())
    for row in back.rows:
        row.wall_time = -1.0
    assert back == report
    assert back.passed


def test_formats_mention_every_row():
    from ipal.bench.report import run_suite

    report = run_suite(["soc-projection", "nonneg-qp"])
    table = format_table(report)
    csv_text = format_csv(report)
    for row in report.rows:
        assert row.name in table
        assert row.name in csv_text
    assert "overall: PASS" in table
    # soc-projection takes 6 iterations and nonneg-qp 8 (10 and 11 on the
    # fixed kappa schedule, before the centrality rule of outer_update; 7
    # and 9 before the schedule ended at tol / 2 in one update from 10 tol)
    assert table.endswith(", 14 iterations)")


def test_registry_statuses_and_iterations_are_pinned():
    # statuses and iteration counts change only when a change means them to
    # and says why. The centrality rule of outer_update took the counts from
    # 11, 21, 22, 10, 11, 25, 6, 5 (111) on the fixed kappa schedule: the
    # six problems with cone constraints need fewer subproblems, and the two
    # without (double-integrator-trajopt, mpc-autotune) keep the schedule.
    # Ending the schedule at tol / 2 with the exponent 1.5 took the six from
    # 8, 11, 13, 7, 9, 12 (71): from the 10 tol floor one subproblem instead
    # of two ends the path; the two without cones never reach that floor
    from ipal.bench.report import run_suite

    report = run_suite(names())
    assert [row.status for row in report.rows] == ["solved"] * len(EXPECTED_NAMES)
    assert [row.iterations for row in report.rows] == [7, 8, 12, 6, 8, 10, 6, 5]
    assert report.passed
    assert format_table(report).endswith("overall: PASS (tol=1e-06, gap tol=1e-05, 62 iterations)")


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_NAMES:
        assert name in out


def test_cli_run_json(capsys):
    code = main(["run", "soc-projection", "nonneg-qp", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in payload["rows"]] == ["soc-projection", "nonneg-qp"]
    assert all(row["status"] == "solved" for row in payload["rows"])


def test_cli_rejects_unknown_name(capsys):
    assert main(["run", "not-a-benchmark"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    assert main(["run"]) == 2


def test_cli_trace_writes_ndjson(tmp_path, capsys):
    path = tmp_path / "trace.ndjson"
    assert main(["run", "soc-projection", "--trace", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert all(rec["problem"] == "soc-projection" for rec in records)
    assert [rec["iteration"] for rec in records] == sorted(rec["iteration"] for rec in records)


def test_cli_validate(capsys):
    assert main(["validate", "particle-friction"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["validate", "not-a-benchmark"]) == 2


def test_policy_qp_matches_oracle_under_weight_changes():
    # the registry row checks theta0; poke a different weight vector through
    # the same oracle to make sure it tracks the model, not one fixed answer
    from ipal.solver import SolverOptions, solve

    problem = get("mpc-autotune")
    theta = np.array([2.0, 0.3, 0.5, 0.2, -0.1])
    sol = solve(problem.model, problem.x0, theta, SolverOptions(tol=1e-9))
    oracle = problem.oracle(theta)
    assert sol.solved
    assert sol.objective == pytest.approx(oracle.objective, abs=1e-7)
    np.testing.assert_allclose(sol.point.x, oracle.x, atol=1e-6)


def test_open_loop_cost_value():
    # constant position offset of 0.5 for 20 steps under unit position weight
    assert autotune.open_loop_cost() == pytest.approx(5.0, abs=1e-12)


def test_reference_rollout_consistency():
    refs = autotune.reference_states()
    u = autotune.reference_controls()
    assert refs.shape == (u.size + 1, 2)
    np.testing.assert_allclose(
        refs[1], autotune.PLANT_A @ refs[0] + autotune.PLANT_B * u[0], atol=1e-15
    )
    np.testing.assert_array_equal(refs[0], [0.0, 0.0])
