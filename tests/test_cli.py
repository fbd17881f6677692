import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from qram.agent import save, init_params
from qram.cli import main
from qram.core import DEFAULT_CONFIG_SPACE
from qram.rng import PortableRng


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    assert run(["gen", "--targets", "4", "--seed", "42", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def weight_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "weights.json"
    assert run(["train", "--steps", "600", "--seed", "3",
                "--out", str(path)]) == 0
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_bit_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "--targets", "6", "--seed", "9", "--out", str(a)])
    run(["gen", "--targets", "6", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["format"] == 1 and len(doc["targets"]) == 6


def test_gen_rejects_zero_targets(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["gen", "--targets", "0", "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


def test_solve_classic_output_schema(scenario_file, tmp_path):
    out = tmp_path / "classic.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", "classic",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == 1 and doc["method"] == "classic"
    assert set(doc["assignment"]) == {"0", "1", "2", "3"}
    assert doc["system_utility"] > 0
    assert {"embed_s", "hull_s", "optimize_s"} <= set(doc["timings"])
    assert len(doc["trace"]) > 0
    assert doc["dropped"] == []


def test_solve_classic_matches_library(scenario_file, tmp_path):
    from qram.classic import solve_classic
    from qram.perf import Scenario
    from qram.problem import (build_tracking_instance, default_bounds,
                              system_utility)

    out = tmp_path / "classic.json"
    run(["solve", "--scenario", str(scenario_file), "--method", "classic",
         "--out", str(out)])
    doc = json.loads(out.read_text())
    scenario = Scenario.from_dict(json.loads(scenario_file.read_text()))
    inst = build_tracking_instance(scenario, default_bounds(4),
                                   DEFAULT_CONFIG_SPACE)
    alloc, _ = solve_classic(inst)
    assert doc["system_utility"] == system_utility(alloc, inst)


def test_solve_reproducible_modulo_timings(scenario_file, tmp_path):
    docs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        run(["solve", "--scenario", str(scenario_file), "--method", "classic",
             "--out", str(out)])
        doc = json.loads(out.read_text())
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_solve_brute_dominates_classic(scenario_file, tmp_path):
    classic, brute = tmp_path / "c.json", tmp_path / "b.json"
    run(["solve", "--scenario", str(scenario_file), "--method", "classic",
         "--out", str(classic)])
    run(["solve", "--scenario", str(scenario_file), "--method", "brute",
         "--out", str(brute)])
    cu = json.loads(classic.read_text())["system_utility"]
    bu = json.loads(brute.read_text())["system_utility"]
    assert bu >= cu - 1e-12


@pytest.mark.parametrize("text", [
    "{not json",
    '{"format": 2, "seed": 0, "targets": []}',
    '{"format": 1, "seed": 0}',
    '[1, 2, 3]',
    '{"format": 1, "seed": 0, "targets": [{"id": 0, "ttype": "Fighter", '
    '"range_km": NaN, "speed_mps": 200.0}]}',
    '{"format": 1, "seed": 0, "targets": []}',
    '{"format": 1, "seed": 0, "targets": [{"id": 1.5, "ttype": "Fighter", '
    '"range_km": 50.0, "speed_mps": 200.0}]}',
    '{"format": 1, "seed": 0, "targets": [{"id": 0, "ttype": "Fighter", '
    '"range_km": true, "speed_mps": 200.0}]}',
    pytest.param('{"format": 1, "seed": 0, "targets": [{"id": 0, "ttype": '
                 '"Fighter", "range_km": 1' + '0' * 400 + ', "speed_mps": 200.0}]}',
                 id="integer range_km beyond the float range"),
])
def test_solve_rejects_bad_scenario_file(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(bad), "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1


@pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
def test_solve_rejects_non_positive_dp_step(step, scenario_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario_file), "--method", "dp",
             "--dp-step", step, "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--bounds", "nan,1"],
    ["solve", "--bounds", "inf,1"],
    ["solve", "--bounds", "0,1"],
    ["solve", "--compound-weights", "0,0"],
    ["solve", "--method", "dp", "--compound-weights", "1e308,1e308"],
    ["solve", "--method", "dp", "--bounds", "1e-308,5", "--compound-weights", "100,1"],
    ["solve", "--method", "classic", "--bounds", "1e-310,5", "--compound-weights", "0,1"],
    ["train", "--steps", "3", "--bounds", "nan,1"],
    ["train", "--steps", "3", "--discount", "1.5"],
    ["train", "--steps", "3", "--lr", "-1"],
    ["train", "--steps", "3", "--lr", "nan"],
    ["train", "--steps", "3", "--rmsprop-decay", "1.5"],
    ["train", "--steps", "3", "--entropy-coeff", "nan"],
    ["train", "--steps", "3", "--value-coeff", "inf"],
    ["bench", "runtime", "--mode", "by-configs", "--configs", "100", "--runs", "1"],
    ["solve", "--out", "."],  # a directory, not a file
], ids=" ".join)
def test_rejects_bad_input_with_one_error_line(argv, scenario_file, tmp_path, capsys):
    if argv[0] == "solve":
        argv = argv + ["--scenario", str(scenario_file)]
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("configs", ["0", "-90", "90,0"])
def test_bench_configs_must_be_positive(configs, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["bench", "model", "--targets", "1..2", "--configs", configs,
             "--out", str(tmp_path / "m.csv")])
    assert err.value.code == 2
    assert "positive integers" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_bench_utility_rejects_empty_classic_allocation(weight_file, tmp_path,
                                                        capsys):
    # Bounds below every configuration leave classic with utility 0, so the
    # agent/classic ratio has no value.
    out = tmp_path / "u.csv"
    with pytest.raises(SystemExit) as err:
        run(["bench", "utility", "--targets", "2..2", "--runs", "1",
             "--weights", str(weight_file), "--bounds", "1e-9,1e-9",
             "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "2 targets" in message
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["train", "--steps", "3", "--lr", "1e308",
                "--out", str(out)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_agent_rejects_non_finite_weights(scenario_file, tmp_path):
    params = init_params(PortableRng(0))
    weights = tmp_path / "nan.json"
    save(replace(params, b_policy=np.full_like(params.b_policy, np.nan)),
         weights, config_space=DEFAULT_CONFIG_SPACE)
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario_file), "--method", "agent",
             "--weights", str(weights), "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "agent"],
    ["bench", "utility", "--targets", "2..2", "--runs", "1"],
    ["bench", "runtime", "--mode", "by-configs", "--configs", "90", "--runs", "1"],
], ids=" ".join)
def test_rejects_weights_for_other_input_widths(argv, scenario_file, tmp_path,
                                                capsys):
    weights = tmp_path / "w4.json"
    save(init_params(PortableRng(0), situational_in=4), weights,
         config_space=DEFAULT_CONFIG_SPACE)
    if argv[0] == "solve":
        argv = argv + ["--scenario", str(scenario_file)]
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as err:
        run(argv + ["--weights", str(weights), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "4+3" in message
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "agent"],
    ["bench", "utility", "--targets", "3..3", "--runs", "1"],
], ids=" ".join)
def test_rejects_weights_that_overflow(argv, scenario_file, tmp_path, capsys):
    # Finite weights whose forward pass overflows: the logits are inf/NaN.
    params = init_params(PortableRng(0))
    weights = tmp_path / "big.json"
    save(replace(params, w_trunk=params.w_trunk * 1e300,
                 w_policy=params.w_policy * 1e300),
         weights, config_space=DEFAULT_CONFIG_SPACE)
    if argv[0] == "solve":
        argv = argv + ["--scenario", str(scenario_file)]
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as err:
        run(argv + ["--weights", str(weights), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "not finite" in message
    assert not out.exists()


@pytest.mark.parametrize("bounds,weights", [
    ("1,1e-300", "1,1e8"),  # finite costs beyond the int64 range
    ("1e-306,5", "1,0"),    # compound / step overflows to inf
])
def test_solve_dp_huge_costs_drop_every_task(bounds, weights, scenario_file,
                                             tmp_path):
    out = tmp_path / "dp.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", "dp",
                "--bounds", bounds, "--compound-weights", weights,
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["system_utility"] == 0.0 and doc["dropped"] == [0, 1, 2, 3]


def test_solve_brute_capacity_exit_code(tmp_path):
    big = tmp_path / "big.json"
    run(["gen", "--targets", "30", "--seed", "1", "--out", str(big)])
    assert run(["solve", "--scenario", str(big), "--method", "brute",
                "--out", str(tmp_path / "x.json")]) == 3


def test_solve_dp_table_capacity_exit_code(scenario_file, tmp_path, capsys):
    # 2e15 budget cells would need a petabyte-sized table: refused up front.
    out = tmp_path / "x.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", "dp",
                "--dp-step", "1e-15", "--out", str(out)]) == 3
    message = capsys.readouterr().err
    assert message.startswith("error: ") and "knapsack table cells" in message
    assert not out.exists()


def test_solve_agent_needs_weights(scenario_file, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario_file), "--method", "agent",
             "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


def test_solve_agent_rejects_wrong_grid(scenario_file, tmp_path):
    weights = tmp_path / "w12.json"
    save(init_params(PortableRng(0), n_actions=12), weights)
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario_file), "--method", "agent",
             "--weights", str(weights), "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


def test_solve_agent_runs(scenario_file, weight_file, tmp_path):
    out = tmp_path / "agent.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", "agent",
                "--weights", str(weight_file), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert {"agent_query_s", "optimize_s"} <= set(doc["timings"])


def test_solve_dp_notes_relaxation(scenario_file, tmp_path):
    out = tmp_path / "dp.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", "dp",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["resource_model"] == "compound_relaxation"


def test_train_zero_steps_writes_init_weights(tmp_path):
    out = tmp_path / "w0.json"
    curve = tmp_path / "curve.csv"
    assert run(["train", "--steps", "0", "--seed", "5", "--out", str(out),
                "--curve", str(curve)]) == 0
    doc = json.loads(out.read_text())
    assert doc["architecture"]["n_actions"] == 90
    assert read_csv(curve) == []


def test_train_deterministic_and_curve_rows(tmp_path):
    outs = []
    for name in ("wa", "wb"):
        out, curve = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        assert run(["train", "--steps", "150", "--seed", "11", "--out", str(out),
                    "--curve", str(curve)]) == 0
        outs.append((out.read_bytes(), curve.read_bytes()))
    assert outs[0] == outs[1]
    rows = read_csv(tmp_path / "wa.csv")
    assert len(rows) == 50  # one row per episode


def test_bench_utility_schema_and_envelope(weight_file, tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "utility", "--targets", "4..8", "--step", "2",
                "--runs", "3", "--weights", str(weight_file),
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 3  # 4, 6, 8
    for row in rows:
        ratio = float(row["ratio"])
        assert 0.0 < ratio <= 1.05


def test_bench_utility_reproducible(weight_file, tmp_path):
    blobs = []
    for name in ("u1.csv", "u2.csv"):
        out = tmp_path / name
        run(["bench", "utility", "--targets", "4..6", "--step", "2",
             "--runs", "2", "--weights", str(weight_file), "--out", str(out)])
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_bench_runtime_by_configs_schema(tmp_path):
    out = tmp_path / "rt.csv"
    assert run(["bench", "runtime", "--mode", "by-configs",
                "--configs", "90,180", "--runs", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["configs"] for r in rows] == ["90", "180"]
    assert all(float(r["joblist_s"]) > 0 and float(r["forward_s"]) > 0
               for r in rows)


def test_bench_runtime_by_targets_schema(weight_file, tmp_path):
    out = tmp_path / "rt2.csv"
    assert run(["bench", "runtime", "--mode", "by-targets",
                "--targets", "4..6", "--step", "2", "--runs", "2",
                "--weights", str(weight_file), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert all(float(r["classic_solve_s"]) > 0 for r in rows)


def test_bench_model_closed_forms(tmp_path):
    out = tmp_path / "model.csv"
    assert run(["bench", "model", "--targets", "10..20", "--step", "10",
                "--configs", "90", "--layers", "4", "--neurons", "100",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    import math
    for row in rows:
        t, c = int(row["targets"]), int(row["configs"])
        assert float(row["classic_model"]) == t * c * math.log(c)
        assert float(row["agent_model"]) == t * c * 4 * 100**2


def test_demo_remark1_csv(tmp_path):
    out = tmp_path / "remark1.csv"
    assert run(["demo", "remark1", "--out", str(out)]) == 0
    rows = read_csv(out)
    sizes = [int(r["configs_per_task"]) for r in rows]
    greedy = [float(r["greedy_utility"]) for r in rows]
    optimal = [float(r["optimal_utility"]) for r in rows]
    assert sizes == sorted(sizes)
    assert all(b >= a - 1e-12 for a, b in zip(optimal, optimal[1:]))
    assert any(b < a - 1e-9 for a, b in zip(greedy, greedy[1:]))
