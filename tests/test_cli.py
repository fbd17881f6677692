import argparse
import csv
import json

import numpy as np
import pytest

from helpers import MALFORMED_WEIGHT_HEADERS, with_arrays
from qram import agent
from qram.agent import save, init_params
from qram.cli import build_parser, main
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


def test_solve_classic_that_drops_every_task(scenario_file, tmp_path):
    # Bounds below every configuration: the drop keeps no task, so the
    # utility table and the frontier sweep run on zero rows.
    out = tmp_path / "classic.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", "classic",
                "--bounds", "1e-9,1e-9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["assignment"] == {} and doc["trace"] == []
    assert doc["dropped"] == [0, 1, 2, 3]
    assert doc["system_utility"] == 0.0


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
    pytest.param('[' * 200000 + ']' * 200000, id="JSON nested too deep"),
    pytest.param('{"format": true, "seed": 0, "targets": [{"id": 0, "ttype": '
                 '"Fighter", "range_km": 50.0, "speed_mps": 200.0}]}',
                 id="format true"),
    pytest.param('{"format": 1.0, "seed": 0, "targets": [{"id": 0, "ttype": '
                 '"Fighter", "range_km": 50.0, "speed_mps": 200.0}]}',
                 id="format 1.0"),
])
def test_solve_rejects_bad_scenario_file(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(bad), "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1


def _row(i, **fields):
    def edit(doc):
        doc["targets"][i].update(fields)
    return edit


def _entry_7(entry):
    def edit(doc):
        doc["targets"][7] = entry
    return edit


def _drop_speed_7(doc):
    del doc["targets"][7]["speed_mps"]


def _bad_seed(doc):
    doc["seed"] = "x"


def _both(first, second):
    def edit(doc):
        first(doc)
        second(doc)
    return edit


def _invalid(detail):
    """The error line of a rejected scenario file; ``{path}`` is its path."""
    return "{path}: not a valid scenario (" + detail + ")"


_SLOW_HELICOPTER = _row(7, ttype="Helicopter", speed_mps=500.0)
_FAR = ("invalid scenario or --bounds/--compound-weights: target 7 at 1e-100 "
        "km is outside the range the radar model can evaluate")


@pytest.mark.parametrize("edit, line", [
    (_row(7, id=1.5), _invalid("id must be an integer, got 1.5")),
    (_row(7, id=True), _invalid("id must be an integer, got True")),
    (_row(7, range_km=True), _invalid("range_km must be a number, got True")),
    (_row(7, range_km="50"), _invalid("range_km must be a number, got '50'")),
    (_row(7, range_km=float("nan")),
     _invalid("target range must be finite and positive: nan")),
    (_row(7, range_km=-1), _invalid("target range must be finite and positive: -1.0")),
    (_row(7, range_km=10**400), _invalid("range_km is out of range: 1" + "0" * 400)),
    (_row(7, ttype="Tank"), _invalid("'Tank' is not a valid TargetType")),
    (_SLOW_HELICOPTER, _invalid("Helicopter speed 500.0 outside [0.0, 100.0]")),
    (_drop_speed_7, _invalid("missing field 'speed_mps'")),
    (_entry_7(5), _invalid("'int' object is not subscriptable")),
    (_entry_7([1]), _invalid("list indices must be integers or slices, not str")),
    (_row(7, id=3), _invalid("target ids must be unique")),
    (_row(7, range_km=1e-100), _FAR),
    # Of two bad rows the first in file order is named, whatever its fault.
    (_both(_SLOW_HELICOPTER, _row(12, id=1.5)),
     _invalid("Helicopter speed 500.0 outside [0.0, 100.0]")),
    (_both(_row(7, id=1.5), _row(12, range_km=-1)),
     _invalid("id must be an integer, got 1.5")),
    # A bad target wins over a bad seed, and a bad seed over duplicate ids.
    (_both(_bad_seed, _row(7, range_km="50")),
     _invalid("range_km must be a number, got '50'")),
    (_both(_bad_seed, _row(7, id=3)), _invalid("seed must be an integer, got 'x'")),
], ids=["id 1.5", "id true", "range true", "range string", "range NaN",
        "range -1", "range beyond float", "unknown ttype", "speed outside type",
        "missing field", "int entry", "list entry", "duplicate id", "SNR range",
        "first of two bad rows (speed, id)", "first of two bad rows (id, range)",
        "target before seed", "seed before duplicate ids"])
def test_solve_names_the_first_bad_target_exactly(edit, line, tmp_path, capsys):
    # One bad target at row 7 of 20: the exact error line and exit code 2.
    from qram.perf import generate_scenario

    doc = generate_scenario(20, 5).to_dict()
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(bad), "--out", str(out)])
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: {line.format(path=bad)}\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["classic", "agent", "dp"])
def test_solve_builds_no_target(method, weight_file, tmp_path, monkeypatch):
    # The solve path reads the scenario as columns: no Target per row.
    from qram.perf import Target

    scenario = tmp_path / "s.json"
    assert run(["gen", "--targets", "150", "--seed", "4",
                "--out", str(scenario)]) == 0
    built = []
    check = Target.__post_init__

    def counted(self):
        built.append(self.id)
        check(self)
    monkeypatch.setattr(Target, "__post_init__", counted)
    out = tmp_path / "out.json"
    assert run(["solve", "--scenario", str(scenario), "--method", method,
                "--weights", str(weight_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["n_targets"] == 150
    assert built == []


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
    ["train", "--steps", "30", "--bounds", "1e-310,5", "--compound-weights", "0,1"],
    ["train", "--steps", "30", "--bounds", "1e-308,5", "--compound-weights", "100,1"],
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


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "classic"],
    ["solve", "--method", "agent"],
    ["solve", "--method", "brute"],
    ["solve", "--method", "dp"],
    ["train", "--steps", "3"],
], ids=" ".join)
def test_rejects_bounds_whose_upgrade_ratios_overflow(argv, scenario_file,
                                                      weight_file, tmp_path,
                                                      capsys):
    # At bounds of 1e308 the compound levels are about 1e-311 and lie as
    # little as 5e-324 apart, so a utility step over a level step overflows.
    if argv[0] == "solve":
        argv = argv + ["--scenario", str(scenario_file),
                       "--weights", str(weight_file)]
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        run(argv + ["--bounds", "1e308,1e308", "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "upgrade ratios are not finite" in message
    assert not out.exists()


@pytest.mark.parametrize("method", ["classic", "agent"])
def test_solve_at_huge_finite_bounds_writes_finite_numbers(method, scenario_file,
                                                          weight_file, tmp_path):
    def refuse(constant):
        raise AssertionError(f"{constant} in the result")

    out = tmp_path / "r.json"
    assert run(["solve", "--scenario", str(scenario_file), "--method", method,
                "--weights", str(weight_file), "--bounds", "1e280,1e280",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=refuse)
    assert doc["dropped"] == [] and doc["trace"]


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
def test_train_divergence_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(agent, "LEARNING_RATE", 1e308)
    out = tmp_path / "w.json"
    assert run(["train", "--steps", "3", "--out", str(out)]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_agent_rejects_non_finite_weights(scenario_file, tmp_path):
    params = init_params(PortableRng(0))
    weights = tmp_path / "nan.json"
    save(with_arrays(params, b_policy=np.full_like(params.b_policy, np.nan)),
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


@pytest.mark.parametrize("edit", MALFORMED_WEIGHT_HEADERS.values(),
                         ids=MALFORMED_WEIGHT_HEADERS.keys())
def test_solve_agent_rejects_malformed_weight_headers(edit, scenario_file,
                                                      tmp_path, capsys):
    weights = tmp_path / "bad.json"
    save(init_params(PortableRng(0)), weights, config_space=DEFAULT_CONFIG_SPACE)
    doc = json.loads(weights.read_text())
    edit(doc)
    weights.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario_file), "--method", "agent",
             "--weights", str(weights), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert not out.exists()


def test_solve_agent_rejects_weights_nested_too_deep(scenario_file, tmp_path,
                                                     capsys):
    weights = tmp_path / "deep.json"
    weights.write_text('[' * 200000 + ']' * 200000)
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario_file), "--method", "agent",
             "--weights", str(weights), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("method", ["classic", "agent", "brute", "dp"])
@pytest.mark.parametrize("range_km", [1e-100, 1e-80, 1e300])
def test_solve_rejects_ranges_the_model_cannot_evaluate(range_km, method,
                                                        weight_file, tmp_path,
                                                        capsys):
    # range^4 underflows to 0 (1e-100), the SNR overflows (1e-80) or the
    # SNR underflows to 0 (1e300): no tracking error exists to evaluate.
    # Of two such targets the error names the first in scenario order, not
    # the lowest id.
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps({"format": 1, "seed": 0, "targets": [
        {"id": 2, "ttype": "Fighter", "range_km": 50.0, "speed_mps": 200.0},
        {"id": 1, "ttype": "Fighter", "range_km": range_km, "speed_mps": 200.0},
        {"id": 0, "ttype": "Missile", "range_km": range_km, "speed_mps": 600.0}]}))
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", str(scenario), "--method", method,
             "--weights", str(weight_file), "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "target 1 at" in message
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "agent"],
    ["bench", "utility", "--targets", "3..3", "--runs", "1"],
    ["bench", "runtime", "--mode", "by-configs", "--configs", "90", "--runs", "1"],
], ids=" ".join)
def test_rejects_weights_that_overflow(argv, scenario_file, tmp_path, capsys):
    # Finite weights whose forward pass overflows: the logits are inf/NaN.
    params = init_params(PortableRng(0))
    weights = tmp_path / "big.json"
    save(with_arrays(params, w_trunk=params.w_trunk * 1e300,
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


def test_solve_dp_keeps_its_budget_on_a_coarse_step(tmp_path):
    # A step far above every compound cost: each configuration still costs
    # one cell, so a budget of zero cells drops every task.
    scenario = tmp_path / "s3.json"
    out = tmp_path / "dp.json"
    assert run(["gen", "--targets", "3", "--seed", "5", "--out", str(scenario)]) == 0
    assert run(["solve", "--scenario", str(scenario), "--method", "dp",
                "--dp-step", "1e10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (b1, b2), (w1, w2) = (doc["bounds"]["bounds"],
                          doc["bounds"]["compound_weights"])
    u1, u2 = doc["resource_usage"]
    assert w1 * u1 / b1 + w2 * u2 / b2 <= w1 + w2
    assert doc["dropped"] == [0, 1, 2]


def test_solve_brute_capacity_exit_code(tmp_path, capsys):
    # 91**2300 has 4,506 digits, past Python's integer-to-text limit, so
    # the message writes the count as a power.
    for targets in (30, 2300):
        big = tmp_path / f"big{targets}.json"
        run(["gen", "--targets", str(targets), "--seed", "1", "--out", str(big)])
        capsys.readouterr()
        out = tmp_path / "x.json"
        assert run(["solve", "--scenario", str(big), "--method", "brute",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: 91^{targets} combined configuration states exceed the "
            f"cap of 100000000\n")
        assert not out.exists()


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


def test_train_reports_the_steps_it_ran(tmp_path, capsys):
    # Training runs whole 3-step episodes: of 4 steps asked, 3 run.
    out, curve = tmp_path / "w.json", tmp_path / "curve.csv"
    assert run(["train", "--steps", "4", "--seed", "2", "--out", str(out),
                "--curve", str(curve)]) == 0
    assert capsys.readouterr().out.startswith("trained 3 steps (1 episodes)")
    assert [row["step"] for row in read_csv(curve)] == ["3"]


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


def _options(parser, command=()):
    """Option strings of every leaf subcommand, keyed by its command words."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(command): [o for a in parser._actions
                                    for o in a.option_strings
                                    if o not in ("-h", "--help")]}
    table = {}
    for name, sub in subs[0].choices.items():
        table.update(_options(sub, command + (name,)))
    return table


def test_cli_surface():
    # Adding or removing a flag is a deliberate change: edit this table too.
    # Options from a shared group (bounds, sweep, configs) come first.
    bounds = ["--bounds", "--compound-weights"]
    assert _options(build_parser()) == {
        "gen": ["--targets", "--seed", "--out"],
        "solve": [*bounds, "--scenario", "--method", "--weights", "--dp-step",
                  "--out"],
        "train": [*bounds, "--steps", "--seed", "--out", "--curve"],
        "bench utility": ["--targets", "--step", *bounds, "--runs", "--weights",
                          "--master-seed", "--out"],
        "bench runtime": ["--targets", "--step", "--configs", *bounds, "--mode",
                          "--runs", "--weights", "--master-seed", "--out"],
        "bench model": ["--targets", "--step", "--configs", "--layers",
                        "--neurons", "--out"],
        "demo remark1": ["--out"],
    }
