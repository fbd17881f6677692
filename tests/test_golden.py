"""Golden outputs: seeded CLI results stay byte-identical across refactors.

Each digest is the sha256 of one CLI output.  A ``result.json`` is hashed
after dropping its wall-clock ``timings`` and re-serialising it with
``json.dumps(doc, indent=1, sort_keys=True)``, so the digest depends on the
result's content, not on how ``qram solve`` lays out the file; the remark1
CSV and the training outputs are hashed as written.  A change
that alters any of these outputs on purpose must say why and update the
digest in the same change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qram.cli import main

#: (method, targets, scenario seed) -> digest of result.json minus timings.
SOLVE_DIGESTS = {
    ("classic", 20, 1):
        "dd4edb2666ee2954c9033a2cffa108e15faa15e2c7db038232ada640e98a8e04",
    ("classic", 20, 2):
        "81db36084ef84990223517a6c4a251c4d2517416fde75e473d44d2d59a9a352e",
    ("classic", 150, 1):
        "02b7c9b547142e8fb99277b030506d6190573b66d09b102d8370788b0b427994",
    ("classic", 150, 2):
        "e7198a45cd3243b4b9b49e2e615a5df6eb5aae4f3af8d4678b30754668d55ed9",
    ("agent", 20, 1):
        "9401ca72c00d0b201f84742835bff37e1c3823e212cdc8c90769f43e8675371d",
    ("agent", 20, 2):
        "8327f437a21de5795c3759ac044d18fd166d4a81f3903a4d952e80c92680487c",
    ("agent", 150, 1):
        "ddf4a1f20ea6b61f24502b4f15285515c79dcafc50e4b5e95781954c2994c392",
    ("agent", 150, 2):
        "9515e7fefee0b76f11eeff7e8ec4c1b877d4662e3ee4593324dad0d59afc1966",
    ("dp", 20, 1):
        "6b0a4037f22818bc7884a37de746d856451d82920f93c12ee00acbab15f257ed",
    ("dp", 150, 1):
        "f355ca32e5b4c80fbe0fcd29fcc008121b308bae47362e9ef78f36597e2da668",
    ("brute", 4, 42):
        "101ff0f0be9378fd17fd9f67c11da9d5ec4d8deea8cdb43b4a2f3442747b74ae",
}

#: The same, solved with ``--bounds 0.15,0.5``: the occupancy bound forces 68
#: drops and the power bound ends classic's 136 upgrades, so these cover the
#: drop path and both bounds.
TIGHT_BOUNDS = ["--bounds", "0.15,0.5"]
TIGHT_DIGESTS = {
    ("classic", 150, 1):
        "19d81787155c5a1eec000123747c40a8c678604d631c3a62324a1fac63b64b51",
    ("agent", 150, 1):
        "14ead67cd89548d98a5812196785a9e690dccd560ececa86d51ac43360ea1a82",
}

#: The dp solve at bench size on a coarser grid, ``--dp-step 0.01`` (200
#: budget cells instead of the default 2000).
DP_STEP = ["--dp-step", "0.01"]
DP_STEP_DIGESTS = {
    ("dp", 150, 1):
        "0219d7649b133517e3185708e79241456204fe9e368691b844e24a7653445eee",
}

#: At the benchmark's sizes, seed 1, default bounds, the agent solving with
#: the frozen weights ``perfbench/weights/agent-seed1-30k.json`` (read
#: only).  Classic takes 1,069 and 1,102 upgrades.  At 1000 targets even
#: the start configurations do not fit, so both allocators drop 451 tasks.
FROZEN_WEIGHTS = (Path(__file__).resolve().parent.parent / "perfbench"
                  / "weights" / "agent-seed1-30k.json")
LARGE_DIGESTS = {
    ("classic", 500, 1):
        "00be6084e78bc7a6aa9d2c7204b114344efe6a1606ae9be20d9b1fef876956e4",
    ("classic", 1000, 1):
        "af375ea5c5dfccadd9d585e87358d795c4915002adf1a4f6c5546991643a696c",
    ("agent", 500, 1):
        "80bee6bb653d124acb2f4dd3c2f0b2d3e3cdadb27f20fdeec449d40764698509",
    ("agent", 1000, 1):
        "13856735a807b3764417ed33cd00be2b4966a32e8a7c9e6556c29b54f08497af",
}

#: ``qram train --steps 300 --seed 17``: the weight file and the learning
#: curve, both hashed as written.  Every agent digest above solves with these
#: weights, but only through argmax decisions.
TRAIN_DIGESTS = {
    "weights": "8ead372b3bcd7538ae0e4060a9cfc430461238997d350c486426f0e35165003c",
    "curve": "477851887bfac16aab21f3ae3db92f31d6160ea557cd2ac415d51917ec32e83d",
}

REMARK1_DIGEST = (
    "5726d2f77f69b5850088c9d97085f78d51a245c950221673e46b6c58e8476b3b")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timings")
    return _sha256((json.dumps(doc, indent=1, sort_keys=True) + "\n").encode())


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    paths = {"weights": workdir / "weights.json", "curve": workdir / "curve.csv"}
    assert main(["train", "--steps", "300", "--seed", "17",
                 "--out", str(paths["weights"]),
                 "--curve", str(paths["curve"])]) == 0
    return paths


@pytest.fixture(scope="module")
def weight_file(trained_files):
    return trained_files["weights"]


def solve_digest(method, targets, seed, weights, workdir, extra=()) -> str:
    scenario = workdir / f"scenario-{targets}-{seed}.json"
    assert main(["gen", "--targets", str(targets), "--seed", str(seed),
                 "--out", str(scenario)]) == 0
    out = workdir / f"{method}-{targets}-{seed}.json"
    argv = ["solve", "--scenario", str(scenario), "--method", method,
            "--out", str(out)]
    if method == "agent":
        argv += ["--weights", str(weights)]
    assert main(argv + list(extra)) == 0
    return _result_digest(out)


def remark1_digest(workdir) -> str:
    out = workdir / "remark1.csv"
    assert main(["demo", "remark1", "--out", str(out)]) == 0
    return _sha256(out.read_bytes())


@pytest.mark.parametrize("method,targets,seed", list(SOLVE_DIGESTS))
def test_solve_result_unchanged(method, targets, seed, weight_file, tmp_path):
    got = solve_digest(method, targets, seed, weight_file, tmp_path)
    assert got == SOLVE_DIGESTS[(method, targets, seed)]


@pytest.mark.parametrize("method,targets,seed", list(TIGHT_DIGESTS))
def test_solve_result_unchanged_under_tight_bounds(method, targets, seed,
                                                   weight_file, tmp_path):
    got = solve_digest(method, targets, seed, weight_file, tmp_path,
                       TIGHT_BOUNDS)
    assert got == TIGHT_DIGESTS[(method, targets, seed)]


@pytest.mark.parametrize("method,targets,seed", list(DP_STEP_DIGESTS))
def test_solve_result_unchanged_on_coarse_dp_grid(method, targets, seed,
                                                  weight_file, tmp_path):
    got = solve_digest(method, targets, seed, weight_file, tmp_path, DP_STEP)
    assert got == DP_STEP_DIGESTS[(method, targets, seed)]


@pytest.mark.parametrize("method,targets,seed", list(LARGE_DIGESTS))
def test_solve_result_unchanged_at_bench_size(method, targets, seed, tmp_path):
    got = solve_digest(method, targets, seed, FROZEN_WEIGHTS, tmp_path)
    assert got == LARGE_DIGESTS[(method, targets, seed)]


@pytest.mark.parametrize("name", list(TRAIN_DIGESTS))
def test_training_output_unchanged(name, trained_files):
    assert _sha256(trained_files[name].read_bytes()) == TRAIN_DIGESTS[name]


def test_remark1_csv_unchanged(tmp_path):
    assert remark1_digest(tmp_path) == REMARK1_DIGEST
