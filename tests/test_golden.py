"""Golden outputs: seeded CLI results stay byte-identical across refactors.

Each digest is the sha256 of one CLI output.  A ``result.json`` is hashed
after dropping its wall-clock ``timings`` and re-serialising it exactly as
``qram solve`` writes it; the remark1 CSV is hashed as written.  A change
that alters any of these outputs on purpose must say why and update the
digest in the same change.
"""

import hashlib
import json

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

REMARK1_DIGEST = (
    "5726d2f77f69b5850088c9d97085f78d51a245c950221673e46b6c58e8476b3b")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _result_digest(path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timings")
    return _sha256((json.dumps(doc, indent=1, sort_keys=True) + "\n").encode())


@pytest.fixture(scope="module")
def weight_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "weights.json"
    assert main(["train", "--steps", "300", "--seed", "17",
                 "--out", str(path)]) == 0
    return path


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


def test_remark1_csv_unchanged(tmp_path):
    assert remark1_digest(tmp_path) == REMARK1_DIGEST
