import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import qram


def test_every_public_name_resolves_once():
    repeated = [name for name, count in collections.Counter(qram.__all__).items()
                if count > 1]
    assert not repeated
    missing = [name for name in qram.__all__ if not hasattr(qram, name)]
    assert not missing


#: Names of the scalar utility and cost models and of test-only helpers that
#: left the package; tests/helpers.py keeps the references.
REMOVED = ("quality", "snr", "task_utility", "utility_from_quality",
           "QualityValue", "raw_quotient", "greedy_action", "resource_of")


def test_removed_names_stay_out_of_the_package():
    import qram.perf
    assert not set(REMOVED) & set(qram.__all__)
    assert not [name for name in REMOVED
                if hasattr(qram, name) or hasattr(qram.perf, name)]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_import_defaults_blas_to_one_thread_and_keeps_a_user_value():
    # A fresh interpreter: numpy reads these only when it is first imported.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["OMP_NUM_THREADS"] = "3"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(qram.__file__).parents[1]), env.get("PYTHONPATH")]))
    probe = ("import os, qram; print(*(os.environ[v] for v in "
             f"{BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["1", "3", "1"]


#: Target fields and the type weight table.  Only the model modules read
#: them, ``kernels`` only in the per-task ``config_metrics``; every other
#: module reaches a target through its ``problem.target_block`` row.
TARGET_READS = {"ttype", "range_km", "speed_mps", "TYPE_UTILITY_WEIGHT"}
TARGET_READERS = {("perf.py", None), ("problem.py", None),
                  ("kernels.py", "config_metrics")}


def test_only_the_model_modules_read_target_fields():
    found = set()
    for path in sorted(Path(qram.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in TARGET_READS
                        or isinstance(node, ast.Name)
                        and node.id == "TYPE_UTILITY_WEIGHT"):
                    found.add((path.name, getattr(top, "name", None)))
    assert ("kernels.py", "config_metrics") in found  # the scan sees reads
    assert not [(name, scope) for name, scope in found
                if (name, scope) not in TARGET_READERS
                and (name, None) not in TARGET_READERS]


#: The callers of ``kernels.utility``: ``problem.block_utility`` pairs block
#: rows with grid indices for the solvers, the environment and the result
#: check, and ``config_metrics`` evaluates one ``Target`` for a job list.
UTILITY_CALLERS = {("problem.py", "block_utility"), ("kernels.py", "config_metrics")}


def test_only_block_utility_and_config_metrics_call_the_utility_kernel():
    found = set()
    for path in sorted(Path(qram.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {"utility"} if path.name == "kernels.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "kernels":
                names |= {a.asname or a.name for a in node.names
                          if a.name == "utility"}
        for top in tree.body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if (isinstance(func, ast.Name) and func.id in names
                        or isinstance(func, ast.Attribute) and func.attr == "utility"
                        and getattr(func.value, "id", None) == "kernels"):
                    found.add((path.name, getattr(top, "name", None)))
    assert found == UTILITY_CALLERS


def test_the_package_imports_only_the_standard_library_and_numpy():
    # The package needs only numpy: no optional accelerator or twin.
    allowed = set(sys.stdlib_module_names) | {"numpy", "qram"}
    found = set()
    for path in sorted(Path(qram.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module))
    assert found
    assert not [(name, module) for name, module in found
                if module.partition(".")[0] not in allowed]


#: Imports kept for a reader outside the module: perfbench's tracer wraps
#: ``embed_task`` and ``upper_frontier`` in ``qram.cli`` by name.
UNUSED_IMPORTS_ALLOWED = {("qram/cli.py", "embed_task"), ("qram/cli.py", "upper_frontier")}


def _unused_imports(path):
    """Names ``path`` imports but never reads; ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return {(f"{path.parent.name}/{path.name}", name) for name in imported - used}


def test_no_module_imports_a_name_it_never_uses():
    paths = [*Path(qram.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    unused = set().union(*map(_unused_imports, paths))
    assert UNUSED_IMPORTS_ALLOWED <= unused  # the check sees them
    assert unused == UNUSED_IMPORTS_ALLOWED
