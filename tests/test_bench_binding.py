"""The traced benchmark run must still find every name it wraps.

``perfbench/tracing.py`` wraps public functions where their callers look
them up (``owner.__dict__[attr]``), so renaming or moving one of them
silently breaks the per-layer report.  The module is loaded read-only from
its file; nothing is patched here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracing().PATCHES


@pytest.mark.parametrize("module_name,path", [(m, p) for m, p, _, _ in PATCHES])
def test_patched_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = owner.__dict__[cls]
    assert callable(owner.__dict__[attr])


def test_config_eval_counter_exists():
    from qram import kernels
    assert "config_evals" in kernels.counters
