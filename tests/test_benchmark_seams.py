"""The benchmark's traced pass wraps hinalloc functions by name; each name must resolve.

``perfbench/tracing.py`` skips a target that no longer exists and drops every
metric built on it, so a rename in ``src/`` would silently change the shape of
the traced result. This test turns that into a failure that names the target.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path", [(m, p) for m, p, _, _ in _targets()])
def test_traced_target_exists(module_name, path):
    owner = importlib.import_module(f"hinalloc.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), (
        f"hinalloc.{module_name}.{path} is gone but perfbench/tracing.py still traces it; "
        "retarget tracing in a benchmark change first"
    )
