"""Every function the benchmark's timing hooks name must stay defined.

``perfbench/tracing.py`` reports a hook whose target is gone as missing
instead of failing, so a deleted function would only show up in the
benchmark's own tests. This test fails as soon as one no longer resolves.
"""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("hook", sorted(tracing.HOOKS))
def test_benchmark_hook_resolves_to_a_callable(hook):
    found = tracing.resolve(hook)
    assert found is not None, f"{hook} no longer exists"
    assert callable(found[2]), f"{hook} is not callable"
