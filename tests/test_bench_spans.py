"""The benchmark's trace targets exist in the program.

``bench/child.py --trace`` wraps the module functions named in its
``SPANS`` and ``CALL_COUNTS`` tables and reports a target it cannot find
as absent instead of failing.  This test fails instead, so a refactor that
renames or removes a traced function has to update the benchmark too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_child = _load_child()
TARGETS = {**_child.SPANS, **_child.CALL_COUNTS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    module, attr = TARGETS[name]
    assert callable(getattr(importlib.import_module(f"nrv2xsim.{module}"), attr))


def test_span_counters_name_spans():
    assert set(_child.SPAN_COUNTERS) <= set(_child.SPANS)
