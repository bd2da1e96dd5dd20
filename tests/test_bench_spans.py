"""The benchmark's trace targets exist in the program.

``bench/child.py --trace`` wraps the module functions named in its
``SPANS`` and ``CALL_COUNTS`` tables and reports a target it cannot find
as absent, or a counter whose field it cannot read as broken, instead of
failing.  These tests fail instead, so a refactor that renames or removes a
traced function, or changes what a counter reads, has to update the
benchmark too.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "bench" / "child.py"


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


def _measure(*argv) -> dict:
    """The measurement of one ``bench/child.py`` run from the checkout root."""
    proc = subprocess.run([sys.executable, str(CHILD), *map(str, argv)], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_trace_wraps_every_span_and_changes_no_byte(tmp_path):
    # the bench probe's geometry at two numerologies and two seeds
    campaign = tmp_path / "campaign.json"
    campaign.write_text(json.dumps({
        "base": {"highway_length_m": 2000, "ivd_m": 250},
        "sweep_mu": [0, 1],
        "seeds": [1, 2],
    }))
    traced = _measure("trace", campaign, tmp_path / "traced.csv")
    plain = _measure("sweep", campaign, tmp_path / "plain.csv", 1)
    assert traced["exit_code"] == plain["exit_code"] == 0
    assert traced["absent_spans"] == []
    assert traced["broken_counters"] == []
    assert traced["restored"]
    assert set(traced["self_s"]) == {*_child.SPANS, _child.ROOT_SPAN}
    assert traced["counts"]["engine.links"] > 0
    assert traced["counts"]["l2sm.lookups"] > 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
