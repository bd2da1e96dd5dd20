"""The engine against its spec, the whole-array reference run.

Every member of a group that execute_run simulates together must get what
reference.ref_run gets for it alone: every RunResult field and every
run_sample_table row.  That covers the one tiling of the link search, the
SINR pass and the decisions, the stream order, the sharing of the
deployment, the link search, the schedule signature and the decision key
(the BLER table included: members draw their tables one by one), and the
lookup index.  Memory peaks and work counts are not results; the
tracemalloc and count tests in test_engine.py and test_cli.py guard those.
"""

import ast
import math
from dataclasses import fields, replace
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrv2xsim import config, engine
from nrv2xsim.config import SimConfig
from reference import ref_run

TESTS = Path(__file__).resolve().parent
# curves that fall from BLER 1 to 0 across the SINRs of these links, so
# many lookups land beyond either end, where a lookup off by one ulp leaves
# [0, 1]
SATURATING = str(TESTS / "data" / "saturating_bler.csv")

# two 1732 m cells: at 10 MHz "none" supports 700/600/400 transmitters per
# cell at mu 0/1/2 and tf 10, the two-phase schemes half of that and tf 20
# halves it again, so at ivd 20 (about 516 vehicles per cell) a group mixes
# overloaded schedule signatures with ones that keep every vehicle, and at
# ivd 100 "equal" and "nonequal:1" share their MCS
TWO_CELLS = SimConfig(highway_length_m=3464.0, num_gnb=2, bandwidth_mhz=10.0,
                      comm_range_m=200.0)
# the same two cells at 20 MHz, the carrier of dense_drop, delta_sweep and
# two of the shipped campaigns: "none" supports 1500/1400/1200 transmitters
# per cell at mu 0/1/2 and tf 10, so at ivd 20 only the two-phase schemes at
# tf 20 overload
TWO_CELLS_20MHZ = replace(TWO_CELLS, bandwidth_mhz=20.0)
# 5 MHz at mu=1 gives 11 PRBs and a 12-PRB message fits nowhere: nobody
# transmits, while mu=0 runs of the group do
ZERO_CAPACITY = SimConfig(highway_length_m=1732.0, num_gnb=1, bandwidth_mhz=5.0,
                          max_mcs_efficiency=0.25)
# pass config -> the numerologies its bandwidth allows
PASSES = {"two_cells": (TWO_CELLS, (0, 1, 2)), "two_cells_20mhz": (TWO_CELLS_20MHZ, (0, 1, 2)),
          "zero_capacity": (ZERO_CAPACITY, (0, 1))}


def assert_same_run(got, expected):
    """Every RunResult field equal, NaN matching NaN."""
    for f in fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(b, float) and math.isnan(b):
            assert isinstance(a, float) and math.isnan(a), f.name
        else:
            assert a == b, f.name


def assert_matches_reference(members):
    """execute_run(members) gives each member its reference run."""
    grouped = engine.execute_run(members)
    assert len(grouped) == len(members)
    for cfg, (result, drops) in zip(members, grouped):
        expected, rows = ref_run(cfg)
        assert_same_run(result, expected)
        assert engine.run_sample_table(drops) == rows


@st.composite
def _groups(draw):
    base, mus = PASSES[draw(st.sampled_from(sorted(PASSES)))]
    base = replace(
        base,
        ivd_m=draw(st.sampled_from((20.0, 40.0, 100.0))),
        drops=draw(st.integers(1, 2)),
        comm_range_m=draw(st.sampled_from((base.comm_range_m, 0.0))),
        seed=draw(st.integers(0, 1000)),
    )
    member = st.builds(
        lambda mu, tf, retx, delta, table: replace(base, mu=mu, tf_hz=tf, retx_scheme=retx,
                                                   l2sm_delta_db=delta, bler_table_path=table),
        st.sampled_from(mus), st.sampled_from((10.0, 20.0)),
        st.sampled_from(("none", "equal", "nonequal:1", "nonequal:4")),
        st.sampled_from(config.L2SM_DELTA_VALUES_DB),
        st.sampled_from((None, SATURATING)),
    )
    return draw(st.lists(member, min_size=1, max_size=6))


# always run: both ends of the saturating curves under one and two phases,
# and a key that decides each phase before a combining key of its noise
SATURATING_GROUP = [replace(TWO_CELLS, ivd_m=40.0, drops=2, seed=3, bler_table_path=SATURATING,
                            mu=mu, retx_scheme=retx, l2sm_delta_db=5.0)
                    for mu, retx in ((0, "none"), (0, "nonequal:1"), (0, "equal"),
                                     (2, "equal"), (1, "nonequal:4"))]

# always run: one pass under both tables, each scheme's keys differing only
# in the table
TWO_TABLE_GROUP = [replace(TWO_CELLS, ivd_m=40.0, seed=3, bler_table_path=table,
                           retx_scheme=retx, l2sm_delta_db=5.0)
                   for retx in ("none", "equal") for table in (None, SATURATING)]

# always run: each cell keeps floor(7000 / tf) transmitters at 10 MHz and
# mu 0, so the group's passes hold 2, 62, 64, 66, 128 and 130 of them, on
# either side of a 64-transmitter block boundary, with interference
BLOCK_EDGE_GROUP = [replace(TWO_CELLS, ivd_m=20.0, tf_hz=7000.0 / (k + 0.5))
                    for k in (1, 31, 32, 33, 64, 65)]


@settings(max_examples=40, deadline=None)
@given(members=_groups())
@example(members=SATURATING_GROUP)
@example(members=TWO_TABLE_GROUP)
@example(members=BLOCK_EDGE_GROUP)
def test_execute_run_matches_reference(members):
    assert_matches_reference(members)


def test_reference_imports_no_engine():
    # the spec must not lean on what it specifies: no engine module and no
    # private name of the program
    tree = ast.parse((TESTS / "reference.py").read_text())
    program = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name != "nrv2xsim.engine"
                assert not any(part.startswith("_") for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nrv2xsim"):
            assert node.module != "nrv2xsim.engine"
            for alias in node.names:
                assert alias.name != "engine" and not alias.name.startswith("_"), alias.name
                if node.module == "nrv2xsim":
                    program.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in program:
            assert not node.attr.startswith("_"), f"{node.value.id}.{node.attr}"
