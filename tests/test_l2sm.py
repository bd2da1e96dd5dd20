import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nrv2xsim import l2sm


def test_default_table_covers_all_mcs():
    table = l2sm.default_bler_table()
    assert table.mcs_indices() == list(range(1, 16))
    for mcs in table.mcs_indices():
        snr, bler = table.curves[mcs]
        assert np.all(np.diff(snr) > 0)
        assert np.all(np.diff(bler) <= 0)
        assert np.all((bler >= 0) & (bler <= 1))


def test_dump_load_round_trip():
    table = l2sm.default_bler_table()
    buf = io.StringIO()
    l2sm.dump_table(table, buf)
    loaded = l2sm.load_table(io.StringIO(buf.getvalue()))
    for mcs in range(1, 16):
        np.testing.assert_array_equal(loaded.curves[mcs][0], table.curves[mcs][0])
        np.testing.assert_array_equal(loaded.curves[mcs][1], table.curves[mcs][1])


def test_load_rejects_increasing_bler():
    rows = ["mcs,snr_db,bler"]
    for mcs in range(1, 16):
        rows += [f"{mcs},0.0,0.2", f"{mcs},1.0,0.5"]
    with pytest.raises(ValueError, match="non-increasing"):
        l2sm.load_table(io.StringIO("\n".join(rows)))


def test_load_rejects_empty():
    with pytest.raises(ValueError, match="missing MCS 1..15"):
        l2sm.load_table(io.StringIO(""))
    with pytest.raises(ValueError, match="missing MCS 1..15"):
        l2sm.load_table(io.StringIO("mcs,snr_db,bler\n"))


def test_load_rejects_partial():
    rows = ["mcs,snr_db,bler", "1,0.0,0.5", "1,1.0,0.4"]
    with pytest.raises(ValueError, match="missing MCS"):
        l2sm.load_table(io.StringIO("\n".join(rows)))


def test_load_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        l2sm.load_table(io.StringIO("snr,bler\n"))


def test_lookup_constant_extrapolation():
    table = l2sm.default_bler_table()
    snr, bler = table.curves[5]
    assert l2sm.bler_lookup(table, 5, np.array([snr[0] - 100.0])) == bler[0]
    assert l2sm.bler_lookup(table, 5, np.array([snr[-1] + 100.0])) == bler[-1]
    assert bler[0] > 0.99
    assert bler[-1] < 1e-6


def test_lookup_unknown_mcs():
    with pytest.raises(ValueError, match="unknown mcs"):
        l2sm.bler_lookup(l2sm.default_bler_table(), 16, np.array([0.0]))


@given(
    mcs=st.integers(1, 15),
    grid_index=st.integers(0, 400),
    delta=st.sampled_from([3.0, 5.0, 7.0]),
)
@settings(max_examples=200)
def test_shift_identity_exact(mcs, grid_index, delta):
    table = l2sm.default_bler_table()
    s = table.curves[mcs][0][grid_index : grid_index + 1]
    assert l2sm.bler_lookup(table, mcs, s, delta) == l2sm.bler_lookup(
        table, mcs, s + delta, 0.0
    )


def test_delta_dominance():
    table = l2sm.default_bler_table()
    grid = np.linspace(-12.0, 32.0, 221)
    for mcs in (1, 7, 15):
        prev = l2sm.bler_lookup(table, mcs, grid, 0.0)
        for delta in (3.0, 5.0, 7.0):
            cur = l2sm.bler_lookup(table, mcs, grid, delta)
            assert np.all(cur <= prev)
            prev = cur


def test_higher_mcs_never_easier():
    table = l2sm.default_bler_table()
    grid = np.linspace(-10.0, 30.0, 81)
    prev = l2sm.bler_lookup(table, 1, grid)
    for mcs in range(2, 16):
        cur = l2sm.bler_lookup(table, mcs, grid)
        assert np.all(cur >= prev)
        prev = cur


def test_reception_extremes():
    rng = np.random.default_rng(0)
    assert all(l2sm.reception_draw(np.array([0.0]), rng) for _ in range(100))
    assert not any(l2sm.reception_draw(np.array([1.0]), rng) for _ in range(100))
    with pytest.raises(ValueError):
        l2sm.reception_draw(np.array([1.5]), rng)


def test_reception_binomial_concentration():
    rng = np.random.default_rng(42)
    n = 100_000
    bler = 0.25
    received = l2sm.reception_draw(np.full(n, bler), rng)
    rate = received.mean()
    sigma = math.sqrt(bler * (1 - bler) / n)
    assert abs(rate - (1 - bler)) <= 3 * sigma


def test_reception_uniformity_chi_square():
    # the uniform variates behind the draws must be uniform
    rng = np.random.default_rng(7)
    x = rng.random(100_000)
    counts, _ = np.histogram(x, bins=20, range=(0.0, 1.0))
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_active_table_uses_file(tmp_path):
    table = l2sm.default_bler_table()
    path = tmp_path / "curves.csv"
    with open(path, "w") as f:
        l2sm.dump_table(table, f)

    class Cfg:
        bler_table_path = str(path)

    loaded = l2sm.active_table(Cfg())
    assert loaded.mcs_indices() == list(range(1, 16))
