import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nrv2xsim import l2sm
from nrv2xsim.config import SimConfig, config_fingerprint


def test_default_table_covers_all_mcs():
    table = l2sm.default_bler_table()
    assert sorted(table.curves) == list(range(1, 16))
    for mcs in table.curves:
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
    with pytest.raises(ValueError, match="^missing MCS: 2, 3, 4, 5, 6, 7, 8, 9, 10"):
        l2sm.load_table(io.StringIO("\n".join(rows)))
    # a table built in code holds exactly MCS 1..15 too: bler_lookup has no
    # curve for any other index
    curve = (np.array([0.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="^missing MCS: 15$"):
        l2sm.BlerTable(curves={m: curve for m in range(1, 15)})
    with pytest.raises(ValueError, match="^missing MCS 1..15 \\(empty table\\)$"):
        l2sm.BlerTable(curves={})
    with pytest.raises(ValueError, match="^mcs out of range 1..15: 16$"):
        l2sm.BlerTable(curves={m: curve for m in range(1, 17)})


def test_load_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        l2sm.load_table(io.StringIO("snr,bler\n"))


def _table_csv(rows):
    """A table document with the same rows for every MCS."""
    lines = ["mcs,snr_db,bler"]
    for mcs in range(1, 16):
        lines += [f"{mcs},{row}" for row in rows]
    return "\n".join(lines)


@pytest.mark.parametrize("rows", [
    ["-5,1.0", "0,nan", "inf,0.0"],
    ["-5,1.0", "0,0.5", "inf,0.0"],
    ["-inf,1.0", "0,0.5"],
    ["-5,1.0", "0,nan"],
    ["nan,1.0", "0,0.5"],
])
def test_load_rejects_non_finite(rows):
    with pytest.raises(ValueError, match="must be finite"):
        l2sm.load_table(io.StringIO(_table_csv(rows)))


def test_load_rejects_infinite_slope():
    # two grid points one subnormal apart: the BLER step has no finite slope
    with pytest.raises(ValueError, match="slopes must be finite"):
        l2sm.load_table(io.StringIO(_table_csv(["0.0,1.0", "5e-324,0.0"])))


def test_negative_zero_bler_reads_as_zero():
    table = l2sm.load_table(io.StringIO(_table_csv(["0.0,1.0", "1.0,-0.0", "2.0,-0.0"])))
    snr, bler = table.curves[4]
    assert not np.signbit(bler).any()
    x = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    _assert_interp_bytes(table, 4, x, 0.0)


def test_lookup_rejects_nan():
    table = l2sm.default_bler_table()
    with pytest.raises(ValueError, match="NaN"):
        l2sm.bler_lookup(table, 5, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="NaN"):
        l2sm.bler_lookup(table, 5, np.array([1.0]), np.nan)


def _draw(bler, rng):
    """reception_draw of bler against fresh uniforms of its shape."""
    return l2sm.reception_draw(bler, rng.random(bler.shape))


def test_reception_rejects_nan():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _draw(np.array([0.5, np.nan]), rng)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        _draw(np.array([np.nan]), rng)
    assert _draw(np.empty(0), rng).shape == (0,)


def _queries(snr, delta, rng):
    """Random values, every grid point and its float neighbours on both
    sides (also minus the shift, so the sum lands on them), ends and beyond."""
    points = np.concatenate((snr, snr - delta))
    return np.concatenate((
        rng.uniform(snr[0] - 10.0, snr[-1] + 10.0, 200),
        points,
        np.nextafter(points, np.inf),
        np.nextafter(points, -np.inf),
        [np.inf, -np.inf, snr[0] - 1.0, snr[-1] + 1.0, -1e300, 1e300],
    ))


def _assert_interp_bytes(table, mcs, x, delta):
    snr, bler = table.curves[mcs]
    got = l2sm.bler_lookup(table, mcs, x, delta)
    assert got.shape == x.shape
    assert got.tobytes() == np.interp(x + delta, snr, bler).tobytes()


_SHIFTS = st.one_of(st.sampled_from([0.0, 3.0, 5.0, 7.0, -0.0]),
                    st.floats(-40.0, 40.0, allow_subnormal=False))


@given(mcs=st.integers(1, 15), delta=_SHIFTS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_lookup_matches_interp_on_builtin_curves(mcs, delta, seed):
    table = l2sm.default_bler_table()
    x = _queries(table.curves[mcs][0], delta, np.random.default_rng(seed))
    _assert_interp_bytes(table, mcs, x, delta)
    _assert_interp_bytes(table, mcs, x[: x.size // 2 * 2].reshape(2, -1), delta)


@pytest.mark.parametrize("x", [
    np.array(2.5), np.float64(-7.25), np.empty(0), np.empty((2, 0)),
], ids=["0-d", "scalar", "empty", "empty_2d"])
def test_lookup_keeps_the_input_shape(x):
    table = l2sm.default_bler_table()
    for mcs in (1, 8, 15):
        _assert_interp_bytes(table, mcs, x, 5.0)


@st.composite
def _curves(draw):
    """(snr, bler, clustered): a strictly increasing finite grid, uniform,
    random or with a tight cluster, and a non-increasing BLER in [0, 1]."""
    kind = draw(st.sampled_from(["uniform", "random", "clustered"]))
    if kind == "uniform":
        n = draw(st.integers(2, 80))
        snr = draw(st.floats(-50.0, 50.0)) + draw(st.floats(1e-3, 5.0)) * np.arange(n)
    else:
        coarse = draw(st.lists(st.floats(-20.0, 20.0).filter(lambda v: v == 0 or abs(v) > 1e-3),
                               min_size=2, max_size=60, unique=True))
        snr = np.array([-20.0, 20.0, *coarse])
        if kind == "clustered":
            # >= 3 points within 1e-6 dB span at most two buckets, so one
            # bucket holds two or more
            # away from 0, where float neighbours are subnormal and the
            # slopes overflow
            start = draw(st.floats(-19.0, 19.0).filter(lambda v: abs(v) > 1e-3))
            step = draw(st.sampled_from([None, 1e-9, 1e-7]))
            cluster = [start]
            for _ in range(draw(st.integers(2, 12))):
                cluster.append(np.nextafter(cluster[-1], np.inf) if step is None
                               else cluster[-1] + step)
            snr = np.concatenate((snr, cluster))
        snr = np.unique(snr)
    bler = np.sort(np.array(draw(st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
        min_size=snr.size, max_size=snr.size))))[::-1]
    return snr, bler, kind == "clustered"


@given(curve=_curves(), delta=_SHIFTS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_lookup_matches_interp_on_loaded_tables(curve, delta, seed):
    snr, bler, clustered = curve
    buf = io.StringIO()
    l2sm.dump_table(l2sm.BlerTable(curves={m: (snr, bler) for m in range(1, 16)}), buf)
    table = l2sm.load_table(io.StringIO(buf.getvalue()))
    if clustered:
        assert table._index[1].k >= 2
    x = _queries(table.curves[1][0], delta, np.random.default_rng(seed))
    _assert_interp_bytes(table, 1, x, delta)


def test_lookup_index_built_once_per_table(monkeypatch):
    built = []

    class Counting(l2sm._CurveIndex):
        def __init__(self, snr, bler):
            built.append(snr.size)
            super().__init__(snr, bler)

    monkeypatch.setattr(l2sm, "_CurveIndex", Counting)
    buf = io.StringIO()
    l2sm.dump_table(l2sm.default_bler_table(), buf)
    table = l2sm.load_table(io.StringIO(buf.getvalue()))
    assert len(built) == 15
    x = np.linspace(-20.0, 40.0, 1001)
    for _ in range(3):
        for mcs in table.curves:
            l2sm.bler_lookup(table, mcs, x, 3.0)
    assert len(built) == 15


def test_lookup_constant_extrapolation():
    table = l2sm.default_bler_table()
    snr, bler = table.curves[5]
    assert l2sm.bler_lookup(table, 5, np.array([snr[0] - 100.0])) == bler[0]
    assert l2sm.bler_lookup(table, 5, np.array([snr[-1] + 100.0])) == bler[-1]
    assert bler[0] > 0.99
    assert bler[-1] < 1e-6


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
    assert all(_draw(np.array([0.0]), rng) for _ in range(100))
    assert not any(_draw(np.array([1.0]), rng) for _ in range(100))
    with pytest.raises(ValueError):
        _draw(np.array([1.5]), rng)


def test_reception_binomial_concentration():
    rng = np.random.default_rng(42)
    n = 100_000
    bler = 0.25
    received = _draw(np.full(n, bler), rng)
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
    assert sorted(loaded.curves) == list(range(1, 16))


def _three_point_table(mid_bler):
    rows = ["mcs,snr_db,bler"]
    for mcs in range(1, 16):
        rows += [f"{mcs},0.0,1.0", f"{mcs},1.0,{mid_bler}", f"{mcs},2.0,0.0"]
    return "\n".join(rows) + "\n"


def test_active_table_follows_a_rewritten_file(tmp_path):
    # the table loaded is the one the fingerprint names, after each rewrite
    # at one path too
    path = tmp_path / "curves.csv"
    cfg = SimConfig(bler_table_path=str(path))
    tables = {}
    for mid in (0.5, 0.25, 0.5):
        path.write_text(_three_point_table(mid))
        table = l2sm.active_table(cfg)
        assert table.curves[1][1].tolist() == [1.0, mid, 0.0]
        tables.setdefault(config_fingerprint(cfg), table)
        assert tables[config_fingerprint(cfg)] is table
    assert len(tables) == 2
