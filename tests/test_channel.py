import math

import numpy as np
import pytest

from nrv2xsim import channel
from nrv2xsim.config import SimConfig

# the antenna heights, carrier and clamp of the default config: 1.5 m,
# 5.9 GHz and 10 m
DEFAULT = SimConfig()
DEFAULT_LINK = {"tx_height_m": DEFAULT.ue_height_m, "rx_height_m": DEFAULT.ue_height_m,
                "fc_ghz": DEFAULT.carrier_freq_ghz,
                "min_distance_m": DEFAULT.min_pathloss_distance_m}


def _pathloss(distance_m, **params):
    """pathloss_db under the default link, with params overriding it."""
    return channel.pathloss_db(distance_m, **{**DEFAULT_LINK, **params})


def test_pathloss_near_branch_value():
    # below the breakpoint (~19.7 m at 1.5 m antennas) the 22.7 log10 slope rules
    expected = 22.7 * math.log10(15.0) + 41.0 + 20 * math.log10(1.18)
    assert _pathloss(np.array([15.0])) == pytest.approx(expected, abs=1e-9)


def test_pathloss_far_branch_value():
    # 40 log10(d) + 9.45 - 2 * 17.3 log10(0.5) + 2.7 log10(1.18) at 100 m
    expected = (
        40 * 2 + 9.45 - 2 * 17.3 * math.log10(0.5) + 2.7 * math.log10(1.18)
    )
    assert _pathloss(np.array([100.0])) == pytest.approx(expected, abs=1e-9)
    assert _pathloss(np.array([100.0])) == pytest.approx(100.06, abs=0.01)


def test_pathloss_clamps_below_minimum():
    assert _pathloss(np.array([3.0])) == _pathloss(np.array([10.0]))
    assert _pathloss(np.array([0.0])) == _pathloss(np.array([10.0]))


def test_pathloss_monotone():
    d = np.linspace(10.0, 5000.0, 2000)
    pl = _pathloss(d)
    assert np.all(np.diff(pl) > 0)


def test_breakpoint_continuity():
    d_bp = channel.breakpoint_distance_m(DEFAULT.ue_height_m, DEFAULT.ue_height_m,
                                         DEFAULT.carrier_freq_ghz)
    gap = abs(
        _pathloss(np.array([d_bp * (1 - 1e-9)]))
        - _pathloss(np.array([d_bp * (1 + 1e-9)]))
    )
    assert gap < 0.5


def _pathloss_both_branches(distance_m, tx_height_m, rx_height_m, fc_ghz, min_distance_m):
    """Both WINNER B1 branches at every distance, selected by np.where."""
    h_tx = tx_height_m - channel.EFFECTIVE_HEIGHT_OFFSET_M
    h_rx = rx_height_m - channel.EFFECTIVE_HEIGHT_OFFSET_M
    d = np.maximum(np.asarray(distance_m, dtype=float), min_distance_m)
    d_bp = channel.breakpoint_distance_m(tx_height_m, rx_height_m, fc_ghz)
    freq_term = np.log10(fc_ghz / 5.0)
    log_d = np.log10(d)
    near = 22.7 * log_d + 41.0 + 20.0 * freq_term
    far = (40.0 * log_d + 9.45
           - 17.3 * np.log10(h_tx) - 17.3 * np.log10(h_rx)
           + 2.7 * freq_term)
    return np.where(d < d_bp, near, far)


@pytest.mark.parametrize("params", [
    {},
    {"tx_height_m": 2.5, "rx_height_m": 1.8},
    {"fc_ghz": 3.5},
    {"tx_height_m": 1.6, "rx_height_m": 3.0, "fc_ghz": 28.0, "min_distance_m": 1.0},
], ids=["default", "heights", "frequency", "all"])
def test_pathloss_bytes_match_both_branch_select(params):
    # the near branch evaluated only below the breakpoint gives the bytes of
    # both branches everywhere and np.where, in a fresh array, in a separate
    # out and in place over the distances
    params = {**DEFAULT_LINK, **params}
    d_bp = channel.breakpoint_distance_m(params["tx_height_m"], params["rx_height_m"],
                                         params["fc_ghz"])
    clamp = params["min_distance_m"]
    assert clamp < d_bp  # both branches are reached
    special = [0.0, clamp / 2, np.nextafter(clamp, 0.0), clamp, np.nextafter(clamp, np.inf),
               np.nextafter(d_bp, 0.0), d_bp, np.nextafter(d_bp, np.inf), 500.0, 5000.0]
    rng = np.random.default_rng(11)
    for d in (np.array(special), rng.uniform(0.0, 3.0 * d_bp, 4096),
              rng.uniform(0.0, 2000.0, 4096), np.empty(0)):
        expected = _pathloss_both_branches(d, **params)
        assert channel.pathloss_db(d, **params).tobytes() == expected.tobytes()
        out = np.full(d.size, np.nan)
        assert channel.pathloss_db(d, **params, out=out) is out
        assert out.tobytes() == expected.tobytes()
        aliased = d.copy()
        assert channel.pathloss_db(aliased, **params, out=aliased) is aliased
        assert aliased.tobytes() == expected.tobytes()
    # a scalar and a 2-D array, as the whole-array select takes them
    for d in (float(d_bp) / 2, np.array(special).reshape(2, 5)):
        expected = _pathloss_both_branches(d, **params)
        got = channel.pathloss_db(d, **params)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_shadowing_zero_sigma_is_exact():
    rng = np.random.default_rng(0)
    assert channel.shadowing_db(rng, 0.0) == 0.0
    assert np.all(channel.shadowing_db(rng, 0.0, size=100) == 0.0)


def test_shadowing_moments():
    rng = np.random.default_rng(1234)
    draws = channel.shadowing_db(rng, 3.0, size=100_000)
    assert abs(np.mean(draws)) < 0.05
    assert 2.95 < np.std(draws) < 3.05


@pytest.mark.parametrize("sigma_db", [0.5, 3.0, 8.0])
def test_shadowing_is_numpy_normal(sigma_db):
    # numpy draws normal(loc, scale) as loc + scale * standard_normal, so
    # scaling standard normals in place gives its bytes and its end state
    rng, expected_rng = np.random.default_rng(9), np.random.default_rng(9)
    for size in (1000, 1, 0, None):
        got = channel.shadowing_db(rng, sigma_db, size)
        expected = expected_rng.normal(0.0, sigma_db, size)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state


def test_rx_power_link_budget():
    # 24 dBm transmit plus 0 + 3 dB of gains over 87.84 dB and over nothing
    out = np.empty(2)
    power = channel.rx_power_mw(24 + 0 + 3, np.array([87.84, 0.0]), np.zeros(2), out)
    assert power is out
    assert 10.0 * np.log10(power) == pytest.approx([-60.84, 27.0])
    # shadowing subtracts in dB
    base = channel.rx_power_mw(27, np.array([90.0]), np.zeros(1), np.empty(1))
    shadowed = channel.rx_power_mw(27, np.array([90.0]), np.array([3.0]), np.empty(1))
    assert 10.0 * np.log10(shadowed) == pytest.approx(10.0 * np.log10(base) - 3.0)


def test_rx_power_bytes_in_place():
    # the whole-array budget, exp((tx + tx_gain + rx_gain - pl - shadow) * ln(10) / 10),
    # whether out is the pathloss itself or a separate array
    rng = np.random.default_rng(5)
    pl = rng.uniform(40.0, 140.0, 1000)
    shadow = rng.normal(0.0, 3.0, pl.size)
    expected = np.exp((23.0 + 2.0 + 3.0 - pl - shadow) * (math.log(10.0) / 10.0))
    separate = channel.rx_power_mw(23.0 + 2.0 + 3.0, pl, shadow, np.empty(pl.size))
    assert separate.tobytes() == expected.tobytes()
    aliased = pl.copy()
    assert channel.rx_power_mw(28.0, aliased, shadow, aliased) is aliased
    assert aliased.tobytes() == expected.tobytes()


def test_rx_power_within_1e13_of_pow():
    # exp(x * ln(10) / 10) against 10 ** (x / 10) over every budget a link
    # can have, from far below the noise floor to above the transmit power:
    # the difference is far below any BLER curve's resolution
    rng = np.random.default_rng(11)
    x_dbm = np.concatenate([np.linspace(-200.0, 50.0, 250_001),
                            rng.uniform(-200.0, 50.0, 250_000)])
    power = channel.rx_power_mw(0.0, -x_dbm, np.zeros(x_dbm.size), np.empty(x_dbm.size))
    np.testing.assert_allclose(power, 10.0 ** (x_dbm / 10.0), rtol=1e-13, atol=0.0)


def test_squared_sum_distance_within_an_ulp_of_hypot():
    # the distance formula of the link search and the interferer pathloss,
    # over offsets up to 10 km along the highway and 48 m across it (twice
    # the default six lanes' 24 m)
    rng = np.random.default_rng(12)
    dx = np.concatenate([rng.uniform(-10_000.0, 10_000.0, 200_000),
                         rng.uniform(-48.0, 48.0, 200_000), [0.0, 10_000.0, 0.0]])
    dy = np.concatenate([rng.uniform(-48.0, 48.0, 400_000), [0.0, 48.0, -48.0]])
    exact = np.hypot(dx, dy)
    assert np.all(np.abs(np.sqrt(dx * dx + dy * dy) - exact) <= np.spacing(exact))


def test_noise_power():
    expected = -174 + 10 * math.log10(5 * 12 * 15000) + 9
    assert channel.noise_power_dbm(-174, 5 * 12 * 15000, 9) == pytest.approx(expected)
    assert channel.noise_power_dbm(-174, 5 * 12 * 15000, 9) == pytest.approx(-105.46, abs=0.01)
    # density identity: 1 Hz, no noise figure
    assert channel.noise_power_dbm(-174, 1.0, 0) == pytest.approx(-174)
    # doubling the bandwidth adds 3.01 dB
    narrow = channel.noise_power_dbm(-174, 5 * 12 * 15000, 9)
    wide = channel.noise_power_dbm(-174, 5 * 12 * 30000, 9)
    assert wide - narrow == pytest.approx(10 * math.log10(2), abs=1e-9)
