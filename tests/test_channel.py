import math

import numpy as np
import pytest

from nrv2xsim import channel


def test_pathloss_near_branch_value():
    # below the breakpoint (~19.7 m at 1.5 m antennas) the 22.7 log10 slope rules
    expected = 22.7 * math.log10(15.0) + 41.0 + 20 * math.log10(1.18)
    assert channel.pathloss_db(np.array([15.0])) == pytest.approx(expected, abs=1e-9)


def test_pathloss_far_branch_value():
    # 40 log10(d) + 9.45 - 2 * 17.3 log10(0.5) + 2.7 log10(1.18) at 100 m
    expected = (
        40 * 2 + 9.45 - 2 * 17.3 * math.log10(0.5) + 2.7 * math.log10(1.18)
    )
    assert channel.pathloss_db(np.array([100.0])) == pytest.approx(expected, abs=1e-9)
    assert channel.pathloss_db(np.array([100.0])) == pytest.approx(100.06, abs=0.01)


def test_pathloss_clamps_below_minimum():
    assert channel.pathloss_db(np.array([3.0])) == channel.pathloss_db(np.array([10.0]))
    assert channel.pathloss_db(np.array([0.0])) == channel.pathloss_db(np.array([10.0]))


def test_pathloss_monotone():
    d = np.linspace(10.0, 5000.0, 2000)
    pl = channel.pathloss_db(d)
    assert np.all(np.diff(pl) > 0)


def test_breakpoint_continuity():
    d_bp = channel.breakpoint_distance_m(1.5, 1.5, 5.9)
    gap = abs(
        channel.pathloss_db(np.array([d_bp * (1 - 1e-9)]))
        - channel.pathloss_db(np.array([d_bp * (1 + 1e-9)]))
    )
    assert gap < 0.5


def test_pathloss_rejects_low_antennas():
    with pytest.raises(ValueError, match="effective antenna height"):
        channel.pathloss_db(np.array([100.0]), tx_height_m=1.0)


def test_shadowing_zero_sigma_is_exact():
    rng = np.random.default_rng(0)
    assert channel.shadowing_db(rng, 0.0) == 0.0
    assert np.all(channel.shadowing_db(rng, 0.0, size=100) == 0.0)


def test_shadowing_moments():
    rng = np.random.default_rng(1234)
    draws = channel.shadowing_db(rng, 3.0, size=100_000)
    assert abs(np.mean(draws)) < 0.05
    assert 2.95 < np.std(draws) < 3.05


def test_shadowing_rejects_negative_sigma():
    with pytest.raises(ValueError):
        channel.shadowing_db(np.random.default_rng(0), -1.0)


def test_rx_power_link_budget():
    assert channel.rx_power_dbm(24, 0, 3, 87.84, 0) == pytest.approx(-60.84)
    assert channel.rx_power_dbm(24, 0, 3, 0, 0) == 27
    base = channel.rx_power_dbm(24, 0, 3, 90, 0)
    assert channel.rx_power_dbm(24, 0, 3, 90, 3) == base - 3


def test_noise_power():
    expected = -174 + 10 * math.log10(5 * 12 * 15000) + 9
    assert channel.noise_power_dbm(-174, 5, 15000, 9) == pytest.approx(expected)
    assert channel.noise_power_dbm(-174, 5, 15000, 9) == pytest.approx(-105.46, abs=0.01)
    # density identity: 1 Hz equivalent, no noise figure
    assert channel.noise_power_dbm(-174, 1, 1 / 12, 0) == pytest.approx(-174)
    # doubling the subcarrier spacing adds 3.01 dB
    narrow = channel.noise_power_dbm(-174, 5, 15000, 9)
    wide = channel.noise_power_dbm(-174, 5, 30000, 9)
    assert wide - narrow == pytest.approx(10 * math.log10(2), abs=1e-9)


def test_noise_independent_of_tx_side():
    # only bandwidth terms and the figure matter
    assert channel.noise_power_dbm(-174, 5, 15000, 9) == channel.noise_power_dbm(
        -174, 5, 15000, 9
    )
    with pytest.raises(ValueError):
        channel.noise_power_dbm(-174, 0, 15000, 9)
