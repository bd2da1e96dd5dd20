import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrv2xsim import phy
from nrv2xsim.config import SimConfig


EXPECTED_PRB = {
    (5, 0): 25, (10, 0): 52, (15, 0): 79, (20, 0): 106,
    (5, 1): 11, (10, 1): 24, (15, 1): 38, (20, 1): 51,
    (10, 2): 11, (15, 2): 18, (20, 2): 24,
}


def test_prb_table_exact():
    for (bw, mu), expected in EXPECTED_PRB.items():
        assert phy.prb_count(bw, mu) == expected
    assert phy.prb_count(10.0, 0) == 52  # float bandwidths hit the same entry


def test_prb_undefined_pair():
    with pytest.raises(ValueError, match="undefined PRB entry"):
        phy.prb_count(5, 2)


def test_scs_formula():
    assert [phy.scs_khz(mu) for mu in range(3)] == [15, 30, 60]
    # only the numerologies of the PRB table, which SimConfig allows
    for mu in (3, 4, 5, -1):
        with pytest.raises(ValueError, match=re.escape(
                f"mu out of FR1 sidelink range: {mu} (allowed: 0, 1, 2)")):
            phy.scs_khz(mu)


def test_numerology_slots():
    assert phy.slots_per_second(0) == 1000
    assert phy.slots_per_second(2) == 4000
    assert phy.USABLE_SYMBOLS_PER_SLOT == 9


def test_required_se():
    assert phy.required_se(300, 516, 10, 10e6) == pytest.approx(1.2384, abs=1e-12)
    assert phy.required_se(300, 0, 10, 10e6) == 0.0
    assert phy.required_se(300, 516, 20, 10e6) == pytest.approx(
        2 * phy.required_se(300, 516, 10, 10e6)
    )


def test_cqi_table_strictly_increasing():
    effs = list(phy.CQI_TABLE)
    assert effs == sorted(effs)
    assert len(set(effs)) == 15


def test_select_cqi():
    assert phy.select_cqi(0.0) == 1
    assert phy.select_cqi(100.0) == 15
    # oracle: linear scan over the embedded table
    se = 1.2384
    assert phy.select_cqi(se) == next(
        i for i, eff in enumerate(phy.CQI_TABLE, start=1) if eff >= se
    ) == 4
    # an efficiency is covered by its own index, and the next float above
    # it needs the next index, capped at the top one
    for index, eff in enumerate(phy.CQI_TABLE, start=1):
        assert phy.select_cqi(eff) == index
        assert phy.select_cqi(np.nextafter(eff, np.inf)) == min(index + 1, 15)


def test_nprb_pssch():
    assert phy.nprb_pssch(300, 5.5547) == 5
    assert phy.nprb_pssch(300, 7.4063) == 4
    # packet sized to exactly one PRB
    assert phy.nprb_pssch(12 * 9 * 8 // 8, 8.0) == 1


@given(st.floats(0.5, 8.0), st.floats(0.5, 8.0))
def test_nprb_pssch_non_increasing_in_efficiency(a, b):
    lo, hi = sorted((a, b))
    assert phy.nprb_pssch(300, hi) <= phy.nprb_pssch(300, lo)


def test_ue_per_slot():
    assert phy.ue_per_slot(52, 7) == 7
    assert phy.ue_per_slot(24, 7) == 3
    assert phy.ue_per_slot(11, 12) == 0  # message does not fit anywhere


def test_ue_supported():
    assert phy.ue_supported(7, 1000, 10, 1) == 700
    assert phy.ue_supported(3, 2000, 10, 1) == 600
    assert phy.ue_supported(3, 4000, 10, 2) == 600


def test_capacity_strictly_decreasing_in_mu():
    supported = [
        phy.ue_supported(
            phy.ue_per_slot(phy.prb_count(10, mu), 7),
            phy.slots_per_second(mu),
            10,
            1,
        )
        for mu in (0, 1, 2)
    ]
    assert supported == [700, 600, 400]
    assert supported[0] > supported[1] > supported[2]


def test_retx_halving_never_raises_capacity():
    for per_slot in (0, 1, 3, 7):
        for sps in (1000, 2000, 4000):
            once = phy.ue_supported(per_slot, sps, 10, 1)
            twice = phy.ue_supported(per_slot, sps, 10, 2)
            assert twice <= once
            if once == 0:
                assert twice == 0


def test_prr_max():
    assert phy.prr_max(700, 1038) == 700 / 1038
    assert phy.prr_max(700, 516) == 1.0
    assert phy.prr_max(0, 516) == 0.0
    # no cell has a vehicle: nobody is dropped
    assert phy.prr_max(700, 0) == 1.0
    assert phy.prr_max(0, 0, 0) == 1.0


@given(st.integers(0, 5000), st.integers(1, 5000))
def test_prr_max_bounded(supported, ue_gnb):
    value = phy.prr_max(supported, ue_gnb)
    assert 0.0 <= value <= 1.0


def test_build_resource_plan_defaults():
    plan = phy.build_resource_plan(SimConfig())
    assert plan.n_prb == 52
    assert plan.nprb_pssch == 5
    assert plan.nprb_total == 7
    assert plan.ue_per_slot == 7
    assert plan.ue_supported == 700


def test_build_resource_plan_retx_halves():
    plan = phy.build_resource_plan(SimConfig(retx_scheme="equal"))
    assert plan.ue_supported == 350
    plan = phy.build_resource_plan(
        SimConfig(mu=2, bandwidth_mhz=20.0, retx_scheme="nonequal:2")
    )
    assert plan.ue_supported == 600


def test_build_resource_plan_phase_mcs():
    # the base demand divided by each phase's share, equal included
    cfg = SimConfig(ivd_m=10.0)
    se = phy.required_se(300, 1038, 10.0, 10e6)
    assert phy.build_resource_plan(cfg).phase_mcs == (phy.select_cqi(se),)
    equal = phy.build_resource_plan(replace(cfg, retx_scheme="equal")).phase_mcs
    assert equal == (phy.select_cqi(2 * se),) * 2
    nonequal = phy.build_resource_plan(replace(cfg, retx_scheme="nonequal:3")).phase_mcs
    assert nonequal == tuple(phy.select_cqi(se / s) for s in (0.8, 0.2))
    assert nonequal[0] < equal[0] < nonequal[1]


def test_build_resource_plan_phase_mcs_follows_the_largest_cell():
    # one site serves an 866 m highway, 516 vehicles: the MCS carries that
    # load, not the 1038 of the 1732 m segment an inter-site distance spans
    plan = phy.build_resource_plan(SimConfig(highway_length_m=866.0, num_gnb=1, ivd_m=10.0))
    assert plan.cell_population == (516,)
    assert phy.select_cqi(phy.required_se(300, 1038, 10.0, 10e6)) == 7
    assert phy.select_cqi(phy.required_se(300, 516, 10.0, 10e6)) == 4
    assert plan.phase_mcs == (4,)


@pytest.mark.parametrize("mu", [0, 1, 2])
@pytest.mark.parametrize("retx, combining, phases", [
    ("none", False, 1),
    ("equal", True, 2),
    ("nonequal:2", False, 2),
    ("nonequal:4", False, 2),
], ids=["none", "equal_linear", "nonequal_linear", "nonequal4"])
def test_build_resource_plan_decision_inputs(mu, retx, combining, phases):
    cfg = SimConfig(mu=mu, bandwidth_mhz=20.0, retx_scheme=retx, l2sm_delta_db=5.0)
    plan = phy.build_resource_plan(cfg)
    # thermal noise over the data subcarriers of one message at 15*2^mu kHz
    bandwidth_hz = plan.nprb_pssch * 12 * 15e3 * 2**mu
    noise_dbm = cfg.noise_density_dbm_hz + 10 * math.log10(bandwidth_hz) + cfg.noise_figure_db
    assert plan.noise_mw == pytest.approx(10 ** (noise_dbm / 10), rel=1e-12)
    # only the equal scheme combines its phases; the shift needs two phases
    assert plan.combining is combining
    assert len(plan.phase_mcs) == phases
    assert plan.shift_db == (5.0 if phases == 2 else 0.0)


def test_build_resource_plan_ceiling():
    plan = phy.build_resource_plan(SimConfig())
    assert plan.cell_population == (516,) * 3
    assert plan.prr_max == 1.0
    plan = phy.build_resource_plan(SimConfig(ivd_m=10.0))
    assert plan.cell_population == (1038,) * 3
    assert plan.prr_max == 700 / 1038


def test_build_resource_plan_empty_cell_ceiling():
    # vehicles wider apart than the sites leave the spacing formula at zero
    plan = phy.build_resource_plan(SimConfig(ivd_m=2000.0))
    assert plan.cell_population == (0,) * 3
    assert plan.prr_max == 1.0
