import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from nrv2xsim import channel, engine, l2sm, phy, scenario
from nrv2xsim.config import SimConfig

# single-cell highway: no cross-cell interference, fast to simulate
NOISE_LIMITED = SimConfig(
    highway_length_m=1732.0, num_gnb=1, mu=2, bandwidth_mhz=20.0, ivd_m=40.0
)


def _setup(cfg, seed=0):
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    plan = phy.build_resource_plan(cfg)
    sched = engine.schedule_slots(dep, plan, engine.RetxScheme.from_config(cfg), rng)
    return dep, plan, sched, rng


def test_retx_scheme_parse_and_shares():
    assert engine.RetxScheme.from_config(SimConfig()).phase_shares == (1.0,)
    eq = engine.RetxScheme.from_config(
        SimConfig(retx_scheme="equal", l2sm_delta_db=3.0)
    )
    assert eq.phase_shares == (0.5, 0.5)
    assert eq.delta_db == 3.0
    ne = engine.RetxScheme.from_config(SimConfig(retx_scheme="nonequal:2"))
    assert ne.phase_shares == (0.7, 0.3)
    ne4 = engine.RetxScheme.from_config(SimConfig(retx_scheme="nonequal:4"))
    assert ne4.phase_shares[1] == pytest.approx(0.1)
    # no-retx ignores the configured sensitivity shift
    none = engine.RetxScheme.from_config(SimConfig(l2sm_delta_db=7.0))
    assert none.delta_db == 0.0


def test_schedule_orthogonal_within_cell():
    cfg = SimConfig(ivd_m=40.0)
    dep, plan, sched, _ = _setup(cfg, seed=1)
    for p in range(sched.resource.shape[0]):
        for c in range(len(dep.sites)):
            members = np.flatnonzero((dep.serving == c) & sched.assigned)
            grants = sched.resource[p, members]
            assert np.all(grants >= 0)
            assert len(set(grants.tolist())) == grants.size  # no reuse
            # occupant array inverts the assignment
            assert np.all(sched.occupant[p, c, grants] == members)


def test_schedule_drops_beyond_capacity():
    # one cell of 1038 vehicles against a 700-transmitter budget
    cfg = SimConfig(highway_length_m=1732.0, num_gnb=1, ivd_m=10.0)
    dep, plan, sched, _ = _setup(cfg)
    assert dep.ue_h == 1038
    assert plan.ue_supported == 700
    assert sched.dropped.size == 338
    assert int(sched.assigned.sum()) == 700
    assert not sched.assigned[sched.dropped].any()


def test_schedule_under_capacity_drops_nobody():
    cfg = SimConfig(ivd_m=20.0)  # 516-ish per cell vs 700 supported
    dep, plan, sched, _ = _setup(cfg)
    assert sched.dropped.size == 0
    assert int(sched.assigned.sum()) == dep.ue_h


def test_schedule_equal_retx_grants_two_resources():
    cfg = replace(NOISE_LIMITED, retx_scheme="equal")
    dep, plan, sched, _ = _setup(cfg)
    assert sched.resource.shape[0] == 2
    assigned = np.flatnonzero(sched.assigned)
    assert np.all(sched.resource[0, assigned] >= 0)
    assert np.all(sched.resource[1, assigned] >= 0)
    # every grant is a (slot, chunk) pair inside the grid
    assert np.all(sched.resource[:, assigned] < sched.occupant.shape[2])


def test_schedule_undersized_grid_supports_nobody():
    # 5 MHz at mu=1 gives 11 PRBs; a 12-PRB message fits nowhere
    cfg = SimConfig(bandwidth_mhz=5.0, mu=1, max_mcs_efficiency=0.25, ivd_m=500.0)
    plan = phy.build_resource_plan(cfg)
    assert plan.nprb_total > plan.n_prb
    assert plan.ue_per_slot == 0
    dep, plan, sched, _ = _setup(cfg)
    assert int(sched.assigned.sum()) == 0
    assert sched.dropped.size == dep.ue_h


def test_interferer_count_bounded_by_other_cells():
    cfg = SimConfig(ivd_m=40.0)
    dep, plan, sched, _ = _setup(cfg, seed=2)
    num_cells = len(dep.sites)
    for vid in np.flatnonzero(sched.assigned)[:200]:
        grant = sched.resource[0, vid]
        others = [
            c
            for c in range(num_cells)
            if c != dep.serving[vid] and sched.occupant[0, c, grant] >= 0
        ]
        assert len(others) <= num_cells - 1


def _evaluate(cfg, seed=0):
    """Every granted transmitter of one drop through the engine's link stage."""
    dep, plan, sched, rng = _setup(cfg, seed)
    tx_ids = np.flatnonzero(sched.assigned)
    ev = engine._evaluate_links(
        cfg, dep, plan, sched, l2sm.default_bler_table(), tx_ids, rng
    )
    return dep, plan, ev


def test_sinr_db():
    # -60 dBm signal = 1e-6 mW, -100 dBm noise = 1e-10 mW
    assert engine.sinr_db(1e-6, 0.0, 1e-10) == pytest.approx(40.0)
    assert engine.sinr_db(1e-6, 1e-6, 1e-20) == pytest.approx(0.0, abs=1e-6)
    expected = 10 * math.log10(1e-6 / (2e-7 + 1e-10))
    assert engine.sinr_db(1e-6, 2e-7, 1e-10) == pytest.approx(expected)
    assert engine.sinr_db(1e-6, 2e-7, 1e-10) == pytest.approx(6.99, abs=0.01)
    got = engine.sinr_db(np.array([1e-6, 1e-6]), np.array([0.0, 2e-7]), 1e-10)
    np.testing.assert_allclose(got, [40.0, expected])


def test_sinr_strictly_drops_with_extra_interferer():
    base = engine.sinr_db(1e-6, 1e-8, 1e-10)
    assert engine.sinr_db(1e-6, 1e-8 + 10 ** -9.5, 1e-10) < base


def test_evaluate_links_isolated_cell_noise_limited():
    cfg = replace(NOISE_LIMITED, shadowing_sigma_db=0.0)
    dep, plan, ev = _evaluate(cfg)
    links = ev.links
    assert links.tx.size > 0
    # zero interference: SINR must equal signal minus noise exactly
    num = phy.Numerology.from_mu(cfg.mu)
    noise = -174 + 10 * math.log10(plan.nprb_pssch * 12 * num.scs_khz * 1e3) + 9
    d = np.hypot(dep.x_m[links.rx] - dep.x_m[links.tx],
                 dep.y_m[links.rx] - dep.y_m[links.tx])
    pl = channel.pathloss_db(
        d, cfg.ue_height_m, cfg.ue_height_m, cfg.carrier_freq_ghz,
        cfg.min_pathloss_distance_m,
    )
    expected = (cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db - pl) - noise
    np.testing.assert_allclose(ev.sinr_db[0], expected, atol=1e-9)


def test_no_link_has_a_dropped_transmitter():
    # one cell of 1038 vehicles against a 700-transmitter budget
    cfg = SimConfig(highway_length_m=1732.0, num_gnb=1, ivd_m=10.0)
    counts = engine._drop_counts(cfg, 0)
    # _drop_counts draws its deployment and schedule from the same stream
    _, plan, sched, _ = _setup(cfg, seed=0)
    assert sched.dropped.size == 338
    assert counts.tx_ids.size == plan.ue_supported
    assert not np.isin(counts.tx_ids, sched.dropped).any()


def test_equal_retx_combining_math():
    # mean of equal SINRs is the SINR itself; 10 dB and 0 dB combine to 7.40 dB
    lin = 10 * math.log10((10 ** (10 / 10) + 10 ** (0 / 10)) / 2)
    assert lin == pytest.approx(7.40, abs=0.01)
    s = np.array([[5.0], [5.0]])
    combined = 10 * np.log10(np.mean(10 ** (s / 10), axis=0))
    assert combined[0] == pytest.approx(5.0)


def test_equal_retx_outcome_shapes_and_delta():
    cfg = replace(NOISE_LIMITED, retx_scheme="equal", l2sm_delta_db=3.0)
    _, plan, ev = _evaluate(cfg)
    n_links = ev.links.tx.size
    assert ev.sinr_db.shape == (2, n_links)
    assert ev.received.shape == (1, n_links)
    # shift dominance carried through the lookup
    table = l2sm.default_bler_table()
    mcs = engine.phase_mcs_indices(cfg, plan.ue_per_gnb)[0]
    x = ev.sinr_db.mean(axis=0)
    with_shift = l2sm.bler_lookup(table, mcs, x, 3.0)
    without = l2sm.bler_lookup(table, mcs, x, 0.0)
    assert np.all(with_shift <= without)


def test_equal_retx_same_sinr_reproduces_single_bler():
    table = l2sm.default_bler_table()
    for s in (-3.0, 0.0, 4.2):
        combined = 10 * math.log10((10 ** (s / 10) + 10 ** (s / 10)) / 2)
        assert l2sm.bler_lookup(table, 6, combined, 0.0) == pytest.approx(
            l2sm.bler_lookup(table, 6, s, 0.0), abs=1e-12
        )


def test_nonequal_phase_mcs_ordering():
    cfg = replace(NOISE_LIMITED, retx_scheme="nonequal:1")
    mcs = engine.phase_mcs_indices(cfg, 258)
    assert len(mcs) == 2
    assert mcs[1] >= mcs[0]  # the shorter window needs the denser MCS
    assert phy.required_se(300, 258, 10, 20e6) == pytest.approx(0.3096)
    # share 0.6/0.4 scales a 1.0 bit/s/Hz demand to 1.667 and 2.5
    shares = engine.RetxScheme.from_config(cfg).phase_shares
    assert (1.0 / shares[0], 1.0 / shares[1]) == pytest.approx((1.667, 2.5), abs=1e-3)


def test_raising_delta_never_hurts_on_fixed_seed():
    # identical streams: a larger shift can only flip receptions one way
    base = replace(NOISE_LIMITED, retx_scheme="equal", ivd_m=80.0)
    for seed in (1, 2, 3, 4, 5):
        runtimes = [
            engine.execute_run(replace(base, l2sm_delta_db=d), seed).prr_runtime
            for d in (3.0, 5.0, 7.0)
        ]
        assert runtimes[0] <= runtimes[1] <= runtimes[2]


def test_nonequal_outcome_keeps_phase_decisions():
    cfg = replace(NOISE_LIMITED, retx_scheme="nonequal:2", l2sm_delta_db=5.0)
    _, _, ev = _evaluate(cfg)
    n_links = ev.links.tx.size
    assert ev.sinr_db.shape == (2, n_links)
    assert ev.received.shape == (2, n_links)
    assert ev.received[0].any() and ev.received[1].any()


def test_execute_run_deterministic():
    cfg = replace(NOISE_LIMITED, ivd_m=80.0)
    a = engine.execute_run(cfg, 123)
    b = engine.execute_run(cfg, 123)
    assert a == b
    c = engine.execute_run(cfg, 124)
    assert a.prr_effective != c.prr_effective


def test_execute_run_not_overloaded_effective_equals_runtime():
    cfg = SimConfig(ivd_m=100.0)  # 102 per cell, far below 700
    result = engine.execute_run(cfg, 5)
    assert result.prr_max == 1.0
    assert result.prr_effective == result.prr_runtime


def test_execute_run_overloaded_applies_ceiling():
    cfg = SimConfig(ivd_m=10.0)
    result = engine.execute_run(cfg, 5)
    assert result.prr_max == pytest.approx(700 / 1038)
    assert result.prr_effective == pytest.approx(result.prr_max * result.prr_runtime)


NO_RECEIVER = SimConfig(
    highway_length_m=100.0, ivd_m=60.0, lanes_per_direction=1, num_gnb=1,
    comm_range_m=0.0,
)
# 5 MHz at mu=1 gives 11 PRBs; a 12-PRB message fits nowhere, nobody transmits
ZERO_CAPACITY = SimConfig(
    highway_length_m=1732.0, num_gnb=1, bandwidth_mhz=5.0, mu=1,
    max_mcs_efficiency=0.25,
)


@pytest.mark.parametrize("retx", ["none", "equal", "nonequal:2"])
@pytest.mark.parametrize(
    "base", [NO_RECEIVER, ZERO_CAPACITY], ids=["no_receiver", "zero_capacity"]
)
def test_execute_run_no_receiver_sentinel(base, retx):
    result = engine.execute_run(replace(base, retx_scheme=retx), 1)
    assert math.isnan(result.prr_runtime)
    assert result.samples == 0
    phases = (result.prr_phase1, result.prr_phase2)
    if retx.startswith("nonequal"):
        assert all(math.isnan(p) for p in phases)
    else:
        assert phases == (None, None)
    if base is ZERO_CAPACITY:
        assert result.prr_max == 0.0
        assert result.prr_effective == 0.0


def test_nonequal_run_reports_phase_prrs():
    cfg = replace(NOISE_LIMITED, retx_scheme="nonequal:3", l2sm_delta_db=3.0)
    result = engine.execute_run(cfg, 9)
    assert result.prr_phase1 is not None and result.prr_phase2 is not None
    assert result.prr_runtime == pytest.approx(
        (result.prr_phase1 + result.prr_phase2) / 2
    )
    assert result.prr_phase1 >= result.prr_phase2  # long window is easier


def test_execute_run_pools_drops():
    cfg = replace(NOISE_LIMITED, ivd_m=200.0, drops=3)
    pooled = engine.execute_run(cfg, 7)
    singles = [
        engine._drop_counts(cfg, engine._drop_seed(7, i)).tx_ids.size
        for i in range(3)
    ]
    assert pooled.samples == sum(singles)
    assert engine.execute_run(cfg, 7) == pooled


def test_equal_retx_beats_single_tx_when_noise_limited():
    # diversity plus receiver-sensitivity shift must help when capacity allows
    seeds = range(1, 21)
    base = replace(NOISE_LIMITED, ivd_m=80.0)
    single = np.array([engine.execute_run(base, s).prr_runtime for s in seeds])
    equal = np.array([
        engine.execute_run(
            replace(base, retx_scheme="equal", l2sm_delta_db=3.0), s
        ).prr_runtime
        for s in seeds
    ])
    diff = equal - single
    if np.allclose(diff.std(ddof=1), 0.0):
        assert diff.mean() >= 0
    else:
        assert stats.ttest_rel(equal, single, alternative="greater").pvalue < 0.05


def test_run_sample_table_matches_result():
    cfg = replace(NOISE_LIMITED, ivd_m=100.0, drops=2)
    rows = engine.run_sample_table(engine.simulate_drops(cfg, 3))
    result = engine.execute_run(cfg, 3)
    assert len(rows) == result.samples
    assert {row[0] for row in rows} == {0, 1}
    assert all(0 <= n <= m for _, _, _, m, n in rows)
