import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import reference
from nrv2xsim import channel, config, engine, l2sm, phy, scenario
from nrv2xsim.config import SimConfig
from test_reference import SATURATING, assert_matches_reference

# single-cell highway: no cross-cell interference, fast to simulate
NOISE_LIMITED = SimConfig(
    highway_length_m=1732.0, num_gnb=1, mu=2, bandwidth_mhz=20.0, ivd_m=40.0
)


def _results(members, seed):
    """The RunResults of members run together under seed."""
    return [result for result, _ in engine.execute_run([replace(m, seed=seed) for m in members])]


def _run(cfg, seed):
    """The RunResult of cfg run alone under seed."""
    (result,) = _results([cfg], seed)
    return result


def _drop(cfg, plan, seed):
    """The counts of one drop of cfg under plan."""
    (counts,) = engine._drop_counts(engine._pass_config(cfg), [plan], seed)
    return counts


def _setup(cfg, seed=0):
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    plan = phy.build_resource_plan(cfg)
    sched = engine.schedule_slots(dep, engine._cell_orders(dep, rng), plan, rng)
    return dep, plan, sched, rng


def _evaluate_pass(cfg, dep, sched, rng, plans):
    """The links of sched's transmitters and each decision key's successes
    under plans, from one _evaluate_links pass."""
    pass_cfg = engine._pass_config(cfg)
    links = engine._build_links(dep, np.flatnonzero(sched.assigned), pass_cfg)
    return links, engine._evaluate_links(pass_cfg, dep, sched, rng, plans, links)


def test_retx_scheme_parse_and_shares():
    assert phy.phase_shares("none") == (1.0,)
    assert phy.phase_shares("equal") == (0.5, 0.5)
    assert phy.phase_shares("nonequal:2") == (0.7, 0.3)
    assert phy.phase_shares("nonequal:4")[1] == pytest.approx(0.1)
    # one MCS per phase in the plan
    assert len(phy.build_resource_plan(SimConfig()).phase_mcs) == 1
    assert len(phy.build_resource_plan(SimConfig(retx_scheme="equal")).phase_mcs) == 2


def test_no_retx_ignores_sensitivity_shift():
    cfg = replace(NOISE_LIMITED, ivd_m=80.0)
    runtimes = {
        _run(replace(cfg, l2sm_delta_db=d), 4).prr_runtime
        for d in (0.0, 3.0, 7.0)
    }
    assert len(runtimes) == 1
    assert not math.isnan(runtimes.pop())


def test_schedule_orthogonal_within_cell():
    cfg = SimConfig(ivd_m=40.0)
    dep, plan, sched, _ = _setup(cfg, seed=1)
    for p in range(sched.resource.shape[0]):
        for c in range(dep.num_cells):
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
    assert dep.num_vehicles == 1038
    assert plan.ue_supported == 700
    assert sched.dropped.size == 338
    assert int(sched.assigned.sum()) == 700
    assert not sched.assigned[sched.dropped].any()


def test_schedule_under_capacity_drops_nobody():
    cfg = SimConfig(ivd_m=20.0)  # 516-ish per cell vs 700 supported
    dep, plan, sched, _ = _setup(cfg)
    assert sched.dropped.size == 0
    assert int(sched.assigned.sum()) == dep.num_vehicles


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
    assert sched.dropped.size == dep.num_vehicles


@pytest.mark.parametrize("cfg", [
    SimConfig(ivd_m=10.0, retx_scheme="equal"),
    SimConfig(ivd_m=20.0),
    SimConfig(bandwidth_mhz=5.0, mu=1, max_mcs_efficiency=0.25, ivd_m=500.0),
], ids=["overloaded", "under_capacity", "no_grant"])
def test_schedule_assigned_and_dropped_match_kept_prefixes(cfg):
    # read from the grants, they equal their construction from the orders:
    # the bool fill of each cell's kept prefix, and the sorted concatenation
    # of each order's tail past ue_supported
    rng = np.random.default_rng(3)
    dep = scenario.generate_deployment(cfg, rng)
    plan = phy.build_resource_plan(cfg)
    orders = engine._cell_orders(dep, rng)
    sched = engine.schedule_slots(dep, orders, plan, rng)
    assigned = np.zeros(dep.num_vehicles, dtype=bool)
    for order in orders:
        assigned[order[: plan.ue_supported]] = True
    dropped = np.sort(np.concatenate([order[plan.ue_supported :] for order in orders]))
    assert sched.assigned.dtype == assigned.dtype
    assert np.array_equal(sched.assigned, assigned)
    assert sched.dropped.dtype == dropped.dtype
    assert np.array_equal(sched.dropped, dropped)


def test_interferer_count_bounded_by_other_cells():
    cfg = SimConfig(ivd_m=40.0)
    dep, plan, sched, _ = _setup(cfg, seed=2)
    num_cells = dep.num_cells
    for vid in np.flatnonzero(sched.assigned)[:200]:
        grant = sched.resource[0, vid]
        others = [
            c
            for c in range(num_cells)
            if c != dep.serving[vid] and sched.occupant[0, c, grant] >= 0
        ]
        assert len(others) <= num_cells - 1


@settings(max_examples=40, deadline=None)
@given(
    span=st.floats(0.05, 1.0),
    num_gnb=st.integers(1, 4),
    isd_m=st.floats(200.0, 2500.0),
    ivd_m=st.floats(5.0, 100.0),
    lanes_per_direction=st.integers(1, 3),
    mu=st.sampled_from([0, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ceiling_matches_scheduled_cells(span, num_gnb, isd_m, ivd_m,
                                         lanes_per_direction, mu, seed):
    # the ceiling describes the simulated cells: each planned population is
    # within one vehicle per lane of the served count (the random lane phase).
    # The highway is a share of the sites' span, as SimConfig requires
    cfg = SimConfig(highway_length_m=max(span * num_gnb * isd_m, ivd_m), num_gnb=num_gnb,
                    isd_m=isd_m, ivd_m=ivd_m, lanes_per_direction=lanes_per_direction, mu=mu)
    dep, plan, sched, _ = _setup(cfg, seed)
    lanes = 2 * lanes_per_direction
    served = np.bincount(dep.serving, minlength=num_gnb)
    granted = np.bincount(dep.serving[sched.assigned], minlength=num_gnb)
    assert np.array_equal(granted, np.minimum(plan.ue_supported, served))
    population = np.array(plan.cell_population)
    assert np.all(np.abs(population - served) <= lanes)
    # the ceiling lies between its values over the extremes of that band
    low, high = np.maximum(served - lanes, 0), served + lanes
    sup = plan.ue_supported
    lowest = np.minimum(sup, low).sum() / high.sum()
    highest = np.minimum(sup, high).sum() / low.sum() if low.sum() else 1.0
    assert lowest <= plan.prr_max <= min(highest, 1.0)
    if population.sum() == 0:
        assert plan.prr_max == 1.0


def test_ceiling_counts_the_whole_highway():
    # the last site serves the 866 m left of a 4330 m highway: 516 vehicles,
    # every one granted, beside two cells of 1038 that grant 700 each
    plan = phy.build_resource_plan(SimConfig(highway_length_m=4330.0, ivd_m=10.0))
    assert plan.cell_population == (1038, 1038, 516)
    assert plan.prr_max == (700 + 700 + 516) / (1038 + 1038 + 516)
    # a highway equal to the sites' span keeps the per-cell formula
    plan = phy.build_resource_plan(SimConfig(ivd_m=10.0))
    assert plan.cell_population == (1038,) * 3
    assert plan.prr_max == phy.prr_max(700, 1038)


def _linear_sinr(cfg, dep, plan, sched, links, rng):
    """(phases, links) linear SINR of cfg: the pass's signal over its
    interference plus the plan's noise, the arithmetic of _evaluate_links."""
    signal, interference = _powers(cfg, dep, sched, links, len(plan.phase_mcs), rng)
    return signal / (interference + plan.noise_mw)


def _powers(cfg, dep, sched, links, phases, rng):
    """(phases, links) signal and interference of one pass through
    _phase_powers."""
    signal = np.empty((phases, links.rx.size))
    interference = np.empty_like(signal)
    for p in range(phases):
        engine._phase_powers(cfg, dep, sched, links, p, rng, signal[p], interference[p])
    return signal, interference


def _evaluate(cfg, seed=0, shifts=()):
    """Every granted transmitter of one drop through the engine's link stage:
    its links, the successes of its transmitters with a link under cfg's
    plan and of each plan of shifts, and the linear SINR of its pass."""
    dep, plan, sched, rng = _setup(cfg, seed)
    pass_rng = copy.deepcopy(rng)
    plans = [plan, *(phy.build_resource_plan(replace(cfg, l2sm_delta_db=d)) for d in shifts)]
    links, n = _evaluate_pass(cfg, dep, sched, rng, plans)
    ratio = _linear_sinr(cfg, dep, plan, sched, links, pass_rng)
    return dep, plan, links, [n[engine._decision_key(p)] for p in plans], ratio


def _hand_drop_sinr(interferers, noise_density_dbm_hz=-174.0):
    """SINR in dB of one link through the engine's SINR pass, shadowing off.

    Vehicle 0 in cell 0 transmits to vehicle 1 (also cell 0) 50 m away.
    Vehicles 2 (cell 1) and 3 (cell 2) sit 50 m and 60 m from the receiver,
    out of the transmitter's 60 m range, and share its grant when listed.
    Vehicle 3 has a lane of its own, so ids stay lane-major with x ascending
    in each lane, as generate_deployment numbers them.
    """
    cfg = SimConfig(comm_range_m=60.0, shadowing_sigma_db=0.0,
                    noise_density_dbm_hz=noise_density_dbm_hz)
    serving = np.array([0, 0, 1, 2])
    dep = scenario.Deployment(
        x_m=np.array([0.0, 50.0, 100.0, 50.0]), y_m=np.array([0.0, 0.0, 0.0, 60.0]),
        lane=np.array([0, 0, 0, 1]), serving=serving, num_cells=3,
    )
    resource = np.full((1, 4), -1, dtype=np.int64)
    occupant = np.full((1, 3, 1), -1, dtype=np.int64)
    for v in (0, *interferers):
        resource[0, v] = 0
        occupant[0, serving[v], 0] = v
    sched = engine.SlotSchedule(resource=resource, occupant=occupant)
    links = engine._build_links(dep, np.array([0]), cfg)
    assert links.tx.tolist() == [0] and links.rx.tolist() == [1]
    ratio = _linear_sinr(cfg, dep, phy.build_resource_plan(cfg), sched, links,
                         np.random.default_rng(0))
    return float(10.0 * np.log10(ratio[0, 0]))


def test_sinr_db():
    # noise set 40 dB below the received signal, no interferer
    cfg = SimConfig()
    plan = phy.build_resource_plan(cfg)
    signal = (cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db
              - channel.pathloss_db(np.array([50.0]), cfg.ue_height_m, cfg.carrier_freq_ghz,
                                    cfg.min_pathloss_distance_m)[0])
    scs_hz = phy.scs_khz(cfg.mu) * 1e3
    noise_bw_db = 10 * math.log10(plan.nprb_pssch * 12 * scs_hz)
    density = signal - 40.0 - noise_bw_db - cfg.noise_figure_db
    assert _hand_drop_sinr((), density) == pytest.approx(40.0)
    # an interferer as strong as the signal over negligible noise: 0 dB
    assert _hand_drop_sinr((2,), -300.0) == pytest.approx(0.0, abs=1e-6)
    # both at once: S / (S + S/1e4) in dB
    assert _hand_drop_sinr((2,), density) == pytest.approx(-10 * math.log10(1.0001))


def test_sinr_strictly_drops_with_extra_interferer():
    alone = _hand_drop_sinr(())
    one = _hand_drop_sinr((2,))
    assert one < alone
    assert _hand_drop_sinr((2, 3)) < one


def _reference_phase_ratio(cfg, dep, sched, links, p, noise_mw, rng):
    """The phase-p SINR of the reference run (tests/reference.py) over
    sched's grants and the links."""
    tx_ids = links.tx_ids
    grant = dict(zip(tx_ids.tolist(), sched.resource[p, tx_ids].tolist()))
    occupant = {(c, r): v for (c, r), v in np.ndenumerate(sched.occupant[p]) if v >= 0}
    row = np.repeat(np.arange(tx_ids.size), links.counts)
    return reference.phase_sinr(cfg, dep, grant, occupant, tx_ids, row, links.rx,
                                links.pathloss_db, noise_mw, rng)


@pytest.mark.parametrize("cfg", [
    SimConfig(ivd_m=40.0),
    SimConfig(ivd_m=40.0, retx_scheme="equal"),
    SimConfig(ivd_m=40.0, retx_scheme="nonequal:2", mu=1),
    SimConfig(ivd_m=40.0, retx_scheme="nonequal:4", mu=2, bandwidth_mhz=20.0),
    SimConfig(ivd_m=40.0, retx_scheme="equal", comm_range_m=0.0),
    SimConfig(bandwidth_mhz=5.0, mu=1, max_mcs_efficiency=0.25, retx_scheme="equal"),
], ids=["none", "equal", "nonequal2", "nonequal4", "zero_range", "zero_capacity"])
def test_phase_ratio_matches_whole_array_pass(cfg):
    # the same SINR bytes and the same end state of the stream, phase by
    # phase, over every granted transmitter of the drop; the passes on either
    # side of a block boundary are pinned by the reference oracle's
    # BLOCK_EDGE_GROUP
    dep, plan, sched, rng = _setup(cfg, seed=3)
    tx_ids = np.flatnonzero(sched.assigned)
    links = engine._build_links(dep, tx_ids, cfg)
    reference_rng = copy.deepcopy(rng)
    for p in range(len(plan.phase_mcs)):
        signal, interference = np.empty(links.rx.size), np.empty(links.rx.size)
        engine._phase_powers(cfg, dep, sched, links, p, rng, signal, interference)
        ratio = signal / (interference + 1e-12)
        expected = _reference_phase_ratio(cfg, dep, sched, links, p, 1e-12, reference_rng)
        assert ratio.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_build_links_holds_only_transmitters_with_a_link():
    # a transmitter with no receiver in range gives no PRR sample, so the
    # batch leaves it out; each lane is evenly spaced at 100 m, and at a 15 m
    # range under seed 2 the vehicles of one lane have no neighbour
    cfg = SimConfig(ivd_m=100.0, comm_range_m=15.0)
    dep = scenario.generate_deployment(cfg, np.random.default_rng(2))
    tx_ids = np.arange(dep.num_vehicles)
    dx = dep.x_m[:, None] - dep.x_m
    dy = dep.y_m[:, None] - dep.y_m
    receivers = ((dx * dx + dy * dy <= cfg.comm_range_m**2)
                 & ~np.eye(tx_ids.size, dtype=bool)).sum(axis=1)
    assert 0 < np.count_nonzero(receivers) < tx_ids.size
    links = engine._build_links(dep, tx_ids, cfg)
    assert links.tx_ids.tolist() == np.flatnonzero(receivers).tolist()
    assert links.counts.tolist() == receivers[receivers > 0].tolist()
    assert np.all(links.counts >= 1)
    # every block's first links start at its link slice and rise strictly
    for ts, ls, starts in links.blocks:
        assert starts[0] == 0 and np.all(np.diff(starts) > 0)
        assert int(links.counts[ts].sum()) == ls.stop - ls.start
    # no range, no link: an empty batch
    empty = engine._build_links(dep, tx_ids, replace(cfg, comm_range_m=0.0))
    assert empty.tx_ids.size == empty.counts.size == empty.rx.size == 0
    assert empty.blocks == []


# ~1.03M links in one drop
DENSE_DROP = SimConfig(mu=2, bandwidth_mhz=20.0, ivd_m=10.0, retx_scheme="equal",
                       l2sm_delta_db=5.0)


def _traced_drop(members, seed):
    """The counts of one drop of members run together, and its traced peak
    in bytes."""
    plans = [phy.build_resource_plan(m) for m in members]
    tracemalloc.start()
    try:
        counts = engine._drop_counts(engine._pass_config(members[0]), plans, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return counts, peak


def test_dense_drop_memory_per_link():
    # a refactor that brings back full-length per-link temporaries fails here
    # (the whole-array pass peaked at 156 bytes per link on this drop, and
    # signal and interference kept per phase at 48; one linear SINR per
    # phase peaks near 40: 12 kept + 8 per phase + one 8-byte buffer)
    (counts,), peak = _traced_drop([DENSE_DROP], 0)
    links = int(counts.m.sum())
    assert links > 1_000_000
    assert peak <= 44 * links


def test_three_noise_pass_memory_per_link(monkeypatch):
    # one light-load pass of three numerologies keeps one linear SINR per
    # (noise, phase) and peaks near 77.5 bytes per link: 12 kept + 3 * 2 * 8,
    # plus one block's decision temporaries and the light drop's fixed
    # arrays.  Signal and interference per phase read 61.5 here: with three
    # noises the SINR rows cost 16 bytes per link more, the price of the
    # dense drop's 8 less
    noises = []
    evaluate = engine._evaluate_links

    def recording(cfg, dep, sched, rng, plans, links):
        noises.append(len({plan.noise_mw for plan in plans}))
        return evaluate(cfg, dep, sched, rng, plans, links)

    monkeypatch.setattr(engine, "_evaluate_links", recording)
    members = [SimConfig(mu=mu, bandwidth_mhz=20.0, ivd_m=40.0, retx_scheme="nonequal:2")
               for mu in (0, 1, 2)]
    counts, peak = _traced_drop(members, 0)
    assert noises == [3]
    assert peak <= 84 * int(counts[0].m.sum())


def test_multi_signature_drop_memory_per_link():
    # a drop of several schedule signatures holds one link search and, at a
    # time, one signature's pass: it peaks near 40 bytes per link of the
    # largest signature.  A phase-0 interferer pathloss computed for the
    # whole drop and kept alive across its signatures read 62
    members = [SimConfig(bandwidth_mhz=10.0, l2sm_delta_db=5.0, ivd_m=20.0, seed=1,
                         mu=mu, retx_scheme=retx)
               for mu in (0, 1, 2) for retx in ("none", "equal", "nonequal:1", "nonequal:4")]
    counts, peak = _traced_drop(members, engine._drop_seed(1, 0))
    assert len({(dc.n.shape[0], dc.tx_ids.size) for dc in counts}) > 1
    assert peak <= 48 * max(int(dc.m.sum()) for dc in counts)


def test_dense_group_memory_flat_in_tables(tmp_path):
    # each BLER table adds decision keys to the pass but no per-link array:
    # every key keeps only its per-transmitter counts.  With each key's
    # (decisions, links) receptions kept until every key had decided, the
    # 16 keys of four tables peaked 8.8 MB above the 4 keys of one
    tables = [None]
    for i in (1, 2, 3):
        path = tmp_path / f"table{i}.csv"
        curves = {mcs: (snr + 0.5 * i, bler)
                  for mcs, (snr, bler) in l2sm.default_bler_table().curves.items()}
        with open(path, "w") as f:
            l2sm.dump_table(l2sm.BlerTable(curves=curves), f)
        tables.append(str(path))

    def traced_peak(paths):
        members = [replace(DENSE_DROP, l2sm_delta_db=d, bler_table_path=t)
                   for t in paths for d in config.L2SM_DELTA_VALUES_DB]
        return _traced_drop(members, 0)[1]

    assert traced_peak(tables) <= traced_peak(tables[:1]) + 2_000_000


def test_dense_drop_links_are_filled_in_place():
    # the link arrays are sized once from the candidate windows and trimmed:
    # per-block parts plus their concatenation peaked at 24.3 bytes per link
    # on this drop, and a view of the candidate-sized buffer owns more bytes
    # than its links
    dep, _, sched, _ = _setup(DENSE_DROP, seed=0)
    tx_ids = np.flatnonzero(sched.assigned)
    tracemalloc.start()
    try:
        links = engine._build_links(dep, tx_ids, engine._pass_config(DENSE_DROP))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    num_links = int(links.counts.sum())
    assert num_links > 1_000_000
    assert peak <= 18 * num_links
    for per_link in (links.rx, links.pathloss_db):
        assert per_link.base is None
        assert per_link.nbytes == per_link.itemsize * num_links


def test_dense_drop_phase_powers_write_in_place():
    # each stage of a block writes into an array the block already owns and
    # each block's arrays are released before the next one: with fresh
    # temporaries per stage one phase peaked at 78.7 bytes per link of the
    # largest block on this drop, with the stages in place but the previous
    # block's arrays kept alive at 52.0, and at 40.6 with both
    dep, plan, sched, rng = _setup(DENSE_DROP, seed=0)
    cfg = engine._pass_config(DENSE_DROP)
    links = engine._build_links(dep, np.flatnonzero(sched.assigned), cfg)
    largest = max(ls.stop - ls.start for _, ls, _ in links.blocks)
    assert largest > 30_000
    for p in range(len(plan.phase_mcs)):
        signal, interference = np.empty(links.rx.size), np.empty(links.rx.size)
        tracemalloc.start()
        try:
            engine._phase_powers(cfg, dep, sched, links, p, rng, signal, interference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 44 * largest


def test_evaluate_links_isolated_cell_noise_limited():
    cfg = replace(NOISE_LIMITED, shadowing_sigma_db=0.0)
    dep, plan, links, _, ratio = _evaluate(cfg)
    assert links.tx.size > 0
    # zero interference: SINR must equal signal minus noise exactly
    noise = -174 + 10 * math.log10(plan.nprb_pssch * 12 * phy.scs_khz(cfg.mu) * 1e3) + 9
    d = np.hypot(dep.x_m[links.rx] - dep.x_m[links.tx],
                 dep.y_m[links.rx] - dep.y_m[links.tx])
    pl = channel.pathloss_db(
        d, cfg.ue_height_m, cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m,
    )
    expected = (cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db - pl) - noise
    np.testing.assert_allclose(10.0 * np.log10(ratio[0]), expected, atol=1e-9)


def test_no_link_has_a_dropped_transmitter():
    # one cell of 1038 vehicles against a 700-transmitter budget
    cfg = SimConfig(highway_length_m=1732.0, num_gnb=1, ivd_m=10.0)
    plan = phy.build_resource_plan(cfg)
    counts = _drop(cfg, plan, 0)
    # _drop_counts draws its deployment and schedule from the same stream
    _, _, sched, _ = _setup(cfg, seed=0)
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
    _, plan, links, (with_shift, without), ratio = _evaluate(cfg, shifts=(0.0,))
    assert ratio.shape == (2, links.rx.size)
    # one combined decision per transmitter with a link: (decisions, transmitters)
    assert with_shift.shape == without.shape == (1, links.tx_ids.size)
    # on the uniforms of one pass a shift only adds successes, up to the
    # transmitter's receivers
    assert np.all(without <= with_shift) and np.all(with_shift <= links.counts)
    assert without.sum() < with_shift.sum()
    # shift dominance carried through the lookup
    table = l2sm.default_bler_table()
    mcs = plan.phase_mcs[0]
    x = 10.0 * np.log10(ratio.mean(axis=0))
    with_shift = l2sm.bler_lookup(table, mcs, x, 3.0)
    without = l2sm.bler_lookup(table, mcs, x, 0.0)
    assert np.all(with_shift <= without)


def test_equal_retx_same_sinr_reproduces_single_bler():
    table = l2sm.default_bler_table()
    for s in (np.array([-3.0]), np.array([0.0]), np.array([4.2])):
        combined = 10 * np.log10((10 ** (s / 10) + 10 ** (s / 10)) / 2)
        assert l2sm.bler_lookup(table, 6, combined, 0.0) == pytest.approx(
            l2sm.bler_lookup(table, 6, s, 0.0), abs=1e-12
        )


def test_nonequal_phase_mcs_ordering():
    cfg = replace(NOISE_LIMITED, retx_scheme="nonequal:1")
    mcs = phy.build_resource_plan(cfg).phase_mcs
    assert len(mcs) == 2
    assert mcs[1] >= mcs[0]  # the shorter window needs the denser MCS
    assert phy.required_se(300, 258, 10, 20e6) == pytest.approx(0.3096)
    # share 0.6/0.4 scales a 1.0 bit/s/Hz demand to 1.667 and 2.5
    shares = phy.phase_shares(cfg.retx_scheme)
    assert (1.0 / shares[0], 1.0 / shares[1]) == pytest.approx((1.667, 2.5), abs=1e-3)


def test_raising_delta_never_hurts_on_fixed_seed():
    # identical streams: a larger shift can only flip receptions one way
    base = replace(NOISE_LIMITED, retx_scheme="equal", ivd_m=80.0)
    for seed in (1, 2, 3, 4, 5):
        runtimes = [
            _run(replace(base, l2sm_delta_db=d), seed).prr_runtime
            for d in (3.0, 5.0, 7.0)
        ]
        assert runtimes[0] <= runtimes[1] <= runtimes[2]


def test_nonequal_outcome_keeps_phase_decisions():
    cfg = replace(NOISE_LIMITED, retx_scheme="nonequal:2", l2sm_delta_db=5.0)
    _, _, links, (n,), ratio = _evaluate(cfg)
    assert ratio.shape == (2, links.rx.size)
    assert n.shape == (2, links.tx_ids.size)  # (decisions, transmitters)
    assert np.all(n <= links.counts)
    # both phases receive
    assert n[0].any() and n[1].any()


def test_execute_run_deterministic():
    cfg = replace(NOISE_LIMITED, ivd_m=80.0)
    a = _run(cfg, 123)
    b = _run(cfg, 123)
    assert a == b
    c = _run(cfg, 124)
    assert a.prr_effective != c.prr_effective


def test_execute_run_not_overloaded_effective_equals_runtime():
    cfg = SimConfig(ivd_m=100.0)  # 102 per cell, far below 700
    result = _run(cfg, 5)
    assert result.prr_max == 1.0
    assert result.prr_effective == result.prr_runtime


def test_execute_run_overloaded_applies_ceiling():
    cfg = SimConfig(ivd_m=10.0)
    result = _run(cfg, 5)
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
    result = _run(replace(base, retx_scheme=retx), 1)
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


# two cells, so the shared SINR pass carries cross-cell interference
TWO_CELLS = SimConfig(
    highway_length_m=3464.0, num_gnb=2, mu=2, bandwidth_mhz=20.0, ivd_m=40.0,
    drops=2,
)
GROUP_DELTAS = (3.0, 0.0, 7.0, 5.0)


@pytest.mark.parametrize("cfg", [
    replace(TWO_CELLS, retx_scheme="none"),
    replace(TWO_CELLS, retx_scheme="equal"),
    replace(TWO_CELLS, retx_scheme="nonequal:2"),
    replace(TWO_CELLS, retx_scheme="nonequal:4"),
    replace(NO_RECEIVER, retx_scheme="nonequal:2", drops=2),
    replace(ZERO_CAPACITY, retx_scheme="equal", drops=2),
], ids=["none", "equal_linear", "nonequal2", "nonequal4",
        "no_receiver", "zero_capacity"])
def test_grouped_deltas_equal_each_run_alone(cfg):
    # fixed cases of the reference oracle: each delta of a group gets the
    # result and the samples of its run alone
    assert_matches_reference([replace(cfg, l2sm_delta_db=d, seed=6) for d in GROUP_DELTAS])


# two 1732 m cells of about 258 vehicles: at 10 MHz "none" supports 700/600/400
# transmitters per cell at mu 0/1/2 and tf 10, the two-phase schemes half of
# that and tf 20 halves it again, so a group mixes overloaded plans with
# plans that keep every vehicle
SHARED_PASS = SimConfig(
    highway_length_m=3464.0, num_gnb=2, bandwidth_mhz=10.0, ivd_m=40.0,
    comm_range_m=200.0, drops=2,
)
# at ivd 100 (102 vehicles per cell) "equal" and "nonequal:1" both pick MCS
# (3, 3) at tf 10, so only the combining tells their decisions apart
SPARSE_PASS = replace(SHARED_PASS, ivd_m=100.0)


def test_combining_splits_members_of_one_mcs():
    # equal and nonequal:1 share noise, phase MCS and shift here: one decision
    # key without the scheme kind would hand one of them the other's receptions
    members = [replace(SPARSE_PASS, retx_scheme=retx, l2sm_delta_db=delta)
               for retx in ("equal", "nonequal:1", "none")
               for delta in config.L2SM_DELTA_VALUES_DB]
    equal, nonequal = (phy.build_resource_plan(replace(SPARSE_PASS, retx_scheme=retx))
                       for retx in ("equal", "nonequal:1"))
    assert equal.phase_mcs == nonequal.phase_mcs
    assert_matches_reference([replace(m, seed=6) for m in members])


# SHARED_PASS at ivd 20: about 516 vehicles per cell, so "none" keeps every
# vehicle at mu 0 and 1 and 400 per cell at mu 2, and the two-phase schemes
# keep 350/300/200: five schedule signatures of mixed caps and phase counts
OVERLOADED_PASS = replace(SHARED_PASS, ivd_m=20.0, drops=1)


def test_shared_geometry_gives_each_signature_its_own_pass(monkeypatch):
    # one link search for the drop, and one pass per schedule signature: two
    # one-phase and three two-phase signatures of distinct transmitters.  That
    # each pass holds the bytes of its signature run alone is the reference
    # oracle's to check (test_reference.py)
    members = [replace(OVERLOADED_PASS, mu=mu, retx_scheme=retx)
               for mu in (0, 1, 2) for retx in ("none", "equal", "nonequal:4")]
    searched, passes = [], []
    build_links, phase_powers = engine._build_links, engine._phase_powers

    def counting(dep, tx_ids, cfg):
        searched.append(tx_ids.size)
        return build_links(dep, tx_ids, cfg)

    def recording(cfg, dep, sched, links, p, *buffers):
        passes.append((links.tx_ids.tobytes(), p))
        phase_powers(cfg, dep, sched, links, p, *buffers)

    monkeypatch.setattr(engine, "_build_links", counting)
    monkeypatch.setattr(engine, "_phase_powers", recording)
    plans = [phy.build_resource_plan(m) for m in members]
    engine._drop_counts(engine._pass_config(members[0]), plans, engine._drop_seed(8, 0))
    assert len(searched) == 1
    assert len({tx for tx, _ in passes}) == 5
    assert len(set(passes)) == len(passes) == 2 * 1 + 3 * 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       grids=st.lists(st.tuples(st.integers(0, 140), st.integers(1, 30), st.integers(1, 2)),
                      min_size=2, max_size=4))
def test_kept_sets_nest_and_phase0_interferers_agree(seed, grids):
    # schedules from one draw of the cell orders and copies of the stream
    # after it, under any caps, grant grid widths and phase counts: a smaller
    # cap keeps a subset of a larger one, a kept vehicle meets the same
    # phase-0 interferer in every cell, and the grid width changes nothing
    cfg = SimConfig(ivd_m=80.0)  # about 130 vehicles per cell
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    orders = engine._cell_orders(dep, rng)
    base = phy.build_resource_plan(cfg)

    def schedule(cap, width, phases):
        plan = replace(base, ue_supported=cap, ue_per_slot=width,
                       phase_mcs=base.phase_mcs * phases)
        return engine.schedule_slots(dep, orders, plan, copy.deepcopy(rng))

    scheds = sorted(((cap, schedule(cap, width, phases)) for cap, width, phases in grids),
                    key=lambda item: item[0])
    for (_, small), (_, large) in zip(scheds, scheds[1:]):
        assert not (small.assigned & ~large.assigned).any()
        tx_ids = np.flatnonzero(small.assigned)
        assert np.array_equal(small.occupant[0][:, small.resource[0, tx_ids]],
                              large.occupant[0][:, large.resource[0, tx_ids]])
    for cap, width, phases in grids:
        one, other = schedule(cap, width, phases), schedule(cap, width % 30 + 1, phases)
        for name in ("resource", "occupant", "dropped"):
            a, b = getattr(one, name), getattr(other, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("retx, decisions", [
    (("equal",), 1),
    (("nonequal:4",), 2),
    (("equal", "nonequal:1", "nonequal:4"), 2),
])
def test_one_uniform_draw_per_decision_and_chunk(retx, decisions, monkeypatch):
    # every key of a pass reads the same uniforms: one draw per (decision,
    # block of transmitters), however many keys and lookups the pass serves
    seen = []
    draw = l2sm.reception_draw

    def recording(bler, uniforms):
        seen.append(uniforms)
        return draw(bler, uniforms)

    monkeypatch.setattr(l2sm, "reception_draw", recording)
    cfg = replace(OVERLOADED_PASS, retx_scheme=retx[0])
    dep, _, sched, rng = _setup(cfg)
    plans = [phy.build_resource_plan(replace(cfg, retx_scheme=r, l2sm_delta_db=delta))
             for r in retx for delta in (3.0, 5.0, 7.0)]
    links, n = _evaluate_pass(cfg, dep, sched, rng, plans)
    blocks = len(links.blocks)
    assert blocks > 1 and links.tx_ids.size % engine._TX_BLOCK  # the last is partial
    assert len(n) == len(plans)
    assert len(seen) == sum(counts.shape[0] for counts in n.values()) * blocks
    assert len({id(u) for u in seen}) == decisions * blocks


@pytest.mark.parametrize("retx, deltas, tables, lookups", [
    ("none", (0.0, 3.0, 5.0, 7.0), (None,), 1),   # one phase ignores the shift
    ("equal", (3.0, 5.0, 7.0), (None,), 3),       # one combined decision per shift
    ("nonequal:2", (3.0, 5.0, 7.0), (None,), 6),  # two phase decisions per shift
    ("equal", (3.0, 5.0, 7.0), (None, SATURATING), 6),  # one pass, a key per table
], ids=["none-deltas0-1", "equal-deltas1-3", "nonequal:2-deltas2-6", "equal-two-tables-6"])
def test_lookups_per_drop_follow_the_decision_keys(retx, deltas, tables, lookups,
                                                   monkeypatch):
    # looked-up values per link of each pass: a count no block size changes
    looked_up, passed = [], []
    lookup, evaluate = l2sm.bler_lookup, engine._evaluate_links

    def counting(*args, **kwargs):
        looked_up.append(np.size(args[2]))
        return lookup(*args, **kwargs)

    def recording(cfg, dep, sched, rng, plans, links):
        passed.append(links.rx.size)
        return evaluate(cfg, dep, sched, rng, plans, links)

    monkeypatch.setattr(l2sm, "bler_lookup", counting)
    monkeypatch.setattr(engine, "_evaluate_links", recording)
    cfg = replace(NOISE_LIMITED, ivd_m=80.0, retx_scheme=retx, drops=2)
    _results([replace(cfg, l2sm_delta_db=d, bler_table_path=t)
              for t in tables for d in deltas], 4)
    assert len(passed) == cfg.drops
    assert sum(looked_up) == lookups * sum(passed)


def test_every_sweep_axis_splits_or_shares_the_pass():
    # a new sweep axis must either split the SINR groups (a pass field) or be
    # one the engine applies after the pass
    pass_axes = {"ivd_m", "seed"}
    for name in config._SWEEP_AXES.values():
        assert (name in pass_axes) != (name in engine.POST_PASS_FIELDS), name


@pytest.mark.parametrize("other, mixed", [
    (replace(NOISE_LIMITED, ivd_m=80.0, mu=1), "ivd_m"),
    (replace(NOISE_LIMITED, seed=2, l2sm_delta_db=3.0), "seed"),
], ids=["ivd_m", "seed"])
def test_execute_run_rejects_members_of_different_passes(other, mixed):
    with pytest.raises(ValueError, match=rf"differ in {mixed}$"):
        engine.execute_run([NOISE_LIMITED, other])


def test_nonequal_run_reports_phase_prrs():
    cfg = replace(NOISE_LIMITED, retx_scheme="nonequal:3", l2sm_delta_db=3.0)
    result = _run(cfg, 9)
    assert result.prr_phase1 is not None and result.prr_phase2 is not None
    assert result.prr_runtime == pytest.approx(
        (result.prr_phase1 + result.prr_phase2) / 2
    )
    assert result.prr_phase1 >= result.prr_phase2  # long window is easier


def test_execute_run_pools_drops():
    cfg = replace(NOISE_LIMITED, ivd_m=200.0, drops=3)
    plan = phy.build_resource_plan(cfg)
    pooled = _run(cfg, 7)
    singles = [
        _drop(cfg, plan, engine._drop_seed(7, i)).tx_ids.size
        for i in range(3)
    ]
    assert pooled.samples == sum(singles)
    assert _run(cfg, 7) == pooled


def test_execute_run_builds_one_plan(monkeypatch):
    calls = []
    build = phy.build_resource_plan

    def counting(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(phy, "build_resource_plan", counting)
    _run(replace(NOISE_LIMITED, ivd_m=200.0, drops=3), 7)
    assert len(calls) == 1


def test_execute_run_reads_the_table_file_once(monkeypatch):
    # the plan loads the table and the fingerprint takes the digest of the
    # bytes it loaded: a second read could name a file rewritten in between
    reads = []
    read = l2sm.read_table_file
    monkeypatch.setattr(l2sm, "read_table_file", lambda path: reads.append(path) or read(path))
    cfg = replace(NOISE_LIMITED, ivd_m=200.0, bler_table_path=SATURATING)
    ((result, _),) = engine.execute_run([cfg])
    assert reads == [SATURATING]
    assert result.fingerprint == config.config_fingerprint(cfg)


def test_equal_retx_beats_single_tx_when_noise_limited():
    # diversity plus receiver-sensitivity shift must help when capacity allows
    seeds = range(1, 21)
    base = replace(NOISE_LIMITED, ivd_m=80.0)
    single = np.array([_run(base, s).prr_runtime for s in seeds])
    equal = np.array([
        _run(
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
    cfg = replace(NOISE_LIMITED, ivd_m=100.0, drops=2, seed=3)
    ((result, counts),) = engine.execute_run([cfg])
    rows = engine.run_sample_table(counts)
    assert len(rows) == result.samples
    assert {row[0] for row in rows} == {0, 1}
    assert all(0 <= n <= m for _, _, _, m, n in rows)
