"""Per-drop simulation: scheduling, cross-cell interference, SINR, reception.

In-cell transmissions are orthogonal (the gNB grants each transmitter its
own slot/chunk pair); interference comes only from vehicles in other cells
holding the same pair, one potential interferer per foreign cell.  Every
scheme yields one SINR per phase and link; the equal scheme first combines
its two phase SINRs into a single decision SINR, the others decide each
phase on its own.  Each decision gets its own BLER lookup and Bernoulli
draw, and the run PRR is the mean of the per-decision PRRs.

Capacity dropping is per cell: the first ``ue_supported`` vehicles of the
cell's random order, drawn once per drop, transmit; the rest keep listening
but lose their transmit opportunity.  The overload penalty enters the
effective PRR only through its ceiling, so dropped vehicles contribute no
runtime samples.

execute_run is the one way in, for run and sweep alike.  It takes one
sinr_groups group, runs whose configs (seed included) differ only in
POST_PASS_FIELDS, and returns each run's RunResult with its drops.  Such
runs share each drop's deployment, its grant orders and one link search
over every transmitter any of them keeps.  Runs of one schedule signature
also share the schedule and every link's signal and interference, and runs
of one decision key their success counts.  The key is read from each run's
resource plan (noise power, phase MCS, combining, shift, BLER table):
after deployment the engine reads the pass config and the plans, never a
member config, so runs under two tables share one pass.  The pass keeps
one linear SINR per (noise, phase), and the keys of a pass decide in one
loop: one uniform draw per (decision, block of links) that every key
reads, one dB SINR per (noise, combining), and one lookup per key, summed
per transmitter in the block, so every run's result is the one it gets
alone.  One tiling, blocks of _TX_BLOCK transmitters, steps the link
search, the SINR pass and the decisions alike.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import channel, l2sm, metrics, phy, scenario
from .config import SimConfig, config_fingerprint


# Config fields that act only after the SINR pass, all through the resource
# plan (capacity, phase count, MCS, noise bandwidth, combining, shift, BLER
# table).  Runs that differ only in these share a drop's deployment and link
# search, and the runs of one schedule signature its interference
# (_drop_counts).
POST_PASS_FIELDS = ("bandwidth_mhz", "mu", "tf_hz", "retx_scheme", "l2sm_delta_db",
                    "bler_table_path")
_POST_PASS_DEFAULTS = {name: getattr(SimConfig(), name) for name in POST_PASS_FIELDS}


def _pass_config(cfg: SimConfig) -> SimConfig:
    """cfg with every post-pass field at its default: runs whose pass
    configs are equal, the seed included, can share one SINR pass.  Never
    raises: the defaults' (10 MHz, mu 0) PRB entry is always defined."""
    return replace(cfg, **_POST_PASS_DEFAULTS)


def sinr_groups(configs: Iterable[SimConfig]) -> list[list[SimConfig]]:
    """configs grouped by pass config, in first-seen order: one execute_run each."""
    groups: dict[SimConfig, list[SimConfig]] = {}
    for cfg in configs:
        groups.setdefault(_pass_config(cfg), []).append(cfg)
    return list(groups.values())


@dataclass(frozen=True, eq=False)
class SlotSchedule:
    """Per-cell grants over one transmission period.

    ``resource[p, v]`` is the linear grant index of vehicle v in phase p, its
    place in its cell's phase-p order, or -1 without a grant.
    ``occupant[p, c, r]`` inverts it per cell (-1 when idle), r up to the
    largest kept count.  The same linear index in two cells means the same
    time/frequency resource, hence mutual interference.  Every phase grants
    the same vehicles, so phase 0 tells which are kept and which dropped.
    """

    resource: np.ndarray      # (phases, vehicles) int
    occupant: np.ndarray      # (phases, cells, largest kept count) int

    @property
    def assigned(self) -> np.ndarray:
        """bool per vehicle: True where it holds a grant."""
        return self.resource[0] >= 0

    @property
    def dropped(self) -> np.ndarray:
        """Vehicle ids beyond capacity, ascending."""
        return np.flatnonzero(self.resource[0] < 0)


def _cell_orders(dep: scenario.Deployment, rng: np.random.Generator) -> list[np.ndarray]:
    """Each cell's vehicle ids in random order, cell 0 first: the phase-0
    grant order of every schedule of the drop."""
    orders = []
    for c in range(dep.num_cells):
        ids = np.flatnonzero(dep.serving == c)
        orders.append(ids[rng.permutation(ids.size)])
    return orders


def schedule_slots(dep: scenario.Deployment, orders: Sequence[np.ndarray],
                   plan: phy.ResourcePlan, rng: np.random.Generator) -> SlotSchedule:
    """Round-robin grants per cell in the order of orders, capped at
    ue_supported; later phases permute each cell's kept vehicles afresh."""
    num_phases = len(plan.phase_mcs)
    kept = [order[: plan.ue_supported] for order in orders]
    resource = np.full((num_phases, dep.num_vehicles), -1, dtype=np.int64)
    occupant = np.full((num_phases, len(kept), max(k.size for k in kept)), -1, dtype=np.int64)
    for p in range(num_phases):
        for c, members in enumerate(kept):
            # later phases permute afresh: retransmissions face independent
            # interferers
            order = members if p == 0 else members[rng.permutation(members.size)]
            resource[p, order] = np.arange(order.size)
            occupant[p, c, : order.size] = order
    return SlotSchedule(resource=resource, occupant=occupant)


# Transmitters per block of a drop's one tiling.  Every per-link temporary of
# the link search, the SINR pass and the decisions spans one block's links,
# so a dense drop's peak memory stays near its kept arrays while numpy calls
# stay few.
_TX_BLOCK = 64
# Pads each lane window beyond x +/- range: far above the rounding of those
# sums on any highway shorter than ~1000 km, so the exact mask still decides.
_WINDOW_PAD_M = 1e-9


def _tx_blocks(num_tx: int) -> list[slice]:
    """Consecutive slices of at most _TX_BLOCK transmitters over num_tx."""
    return [slice(lo, min(lo + _TX_BLOCK, num_tx)) for lo in range(0, num_tx, _TX_BLOCK)]


@dataclass(frozen=True, eq=False)
class _LinkBatch:
    """In-range links, tx-major with rx ascending per transmitter."""

    tx_ids: np.ndarray        # the transmitters searched, in order
    counts: np.ndarray        # links per transmitter
    rx: np.ndarray            # receiver per link, int32
    pathloss_db: np.ndarray   # per link

    @property
    def tx(self) -> np.ndarray:
        """Transmitter per link."""
        return np.repeat(self.tx_ids, self.counts)

    @cached_property
    def blocks(self) -> list[tuple[slice, slice]]:
        """(transmitter slice, link slice) of each block of transmitters."""
        bounds = np.concatenate(([0], np.cumsum(self.counts)))
        return [(ts, slice(int(bounds[ts.start]), int(bounds[ts.stop])))
                for ts in _tx_blocks(self.tx_ids.size)]

    @cached_property
    def heard(self) -> np.ndarray:
        """Index of each transmitter with at least one link, ascending."""
        return np.flatnonzero(self.counts)

    def rows(self, keep: np.ndarray) -> _LinkBatch:
        """The links of the transmitters where keep is True."""
        per_link = np.repeat(keep, self.counts)
        return _LinkBatch(tx_ids=self.tx_ids[keep], counts=self.counts[keep],
                          rx=self.rx[per_link], pathloss_db=self.pathloss_db[per_link])


def _build_links(dep: scenario.Deployment, tx_ids: np.ndarray,
                 cfg: SimConfig) -> _LinkBatch:
    """Every receiver within comm_range_m of each transmitter, and its pathloss.

    generate_deployment numbers vehicles lane-major with x ascending inside
    each lane, so a transmitter's candidates in one lane are one contiguous id
    range, found by np.searchsorted on that lane's x.  Inside those windows
    the exact ``dx*dx + dy*dy <= range**2`` mask decides, as over every vehicle.
    Every vehicle is a candidate and each pathloss is elementwise, so the links
    of a subset of tx_ids are the rows of its transmitters.
    """
    x, y = dep.x_m, dep.y_m
    reach = float(cfg.comm_range_m)
    range_sq = reach**2
    lane_start = np.concatenate(([0], np.cumsum(np.bincount(dep.lane))))
    num_lanes = lane_start.size - 1
    tx_x = x[tx_ids]
    # (transmitters, lanes) candidate id windows [first, last)
    first = np.empty((tx_ids.size, num_lanes), dtype=np.int64)
    last = np.empty((tx_ids.size, num_lanes), dtype=np.int64)
    for k in range(num_lanes):
        a, b = lane_start[k], lane_start[k + 1]
        first[:, k] = a + np.searchsorted(x[a:b], tx_x - reach - _WINDOW_PAD_M, "left")
        last[:, k] = a + np.searchsorted(x[a:b], tx_x + reach + _WINDOW_PAD_M, "right")

    counts = np.empty(tx_ids.size, dtype=np.int64)
    # the candidates bound the links from above, as the mask only removes
    # some.  Each block writes its links into its slice, so the peak is these
    # two arrays plus one block's temporaries.
    rx = np.empty(int((last - first).sum()), dtype=np.int32)
    pathloss_db = np.empty(rx.size)
    at = 0
    for ts in _tx_blocks(tx_ids.size):
        block = tx_ids[ts]
        width = (last[ts] - first[ts]).ravel()
        # candidate ids window after window, in (transmitter, lane) order
        shift = first[ts].ravel() - (np.cumsum(width) - width)
        cand = np.repeat(shift, width) + np.arange(width.sum())
        row = np.repeat(np.arange(block.size), width.reshape(block.size, -1).sum(axis=1))
        src = block[row]
        dx = x[src] - x[cand]
        dy = y[src] - y[cand]
        d2 = dx * dx + dy * dy
        keep = (d2 <= range_sq) & (cand != src)
        counts[ts] = np.bincount(row[keep], minlength=block.size)
        ls = slice(at, at + int(np.count_nonzero(keep)))
        rx[ls] = cand[keep]
        dist = np.sqrt(d2[keep], out=pathloss_db[ls])
        channel.pathloss_db(dist, cfg.ue_height_m, cfg.ue_height_m,
                            cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m, out=dist)
        at = ls.stop
    # trimmed in place, so each array owns exactly its links: a view of the
    # candidate-sized buffer would keep the whole buffer alive
    rx.resize(at, refcheck=False)
    pathloss_db.resize(at, refcheck=False)
    return _LinkBatch(tx_ids=tx_ids, counts=counts, rx=rx, pathloss_db=pathloss_db)


def _interferers(dep: scenario.Deployment, sched: SlotSchedule, tx_ids: np.ndarray,
                 p: int) -> np.ndarray:
    """(cells, transmitters): the vehicle of each other cell holding each
    transmitter's phase-p grant, -1 where none does."""
    occ = sched.occupant[p][:, sched.resource[p, tx_ids]]
    occ[dep.serving[tx_ids], np.arange(tx_ids.size)] = -1
    return occ


def _interfered(links: _LinkBatch, occ: np.ndarray):
    """Per block with an interfered transmitter: its link slice, which of its
    links are interfered, and the interferer and link count of each
    interfered transmitter, from one cell's interferers occ."""
    hit = occ >= 0
    for ts, ls in links.blocks:
        block_hit = hit[ts]
        if not block_hit.any():
            continue
        # under load every transmitter of a block is usually interfered, and
        # its links are then one slice
        hit_links = (slice(None) if block_hit.all()
                     else np.flatnonzero(np.repeat(block_hit, links.counts[ts])))
        yield ls, hit_links, occ[ts][block_hit], links.counts[ts][block_hit]


def _interferer_pathloss_block(cfg: SimConfig, dep: scenario.Deployment, src: np.ndarray,
                               per_src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Pathloss from each interferer src to the next per_src receivers of dst,
    in a fresh array."""
    x, y = dep.x_m, dep.y_m
    # receivers are stored as int32; converted once, both gathers index with
    # intp, which a dense drop ran faster than two int32 gathers
    dst = dst.astype(np.intp)
    dx = np.repeat(x.take(src), per_src)
    dx -= x.take(dst)
    dy = np.repeat(y.take(src), per_src)
    dy -= y.take(dst)
    # the squared-sum distance of _build_links
    dx *= dx
    dy *= dy
    dx += dy
    dist = np.sqrt(dx, out=dx)
    return channel.pathloss_db(dist, cfg.ue_height_m, cfg.ue_height_m,
                               cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m, out=dist)


def _phase_powers(cfg: SimConfig, dep: scenario.Deployment, sched: SlotSchedule,
                  links: _LinkBatch, p: int, rng: np.random.Generator,
                  signal_mw: np.ndarray, interference_mw: np.ndarray) -> None:
    """Fill signal_mw and interference_mw with the received signal and summed
    interference, in mW, of every link in phase p: its own transmitter, and
    the interferers holding its grant in other cells.  Noise is left out:
    _evaluate_links adds each noise of the pass.

    Works through one block of transmitters at a time, and each stage of a
    block writes into an array the block already owns: the signal budget
    into the block's slice of signal_mw, and an interferer's distances,
    pathloss and budget into one fresh array per block, released before the
    next block.  The interferer on a grant depends only on the transmitter,
    so it is read once per transmitter and repeated over that transmitter's
    links.  Shadowing is drawn pass by pass in whole-drop order (the signal
    of every link, then the interfered links of cell 0, of cell 1, ...), and
    consecutive ``rng.normal`` calls yield the values and end state of one
    call over their total size.
    """
    eirp = cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db
    for _, ls in links.blocks:
        shadow = channel.shadowing_db(rng, cfg.shadowing_sigma_db, ls.stop - ls.start)
        channel.rx_power_mw(eirp, links.pathloss_db[ls], shadow, out=signal_mw[ls])
    interference_mw[:] = 0.0
    for occ in _interferers(dep, sched, links.tx_ids, p):
        for ls, hit_links, src, per_src in _interfered(links, occ):
            pl = _interferer_pathloss_block(cfg, dep, src, per_src, links.rx[ls][hit_links])
            shadow_i = channel.shadowing_db(rng, cfg.shadowing_sigma_db, pl.size)
            power = channel.rx_power_mw(eirp, pl, shadow_i, out=pl)
            interference_mw[ls][hit_links] += power
            # released before the next block builds its distances
            del pl, shadow_i, power


def _decision_key(plan: phy.ResourcePlan) -> tuple:
    """Every input a run's receptions read after the SINR pass."""
    return plan.noise_mw, plan.phase_mcs, plan.combining, plan.shift_db, plan.table


def _decide(plans: Sequence[phy.ResourcePlan], sinr: dict[float, np.ndarray],
            links: _LinkBatch, rng: np.random.Generator) -> dict:
    """Successes ``(decisions, heard transmitters)`` int64 of each decision
    key of plans, from the pass's ``(phases, links)`` linear SINR under each
    noise of plans (sinr[plan.noise_mw]); heard transmitters: links.heard.

    One loop over (decision, block of links) serves every key, the blocks
    of transmitters the pass itself steps through.  The block's uniforms are
    drawn once from the post-pass stream and read by every key, its dB SINR
    is formed once per (noise, combining) into a fresh array, so no stored
    row changes, and each key adds only its lookup, in its own plan's table,
    its compare and one sum per transmitter over its links: no reception
    outlives its block.  That is what each key's runs get alone: every step
    is elementwise or a mean over the phases of one link, so a block holds
    the bytes of the whole-array arithmetic; consecutive ``rng.random``
    calls yield the values of one call over their total size, so decision d
    of every key reads the same uniforms, a combining key those of decision
    0; and nothing reads the stream after the decisions.
    """
    deciders = {_decision_key(plan): plan for plan in plans}
    phases = len(plans[0].phase_mcs)
    heard = links.heard
    n = {key: np.empty((1 if plan.combining else phases, heard.size), dtype=np.int64)
         for key, plan in deciders.items()}
    # each block's links, its heard transmitters' columns of n, and their first links in it
    first = np.cumsum(links.counts) - links.counts
    spans = [slice(*np.searchsorted(heard, (ts.start, ts.stop))) for ts, _ in links.blocks]
    blocks = [(ls, cols, first[heard[cols]] - ls.start)
              for (_, ls), cols in zip(links.blocks, spans)]
    for d in range(max(map(len, n.values()))):
        for ls, cols, starts in blocks:
            uniforms = rng.random(ls.stop - ls.start)
            sinr_db = {}  # (noise, combining) -> the block's decision-d SINR in dB
            for key, plan in deciders.items():
                if d >= len(n[key]):
                    continue
                at = plan.noise_mw, plan.combining
                if at not in sinr_db:
                    stored = sinr[plan.noise_mw]
                    ratio = stored[:, ls].mean(axis=0) if plan.combining else stored[d, ls]
                    sinr_db[at] = db = np.log10(ratio)
                    db *= 10.0
                received = l2sm.reception_draw(l2sm.bler_lookup(
                    plan.table, plan.phase_mcs[d], sinr_db[at], plan.shift_db), uniforms)
                n[key][d, cols] = np.add.reduceat(received, starts, dtype=np.int64)
    return n


def _evaluate_links(cfg: SimConfig, dep: scenario.Deployment, sched: SlotSchedule,
                    rng: np.random.Generator, plans: Sequence[phy.ResourcePlan],
                    links: _LinkBatch) -> dict:
    """One SINR pass over links, those of sched's transmitters, decided for
    every decision key of plans: the ``(decisions, heard transmitters)``
    successes of each key (_decide).

    cfg is the pass config; plans share its phase count, so they share the
    signal and interference of every link (_phase_powers).  The pass keeps
    one ``(phases, links)`` linear SINR per distinct noise of plans and one
    interference buffer that every phase reuses: K noises over P phases hold
    K*P + 1 per-link arrays.  Each phase's signal is
    written into the last noise's row, every other noise's row is the
    signal over the interference plus that noise, and the last noise's is
    then formed in place, the same two operations in the same order.
    Every key then decides from the post-pass stream (_decide).
    """
    noises = list(dict.fromkeys(plan.noise_mw for plan in plans))
    sinr = {noise: np.empty((len(plans[0].phase_mcs), links.rx.size)) for noise in noises}
    interference = np.empty(links.rx.size)
    *others, last = noises
    for p, signal in enumerate(sinr[last]):
        _phase_powers(cfg, dep, sched, links, p, rng, signal, interference)
        for noise in others:
            row = sinr[noise][p]
            np.add(interference, noise, out=row)
            np.divide(signal, row, out=row)
        interference += last
        signal /= interference
    # freed before the decisions, which hold only one block's temporaries
    # per key beside the SINR rows
    del interference
    return _decide(plans, sinr, links, rng)


@dataclass(frozen=True, eq=False)
class _DropCounts:
    dep: scenario.Deployment  # the deployment this drop simulated
    tx_ids: np.ndarray        # transmitters with at least one in-range receiver
    m: np.ndarray             # receivers per transmitter
    n: np.ndarray             # (decisions, transmitters) successes


def _drop_counts(cfg: SimConfig, plans: Sequence[phy.ResourcePlan],
                 seed) -> list[_DropCounts]:
    """One drop of every plan under the pass config cfg: one deployment, one
    grant order per cell, one link search, and one schedule and SINR pass per
    schedule signature.

    The signature is (phase count, min(ue_supported, largest cell)): it fixes
    every vehicle kept by the schedule and every permutation drawn.  Every
    signature keeps a prefix of each cell's order (_cell_orders), so a
    smaller cap keeps a subset of a larger cap's vehicles.  The signatures
    run largest cap first: the first one's transmitters give the links, and
    every later signature's links are their rows.  Each signature's pass
    computes its own interferers' pathloss, in every phase (_phase_powers).
    Each signature schedules from a copy of the stream after the orders, so
    every plan sees the stream of its run alone.
    """
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    orders = _cell_orders(dep, rng)
    largest = max(order.size for order in orders)
    signatures: dict[tuple[int, int], list[int]] = {}
    for i, plan in enumerate(plans):
        key = (len(plan.phase_mcs), min(plan.ue_supported, largest))
        signatures.setdefault(key, []).append(i)

    counts: list[_DropCounts | None] = [None] * len(plans)
    union = None
    for _, idx in sorted(signatures.items(), key=lambda item: -item[0][1]):
        members = [plans[i] for i in idx]
        stream = copy.deepcopy(rng)
        sched = schedule_slots(dep, orders, members[0], stream)
        if union is None:
            union = _build_links(dep, np.flatnonzero(sched.assigned), cfg)
        keep = sched.assigned[union.tx_ids]
        links = union if keep.all() else union.rows(keep)
        n = _evaluate_links(cfg, dep, sched, stream, members, links)
        tx_ids, m = links.tx_ids[links.heard], links.counts[links.heard]
        for i, plan in zip(idx, members):
            counts[i] = _DropCounts(dep=dep, tx_ids=tx_ids, m=m, n=n[_decision_key(plan)])
        # freed before the next schedule is drawn (held, retx_mix RSS read +0.5 MB)
        del sched, links
    return counts


def _finalize(cfg: SimConfig, plan: phy.ResourcePlan,
              counts: list[_DropCounts]) -> metrics.RunResult:
    m = np.concatenate([dc.m for dc in counts])
    n = np.concatenate([dc.n for dc in counts], axis=1)
    prrs = [metrics.prr_runtime(m, n_d) for n_d in n]
    runtime = sum(prrs) / len(prrs)
    phase1, phase2 = prrs if len(prrs) == 2 else (None, None)

    effective = metrics.effective_prr(plan.prr_max, runtime)

    return metrics.RunResult(
        key=metrics.RunKey.from_config(cfg),
        fingerprint=config_fingerprint(cfg, plan.table),
        seed=cfg.seed,
        prr_runtime=runtime,
        prr_max=plan.prr_max,
        prr_effective=effective,
        samples=int(m.size),
        prr_phase1=phase1,
        prr_phase2=phase2,
    )


def _drop_seed(seed: int, drop_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(drop_index,))


def execute_run(members: Sequence[SimConfig]
                ) -> list[tuple[metrics.RunResult, list[_DropCounts]]]:
    """Per member, its RunResult and the counts of its drops, seeded by the
    cfg.seed the members share.  Each member checked its fields when it was
    built (SimConfig), so the engine checks only that they share one pass
    config (one sinr_groups group) and raises ValueError otherwise.  Each
    member's result and drops equal those of its run alone: every drop
    shares one deployment among the members, one link search among them
    all, and one schedule and interference pass among the members of each
    schedule signature."""
    cfg, *others = (_pass_config(m) for m in members)
    mixed = sorted(f.name for f in fields(SimConfig)
                   if any(getattr(o, f.name) != getattr(cfg, f.name) for o in others))
    if mixed:
        raise ValueError(f"runs of one SINR pass differ in {', '.join(mixed)}")
    plans = [phy.build_resource_plan(m) for m in members]
    drops = [_drop_counts(cfg, plans, _drop_seed(cfg.seed, i)) for i in range(cfg.drops)]
    return [(_finalize(m, plan, counts), counts)
            for m, plan, counts in zip(members, plans, map(list, zip(*drops)))]


def run_sample_table(counts: list[_DropCounts]) -> list[tuple[int, int, int, int, int]]:
    """Per-transmission rows (drop, tx_id, phase, receivers, received)."""
    rows = []
    for i, dc in enumerate(counts):
        for d in range(dc.n.shape[0]):
            for t, m, n in zip(dc.tx_ids, dc.m, dc.n[d]):
                rows.append((i, int(t), d + 1, int(m), int(n)))
    return rows
