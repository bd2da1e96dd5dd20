"""Per-drop simulation: scheduling, cross-cell interference, SINR, reception.

In-cell transmissions are orthogonal (the gNB grants each transmitter its
own slot/chunk pair); interference comes only from vehicles in other cells
holding the same pair, one potential interferer per foreign cell.  Every
scheme yields one SINR per phase and link; the equal scheme first combines
its two phase SINRs into a single decision SINR, the others decide each
phase on its own.  Each decision gets its own BLER lookup and Bernoulli
draw, and the run PRR is the mean of the per-decision PRRs.

Capacity dropping is per cell: the first ``ue_supported`` vehicles of a
random order transmit, the rest keep listening but lose their transmit
opportunity.  The overload penalty enters the effective PRR only through
its ceiling, so dropped vehicles contribute no runtime samples.

One drop can serve several runs.  Runs whose configs differ only in
POST_PASS_FIELDS share its deployment and its geometry: one link search
over every transmitter any of them keeps, and the pathloss of the phase-0
interferers.  Runs of one schedule signature also share the schedule and
every link's signal and interference, and runs of one decision key their
receptions.  The key is read from each run's resource plan (noise power,
phase MCS, combining, shift): after deployment the engine reads the pass
config and the plans, never a member config.  Each key adds its noise and
decides from its own copy of the stream, so every run's result is the one
it gets alone.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import channel, l2sm, metrics, phy, scenario
from .config import SimConfig, config_fingerprint


# Config fields that act only after the SINR pass, all through the resource
# plan (capacity, phase count, MCS, noise bandwidth, combining, shift).
# Runs that differ only in these share a drop's deployment and geometry, and
# the runs of one schedule signature its interference (_drop_counts).
POST_PASS_FIELDS = ("mu", "tf_hz", "retx_scheme", "l2sm_delta_db")
_POST_PASS_DEFAULTS = {name: getattr(SimConfig(), name) for name in POST_PASS_FIELDS}


def pass_config(cfg: SimConfig) -> SimConfig:
    """cfg with every post-pass field at its default: runs whose pass
    configs and seeds are equal can share one SINR pass."""
    return replace(cfg, **_POST_PASS_DEFAULTS)


@dataclass(frozen=True, eq=False)
class SlotSchedule:
    """Per-cell grants over one transmission period.

    ``resource[p, v]`` is the linear grant index slot * ue_per_slot + chunk
    of vehicle v in phase p, or -1 without a grant.  ``occupant[p, c, r]``
    inverts it per cell (-1 when idle).  The same linear index in two cells
    means the same time/frequency resource, hence mutual interference.
    """

    assigned: np.ndarray      # bool per vehicle
    dropped: np.ndarray       # vehicle ids beyond capacity, ascending
    resource: np.ndarray      # (phases, vehicles) int
    occupant: np.ndarray      # (phases, cells, slots * ue_per_slot) int


def schedule_slots(dep: scenario.Deployment, plan: phy.ResourcePlan,
                   rng: np.random.Generator) -> SlotSchedule:
    """Random-order round-robin grants per cell, capped at ue_supported."""
    num_cells = len(dep.sites)
    num_vehicles = dep.num_vehicles
    num_phases = len(plan.phase_mcs)

    kept: list[np.ndarray] = []
    dropped_parts: list[np.ndarray] = []
    for c in range(num_cells):
        ids = np.flatnonzero(dep.serving == c)
        order = ids[rng.permutation(ids.size)]
        kept.append(order[: plan.ue_supported])
        dropped_parts.append(order[plan.ue_supported :])

    # ue_per_slot is 0 only when ue_supported is 0, and then nobody is kept
    max_assigned = max(k.size for k in kept)
    num_slots = -(-max_assigned // plan.ue_per_slot) if max_assigned else 0  # ceil
    grid = num_slots * plan.ue_per_slot

    resource = np.full((num_phases, num_vehicles), -1, dtype=np.int64)
    occupant = np.full((num_phases, num_cells, grid), -1, dtype=np.int64)
    for p in range(num_phases):
        for c in range(num_cells):
            members = kept[c]
            if p == 0:
                order = members
            else:
                # fresh permutation: retransmissions face independent interferers
                order = members[rng.permutation(members.size)]
            resource[p, order] = np.arange(order.size)
            occupant[p, c, : order.size] = order

    assigned = np.zeros(num_vehicles, dtype=bool)
    for k in kept:
        assigned[k] = True
    dropped = np.sort(np.concatenate(dropped_parts))

    return SlotSchedule(
        assigned=assigned,
        dropped=dropped,
        resource=resource,
        occupant=occupant,
    )


# Transmitters per pass of the link kernel.  Every per-link temporary of the
# link search and of the SINR pass spans one block's links, so a dense drop's
# peak memory stays near its kept arrays while numpy calls stay few.
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

    def blocks(self) -> list[tuple[slice, slice]]:
        """(transmitter slice, link slice) of each block of transmitters."""
        bounds = np.concatenate(([0], np.cumsum(self.counts)))
        return [(ts, slice(int(bounds[ts.start]), int(bounds[ts.stop])))
                for ts in _tx_blocks(self.tx_ids.size)]

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
    rx_parts, pl_parts = [np.empty(0, dtype=np.int32)], [np.empty(0)]
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
        rx_parts.append(cand[keep].astype(np.int32))
        pl_parts.append(channel.pathloss_db(
            np.sqrt(d2[keep]), cfg.ue_height_m, cfg.ue_height_m,
            cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m,
        ))
    return _LinkBatch(tx_ids=tx_ids, counts=counts, rx=np.concatenate(rx_parts),
                      pathloss_db=np.concatenate(pl_parts))


def _interferers(dep: scenario.Deployment, sched: SlotSchedule, tx_ids: np.ndarray,
                 p: int) -> np.ndarray:
    """(cells, transmitters): the vehicle of each other cell holding each
    transmitter's phase-p grant, -1 where none does."""
    occ = sched.occupant[p][:, sched.resource[p, tx_ids]]
    occ[dep.serving[tx_ids], np.arange(tx_ids.size)] = -1
    return occ


def _interfered(links: _LinkBatch, blocks: list[tuple[slice, slice]], occ: np.ndarray):
    """Per block with an interfered transmitter: its link slice, which of its
    links are interfered, and the interferer and link count of each
    interfered transmitter, from one cell's interferers occ."""
    hit = occ >= 0
    for ts, ls in blocks:
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
    """Pathloss from each interferer src to the next per_src receivers of dst."""
    x, y = dep.x_m, dep.y_m
    dist = np.hypot(np.repeat(x[src], per_src) - x[dst], np.repeat(y[src], per_src) - y[dst])
    return channel.pathloss_db(dist, cfg.ue_height_m, cfg.ue_height_m,
                               cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m)


def _interferer_pathloss(cfg: SimConfig, dep: scenario.Deployment, links: _LinkBatch,
                         interferers: np.ndarray) -> list[np.ndarray]:
    """Per cell, the pathloss of every link it interferes with under
    interferers, in link order: what _phase_powers computes block by block."""
    blocks = links.blocks()
    return [np.concatenate([np.empty(0)] + [
        _interferer_pathloss_block(cfg, dep, src, per_src, links.rx[ls][hit_links])
        for ls, hit_links, src, per_src in _interfered(links, blocks, occ)
    ]) for occ in interferers]


def _phase_powers(cfg: SimConfig, dep: scenario.Deployment, sched: SlotSchedule,
                  links: _LinkBatch, p: int, rng: np.random.Generator,
                  signal_mw: np.ndarray, interference_mw: np.ndarray,
                  interferer_pl: Iterator[np.ndarray] | None = None) -> None:
    """Fill signal_mw and interference_mw with the received signal and summed
    interference, in mW, of every link in phase p: its own transmitter, and
    the interferers holding its grant in other cells.  Noise is left out;
    each run adds its own.  interferer_pl, when given, yields the interferer
    pathloss of each cell in turn, as _interferer_pathloss lists it; else it
    is computed.

    Works through one block of transmitters at a time.  The interferer on a
    grant depends only on the transmitter, so it is read once per transmitter
    and repeated over that transmitter's links.  Shadowing is drawn pass by
    pass in whole-drop order (the signal of every link, then the interfered
    links of cell 0, of cell 1, ...), and consecutive ``rng.normal`` calls
    yield the values and end state of one call over their total size.
    """
    blocks = links.blocks()
    for _, ls in blocks:
        shadow = channel.shadowing_db(rng, cfg.shadowing_sigma_db, ls.stop - ls.start)
        signal_dbm = channel.rx_power_dbm(
            cfg.tx_power_dbm, cfg.tx_gain_db, cfg.rx_gain_db,
            links.pathloss_db[ls], shadow,
        )
        signal_mw[ls] = 10.0 ** (signal_dbm / 10.0)
    interference_mw[:] = 0.0
    for occ in _interferers(dep, sched, links.tx_ids, p):
        known = None if interferer_pl is None else next(interferer_pl)
        at = 0
        for ls, hit_links, src, per_src in _interfered(links, blocks, occ):
            if known is None:
                pl = _interferer_pathloss_block(cfg, dep, src, per_src, links.rx[ls][hit_links])
            else:
                pl = known[at:at + per_src.sum()]
                at += pl.size
            shadow_i = channel.shadowing_db(rng, cfg.shadowing_sigma_db, pl.size)
            power_dbm = channel.rx_power_dbm(
                cfg.tx_power_dbm, cfg.tx_gain_db, cfg.rx_gain_db, pl, shadow_i
            )
            interference_mw[ls][hit_links] += 10.0 ** (power_dbm / 10.0)


class _SharedGeometry:
    """The geometry that the schedule signatures of one drop share: the
    links of their transmitters and the pathloss of their phase-0
    interferers, computed once for the first schedule read.

    Every signature schedules from a copy of one post-deployment stream,
    whose per-cell phase-0 permutations come first.  A signature keeping k
    vehicles per cell keeps the first k of each cell's order, so the kept
    sets are nested, and a kept vehicle's phase-0 grant is its place in
    that order: its interferer in a cell is that cell's vehicle at the same
    place, whatever k, the phase count or ue_per_slot.  So the first
    schedule read must keep the most vehicles; every later one then reads
    its own rows.  Later phases permute the kept vehicles alone, so their
    interferers are not shared.
    """

    def __init__(self):
        self._union = None  # (links, phase-0 interferers, their pathloss)

    def read(self, cfg: SimConfig, dep: scenario.Deployment,
             sched: SlotSchedule) -> tuple[_LinkBatch, Iterator[np.ndarray]]:
        """The links of sched's transmitters, and their phase-0 interferer
        pathloss cell after cell, each cell's taken when asked for.  Raises
        RuntimeError if sched keeps a vehicle the first schedule did not, or
        gives one another phase-0 interferer."""
        tx_ids = np.flatnonzero(sched.assigned)
        interferers = _interferers(dep, sched, tx_ids, 0)
        if self._union is None:
            links = _build_links(dep, tx_ids, cfg)
            self._union = links, interferers, _interferer_pathloss(cfg, dep, links, interferers)
        links, union_interferers, union_pl = self._union
        keep = sched.assigned[links.tx_ids]
        if (np.count_nonzero(keep) != tx_ids.size
                or not np.array_equal(union_interferers[:, keep], interferers)):
            raise RuntimeError("a schedule signature of the drop is not nested in the "
                               "one that keeps the most vehicles")
        if keep.all():
            return links, iter(union_pl)
        return links.rows(keep), (
            pl[np.repeat(keep[hit], links.counts[hit])]
            for pl, hit in zip(union_pl, union_interferers >= 0)
        )


def _decision_key(plan: phy.ResourcePlan) -> tuple:
    """Every input a run's receptions read after the SINR pass."""
    return plan.noise_mw, plan.phase_mcs, plan.combining, plan.shift_db


# Links per pass of a decision: its SINR, lookup and draw temporaries stay
# this size however many links the pass has.
_DECIDE_CHUNK = 1 << 16


def _decide(plan: phy.ResourcePlan, table: l2sm.BlerTable, signal: np.ndarray,
            interference: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reception of every link and decision of plan, ``(decisions, links)``,
    from the pass's ``(phases, links)`` signal and interference plus the
    plan's noise.

    Works through one chunk of links at a time, decision after decision.
    Every step is elementwise or a mean over the phases of one link, so a
    chunk holds the bytes of the whole-array arithmetic, and consecutive
    ``rng.random`` calls yield the values of one call over their total size.
    """
    decisions = 1 if plan.combining else signal.shape[0]
    received = np.empty((decisions, signal.shape[1]), dtype=bool)
    for d in range(decisions):
        rows = slice(None) if plan.combining else slice(d, d + 1)
        for lo in range(0, signal.shape[1], _DECIDE_CHUNK):
            chunk = slice(lo, lo + _DECIDE_CHUNK)
            ratio = interference[rows, chunk] + plan.noise_mw
            np.divide(signal[rows, chunk], ratio, out=ratio)
            if plan.combining == "linear":
                ratio = ratio.mean(axis=0, keepdims=True)
            sinr_db = np.log10(ratio, out=ratio)
            sinr_db *= 10.0
            if plan.combining == "db":
                sinr_db = sinr_db.mean(axis=0, keepdims=True)
            received[d, chunk] = l2sm.reception_draw(
                l2sm.bler_lookup(table, plan.phase_mcs[d], sinr_db[0], plan.shift_db), rng)
    return received


def _evaluate_links(cfg: SimConfig, dep: scenario.Deployment, sched: SlotSchedule,
                    table: l2sm.BlerTable, rng: np.random.Generator,
                    plans: Sequence[phy.ResourcePlan],
                    shared: _SharedGeometry | None = None) -> tuple[_LinkBatch, dict]:
    """One SINR pass over the links of sched's transmitters, decided for
    every decision key of plans: the links, and the ``(decisions, links)``
    receptions of each key.

    cfg is the pass config; plans share its phase count, so they share the
    signal and interference of every link.  The links and the phase-0
    interferer pathloss come from shared when given, else from their own
    search.  Each distinct key decides from its own copy of the post-pass
    stream, as its runs would alone.
    """
    if shared is None:
        links, phase0_pl = _build_links(dep, np.flatnonzero(sched.assigned), cfg), None
    else:
        links, phase0_pl = shared.read(cfg, dep, sched)
    signal = np.empty((len(plans[0].phase_mcs), links.rx.size))
    interference = np.empty_like(signal)
    for p in range(signal.shape[0]):
        _phase_powers(cfg, dep, sched, links, p, rng, signal[p], interference[p],
                      phase0_pl if p == 0 else None)
    received = {}
    for plan in plans:
        key = _decision_key(plan)
        if key not in received:
            received[key] = _decide(plan, table, signal, interference, copy.deepcopy(rng))
    return links, received


@dataclass(frozen=True, eq=False)
class _DropCounts:
    dep: scenario.Deployment  # the deployment this drop simulated
    tx_ids: np.ndarray        # transmitters with at least one in-range receiver
    m: np.ndarray             # receivers per transmitter
    n: np.ndarray             # (decisions, transmitters) successes


def _drop_counts(cfg: SimConfig, plans: Sequence[phy.ResourcePlan],
                 seed) -> list[_DropCounts]:
    """One drop of every plan under the pass config cfg: one deployment, one
    geometry, and one schedule and SINR pass per schedule signature.

    The signature is (phase count, min(ue_supported, largest cell)): it
    fixes every vehicle kept by the schedule and every permutation drawn,
    while ue_per_slot changes only the width of the grant grid.  Each
    signature starts from a copy of the post-deployment stream, so every
    plan sees the stream of its run alone.  The signatures run largest cap
    first, so the first one's links serve them all (_SharedGeometry).
    """
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    table = l2sm.active_table(cfg)
    largest = int(np.bincount(dep.serving, minlength=len(dep.sites)).max())
    signatures: dict[tuple[int, int], list[int]] = {}
    for i, plan in enumerate(plans):
        key = (len(plan.phase_mcs), min(plan.ue_supported, largest))
        signatures.setdefault(key, []).append(i)

    shared = _SharedGeometry() if len(signatures) > 1 else None
    counts: list[_DropCounts | None] = [None] * len(plans)
    for _, idx in sorted(signatures.items(), key=lambda item: -item[0][1]):
        members = [plans[i] for i in idx]
        for i, dc in zip(idx, _signature_counts(cfg, dep, table, copy.deepcopy(rng),
                                                members, shared)):
            counts[i] = dc
    return counts


def _signature_counts(cfg: SimConfig, dep: scenario.Deployment, table: l2sm.BlerTable,
                      rng: np.random.Generator, plans: Sequence[phy.ResourcePlan],
                      shared: _SharedGeometry | None) -> list[_DropCounts]:
    """Counts of plans that share a schedule signature: one schedule and
    one SINR pass, whose arrays die before the next signature's, and one
    reduction per decision key."""
    sched = schedule_slots(dep, plans[0], rng)
    links, received = _evaluate_links(cfg, dep, sched, table, rng, plans, shared)
    heard = links.counts > 0
    m = links.counts[heard]
    start = np.cumsum(m) - m
    tx_ids = links.tx_ids[heard]
    n = {key: np.add.reduceat(r, start, axis=1, dtype=np.int64) for key, r in received.items()}
    return [_DropCounts(dep=dep, tx_ids=tx_ids, m=m, n=n[_decision_key(plan)])
            for plan in plans]


def _finalize(cfg: SimConfig, plan: phy.ResourcePlan, seed_label: int,
              counts: list[_DropCounts]) -> metrics.RunResult:
    m = np.concatenate([dc.m for dc in counts])
    n = np.concatenate([dc.n for dc in counts], axis=1)
    prrs = [metrics.prr_runtime(m, n_d) for n_d in n]
    runtime = sum(prrs) / len(prrs)
    phase1, phase2 = prrs if len(prrs) == 2 else (None, None)

    effective = metrics.effective_prr(plan.prr_max, runtime)

    return metrics.RunResult(
        key=metrics.RunKey.from_config(cfg),
        fingerprint=config_fingerprint(cfg),
        seed=int(seed_label),
        prr_runtime=runtime,
        prr_max=plan.prr_max,
        prr_effective=effective,
        samples=int(m.size),
        prr_phase1=phase1,
        prr_phase2=phase2,
    )


def _drop_seed(seed: int, drop_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(drop_index,))


def simulate_drops(members: Sequence[SimConfig], plans: Sequence[phy.ResourcePlan],
                   seed: int) -> list[list[_DropCounts]]:
    """Per-drop counts of cfg.drops independent drops under one seed, one
    list of drops per member.  Raises ValueError unless the members differ
    only in POST_PASS_FIELDS."""
    cfg, *others = (pass_config(m) for m in members)
    mixed = sorted(f.name for f in fields(SimConfig)
                   if any(getattr(o, f.name) != getattr(cfg, f.name) for o in others))
    if mixed:
        raise ValueError(f"runs of one SINR pass differ in {', '.join(mixed)}")
    drops = [_drop_counts(cfg, plans, _drop_seed(seed, i)) for i in range(cfg.drops)]
    return [list(per_member) for per_member in zip(*drops)]


def execute_run(members: Sequence[SimConfig], seed: int) -> list[metrics.RunResult]:
    """One RunResult per member: its drops' samples pooled under one seed.

    The members differ only in POST_PASS_FIELDS, and each RunResult equals
    that of its member run alone: every drop shares one deployment among
    the members, and one schedule, link search and interference pass among
    the members of each schedule signature.
    """
    plans = [phy.build_resource_plan(m) for m in members]
    return [_finalize(m, plan, seed, counts)
            for m, plan, counts in zip(members, plans, simulate_drops(members, plans, seed))]


def run_sample_table(counts: list[_DropCounts]) -> list[tuple[int, int, int, int, int]]:
    """Per-transmission rows (drop, tx_id, phase, receivers, received)."""
    rows = []
    for i, dc in enumerate(counts):
        for d in range(dc.n.shape[0]):
            for t, m, n in zip(dc.tx_ids, dc.m, dc.n[d]):
                rows.append((i, int(t), d + 1, int(m), int(n)))
    return rows
