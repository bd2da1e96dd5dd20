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
POST_PASS_FIELDS share its deployment, and sharing then has two levels.
Runs of one schedule signature share the schedule, the links and every
link's signal and interference.  Runs of one decision key also share their
receptions.  The key is read from each run's resource plan (noise power,
phase MCS, combining, shift): after deployment the engine reads the pass
config and the plans, never a member config.  Each key adds its noise and
decides from its own copy of the stream, so every run's result is the one
it gets alone.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import channel, l2sm, metrics, phy, scenario
from .config import SimConfig, config_fingerprint


# Config fields that act only after the SINR pass, all through the resource
# plan (capacity, phase count, MCS, noise bandwidth, combining, shift).
# Runs that differ only in these share a drop's deployment, and the runs of
# one schedule signature share its links and interference (_drop_counts).
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
    rx: np.ndarray            # receiver per link
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


def _build_links(dep: scenario.Deployment, tx_ids: np.ndarray,
                 cfg: SimConfig) -> _LinkBatch:
    """Every receiver within comm_range_m of each transmitter, and its pathloss.

    generate_deployment numbers vehicles lane-major with x ascending inside
    each lane, so a transmitter's candidates in one lane are one contiguous id
    range, found by np.searchsorted on that lane's x.  Inside those windows
    the exact ``dx*dx + dy*dy <= range**2`` mask decides, as over every vehicle.
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
    rx_parts, pl_parts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
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
        rx_parts.append(cand[keep])
        pl_parts.append(channel.pathloss_db(
            np.sqrt(d2[keep]), cfg.ue_height_m, cfg.ue_height_m,
            cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m,
        ))
    return _LinkBatch(tx_ids=tx_ids, counts=counts, rx=np.concatenate(rx_parts),
                      pathloss_db=np.concatenate(pl_parts))


def _phase_powers(cfg: SimConfig, dep: scenario.Deployment, sched: SlotSchedule,
                  links: _LinkBatch, p: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Received signal and summed interference, in mW, of every link in
    phase p: its own transmitter, and the interferers holding its grant in
    other cells.  Noise is left out; each run adds its own.

    Works through one block of transmitters at a time.  The interferer on a
    grant depends only on the transmitter, so it is read once per transmitter
    and repeated over that transmitter's links.  Shadowing is drawn pass by
    pass in whole-drop order (the signal of every link, then the interfered
    links of cell 0, of cell 1, ...), and consecutive ``rng.normal`` calls
    yield the values and end state of one call over their total size.
    """
    x, y = dep.x_m, dep.y_m
    blocks = links.blocks()
    signal_mw = np.empty(links.rx.size)
    for _, ls in blocks:
        shadow = channel.shadowing_db(rng, cfg.shadowing_sigma_db, ls.stop - ls.start)
        signal_dbm = channel.rx_power_dbm(
            cfg.tx_power_dbm, cfg.tx_gain_db, cfg.rx_gain_db,
            links.pathloss_db[ls], shadow,
        )
        signal_mw[ls] = 10.0 ** (signal_dbm / 10.0)
    interference_mw = np.zeros(links.rx.size)
    grant = sched.resource[p, links.tx_ids]
    tx_cell = dep.serving[links.tx_ids]
    for c in range(len(dep.sites)):
        occ = sched.occupant[p, c, grant]           # interferer per transmitter
        hit = (occ >= 0) & (tx_cell != c)
        for ts, ls in blocks:
            block_hit = hit[ts]
            if not block_hit.any():
                continue
            # under load every transmitter of a block is usually interfered,
            # and its links are then one slice
            hit_links = (slice(None) if block_hit.all()
                         else np.flatnonzero(np.repeat(block_hit, links.counts[ts])))
            src = occ[ts][block_hit]
            per_src = links.counts[ts][block_hit]
            dst = links.rx[ls][hit_links]
            dist = np.hypot(np.repeat(x[src], per_src) - x[dst],
                            np.repeat(y[src], per_src) - y[dst])
            pl = channel.pathloss_db(
                dist, cfg.ue_height_m, cfg.ue_height_m,
                cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m,
            )
            shadow_i = channel.shadowing_db(rng, cfg.shadowing_sigma_db, dst.size)
            power_dbm = channel.rx_power_dbm(
                cfg.tx_power_dbm, cfg.tx_gain_db, cfg.rx_gain_db, pl, shadow_i
            )
            interference_mw[ls][hit_links] += 10.0 ** (power_dbm / 10.0)
    return signal_mw, interference_mw


def _decision_key(plan: phy.ResourcePlan) -> tuple:
    """Every input a run's receptions read after the SINR pass."""
    return plan.noise_mw, plan.phase_mcs, plan.combining, plan.shift_db


def _decide(plan: phy.ResourcePlan, table: l2sm.BlerTable, ratio: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Reception of every link and decision of plan, ``(decisions, links)``,
    from the ``(phases, links)`` linear SINR, which it overwrites: the dB
    are taken in the ratio's own memory."""
    if plan.combining == "linear":
        ratio = ratio.mean(axis=0, keepdims=True)
    sinr_db = np.log10(ratio, out=ratio)
    sinr_db *= 10.0
    if plan.combining == "db":
        sinr_db = sinr_db.mean(axis=0, keepdims=True)
    return np.stack([
        l2sm.reception_draw(l2sm.bler_lookup(table, plan.phase_mcs[d], s, plan.shift_db), rng)
        for d, s in enumerate(sinr_db)
    ])


def _evaluate_links(cfg: SimConfig, dep: scenario.Deployment, sched: SlotSchedule,
                    table: l2sm.BlerTable, tx_ids: np.ndarray, rng: np.random.Generator,
                    plans: Sequence[phy.ResourcePlan]) -> tuple[_LinkBatch, dict]:
    """One SINR pass over the links of ``tx_ids`` under sched, decided for
    every decision key of plans: the links, and the ``(decisions, links)``
    receptions of each key.

    cfg is the pass config; plans share its phase count, so they share the
    signal and interference of every link.  Each distinct key forms its own
    linear SINR, the last one in place, and decides from its own copy of
    the post-pass stream, as its runs would alone.
    """
    links = _build_links(dep, tx_ids, cfg)
    signal = np.empty((len(plans[0].phase_mcs), links.rx.size))
    interference = np.empty_like(signal)
    for p in range(signal.shape[0]):
        signal[p], interference[p] = _phase_powers(cfg, dep, sched, links, p, rng)

    first = {}
    for plan in plans:
        first.setdefault(_decision_key(plan), plan)
    received = {}
    for n, (key, plan) in enumerate(first.items(), start=1):
        if n < len(first):
            ratio = interference + plan.noise_mw
            np.divide(signal, ratio, out=ratio)
        else:  # the last key divides in place
            interference += plan.noise_mw
            signal /= interference
            ratio = signal
            del interference
        received[key] = _decide(plan, table, ratio, copy.deepcopy(rng))
        del ratio  # before the next key allocates its own
    return links, received


@dataclass(frozen=True, eq=False)
class _DropCounts:
    dep: scenario.Deployment  # the deployment this drop simulated
    tx_ids: np.ndarray        # transmitters with at least one in-range receiver
    m: np.ndarray             # receivers per transmitter
    n: np.ndarray             # (decisions, transmitters) successes


def _drop_counts(cfg: SimConfig, plans: Sequence[phy.ResourcePlan],
                 seed) -> list[_DropCounts]:
    """One drop of every plan under the pass config cfg: one deployment, and
    one schedule and SINR pass per schedule signature.

    The signature is (phase count, min(ue_supported, largest cell)): it
    fixes every vehicle kept by the schedule and every permutation drawn,
    while ue_per_slot changes only the width of the grant grid.  Each
    signature starts from a copy of the post-deployment stream, so every
    plan sees the stream of its run alone.
    """
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    table = l2sm.active_table(cfg)
    largest = int(np.bincount(dep.serving, minlength=len(dep.sites)).max())
    signatures: dict[tuple[int, int], list[int]] = {}
    for i, plan in enumerate(plans):
        key = (len(plan.phase_mcs), min(plan.ue_supported, largest))
        signatures.setdefault(key, []).append(i)

    counts: list[_DropCounts | None] = [None] * len(plans)
    for idx in signatures.values():
        shared = _signature_counts(cfg, dep, table, copy.deepcopy(rng), [plans[i] for i in idx])
        for i, dc in zip(idx, shared):
            counts[i] = dc
    return counts


def _signature_counts(cfg: SimConfig, dep: scenario.Deployment, table: l2sm.BlerTable,
                      rng: np.random.Generator,
                      plans: Sequence[phy.ResourcePlan]) -> list[_DropCounts]:
    """Counts of plans that share a schedule signature: one schedule and
    one SINR pass, whose arrays die before the next signature's, and one
    reduction per decision key."""
    sched = schedule_slots(dep, plans[0], rng)
    links, received = _evaluate_links(cfg, dep, sched, table, np.flatnonzero(sched.assigned),
                                      rng, plans)
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
