"""Per-drop simulation: scheduling, cross-cell interference, SINR, reception.

In-cell transmissions are orthogonal (the gNB grants each transmitter its
own slot/chunk pair); interference comes only from vehicles in other cells
holding the same pair, one potential interferer per foreign cell.  Blind
retransmission schemes evaluate two phases per transmitter: the equal
scheme averages the two SINRs into a single reception decision, the
nonequal scheme keeps per-phase decisions and averages the phase PRRs.

Capacity dropping is per cell: the first ``ue_supported`` vehicles of a
random order transmit, the rest keep listening but lose their transmit
opportunity.  The overload penalty enters the effective PRR only through
its ceiling, so dropped vehicles contribute no runtime samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, l2sm, metrics, phy, scenario
from .config import SimConfig, config_fingerprint, parse_retx_scheme


@dataclass(frozen=True)
class RetxScheme:
    kind: str = "none"        # "none" | "equal" | "nonequal"
    n: int = 0                # nonequal window index, 1..4
    delta_db: float = 0.0     # sensitivity shift used by retransmission lookups

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "RetxScheme":
        kind, n = parse_retx_scheme(cfg.retx_scheme)
        delta = cfg.l2sm_delta_db if kind != "none" else 0.0
        return cls(kind=kind, n=n, delta_db=delta)

    @property
    def phase_shares(self) -> tuple[float, ...]:
        """Fraction of the transmission period owned by each phase."""
        if self.kind == "none":
            return (1.0,)
        if self.kind == "equal":
            return (0.5, 0.5)
        return ((50 + 10 * self.n) / 100.0, (50 - 10 * self.n) / 100.0)


@dataclass(frozen=True, eq=False)
class SlotSchedule:
    """Per-cell grants over one transmission period.

    ``resource[p, v]`` is the linear grant index slot * ue_per_slot + chunk
    of vehicle v in phase p, or -1 without a grant.  ``occupant[p, c, r]``
    inverts it per cell (-1 when idle).  The same linear index in two cells
    means the same time/frequency resource, hence mutual interference.
    """

    ue_per_slot: int
    num_slots: int
    num_phases: int
    assigned: np.ndarray      # bool per vehicle
    dropped: np.ndarray       # vehicle ids beyond capacity, ascending
    resource: np.ndarray      # (phases, vehicles) int
    occupant: np.ndarray      # (phases, cells, num_slots * ue_per_slot) int


def schedule_slots(dep: scenario.Deployment, plan: phy.ResourcePlan,
                   retx: RetxScheme, rng: np.random.Generator) -> SlotSchedule:
    """Random-order round-robin grants per cell, capped at ue_supported."""
    num_cells = len(dep.sites)
    num_vehicles = dep.num_vehicles
    num_phases = len(retx.phase_shares)
    cap = plan.ue_supported if plan.ue_per_slot > 0 else 0

    kept: list[np.ndarray] = []
    dropped_parts: list[np.ndarray] = []
    for c in range(num_cells):
        ids = np.flatnonzero(dep.serving == c)
        order = ids[rng.permutation(ids.size)]
        kept.append(order[:cap])
        dropped_parts.append(order[cap:])

    max_assigned = max((k.size for k in kept), default=0)
    if plan.ue_per_slot > 0 and max_assigned > 0:
        num_slots = -(-max_assigned // plan.ue_per_slot)  # ceil
    else:
        num_slots = 0
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
    dropped = np.sort(np.concatenate(dropped_parts)) if dropped_parts else \
        np.empty(0, dtype=np.int64)

    return SlotSchedule(
        ue_per_slot=plan.ue_per_slot,
        num_slots=num_slots,
        num_phases=num_phases,
        assigned=assigned,
        dropped=dropped,
        resource=resource,
        occupant=occupant,
    )


def sinr_db(signal_mw, interference_mw, noise_mw):
    """Wideband SINR in dB from received powers in mW (scalars or arrays)."""
    return 10.0 * np.log10(signal_mw / (interference_mw + noise_mw))


@dataclass(frozen=True, eq=False)
class _LinkBatch:
    tx: np.ndarray            # vehicle id per link, tx-major
    rx: np.ndarray
    pathloss_db: np.ndarray


def _build_links(dep: scenario.Deployment, tx_ids: np.ndarray, cfg: SimConfig,
                 block_size: int = 512) -> _LinkBatch:
    x, y = dep.x_m, dep.y_m
    range_sq = float(cfg.comm_range_m) ** 2
    tx_parts, rx_parts, dist_parts = [], [], []
    for lo in range(0, tx_ids.size, block_size):
        block = tx_ids[lo : lo + block_size]
        dx = x[block, None] - x[None, :]
        dy = y[block, None] - y[None, :]
        d2 = dx * dx + dy * dy
        mask = d2 <= range_sq
        mask[np.arange(block.size), block] = False
        rows, cols = np.nonzero(mask)
        tx_parts.append(block[rows])
        rx_parts.append(cols.astype(np.int64))
        dist_parts.append(np.sqrt(d2[rows, cols]))
    if tx_parts:
        tx = np.concatenate(tx_parts)
        rx = np.concatenate(rx_parts)
        dist = np.concatenate(dist_parts)
    else:
        tx = rx = np.empty(0, dtype=np.int64)
        dist = np.empty(0)
    pl = channel.pathloss_db(
        dist, cfg.ue_height_m, cfg.ue_height_m, cfg.carrier_freq_ghz,
        cfg.min_pathloss_distance_m,
    )
    return _LinkBatch(tx=tx, rx=rx, pathloss_db=np.asarray(pl, dtype=float))


@dataclass(frozen=True, eq=False)
class _Evaluation:
    links: _LinkBatch
    sinr_db: np.ndarray       # (phases, links)
    bler: np.ndarray          # (decisions, links)
    received: np.ndarray      # (decisions, links)
    phase_mcs: tuple[int, ...]


def phase_mcs_indices(cfg: SimConfig, ue_gnb: int) -> tuple[int, ...]:
    """MCS per phase: the base spectral-efficiency demand scaled by the
    phase's share of the period (a shorter window needs a denser MCS)."""
    retx = RetxScheme.from_config(cfg)
    se_base = phy.required_se(
        cfg.packet_size_bytes, ue_gnb, cfg.tf_hz, cfg.bandwidth_mhz * 1e6
    )
    return tuple(
        phy.select_cqi(se_base / share).cqi_index for share in retx.phase_shares
    )


def _evaluate_links(cfg: SimConfig, dep: scenario.Deployment,
                    plan: phy.ResourcePlan, sched: SlotSchedule,
                    table: l2sm.BlerTable, tx_ids: np.ndarray,
                    rng: np.random.Generator) -> _Evaluation:
    retx = RetxScheme.from_config(cfg)
    num_phases = len(retx.phase_shares)
    mcs = phase_mcs_indices(cfg, plan.ue_per_gnb)

    num = phy.Numerology.from_mu(cfg.mu)
    noise_dbm = channel.noise_power_dbm(
        cfg.noise_density_dbm_hz, plan.nprb_pssch, num.scs_khz * 1e3,
        cfg.noise_figure_db,
    )
    noise_mw = 10.0 ** (noise_dbm / 10.0)

    links = _build_links(dep, tx_ids, cfg)
    n_links = links.tx.size
    x, y = dep.x_m, dep.y_m
    tx_cell = dep.serving[links.tx] if n_links else np.empty(0, dtype=np.int64)

    sinr = np.empty((num_phases, n_links))
    for p in range(num_phases):
        shadow = channel.shadowing_db(rng, cfg.shadowing_sigma_db, n_links)
        signal_dbm = channel.rx_power_dbm(
            cfg.tx_power_dbm, cfg.tx_gain_db, cfg.rx_gain_db,
            links.pathloss_db, shadow,
        )
        signal_mw = 10.0 ** (signal_dbm / 10.0)
        interference_mw = np.zeros(n_links)
        if n_links and sched.occupant.shape[2] > 0:
            grant = sched.resource[p, links.tx]
            for c in range(len(dep.sites)):
                occ = sched.occupant[p, c, grant]
                hit = np.flatnonzero((occ >= 0) & (tx_cell != c))
                if hit.size == 0:
                    continue
                src = occ[hit]
                dst = links.rx[hit]
                dist = np.hypot(x[src] - x[dst], y[src] - y[dst])
                pl = channel.pathloss_db(
                    dist, cfg.ue_height_m, cfg.ue_height_m,
                    cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m,
                )
                shadow_i = channel.shadowing_db(rng, cfg.shadowing_sigma_db, hit.size)
                power_dbm = channel.rx_power_dbm(
                    cfg.tx_power_dbm, cfg.tx_gain_db, cfg.rx_gain_db, pl, shadow_i
                )
                interference_mw[hit] += 10.0 ** (power_dbm / 10.0)
        sinr[p] = sinr_db(signal_mw, interference_mw, noise_mw)

    if retx.kind == "none":
        bler = l2sm.bler_lookup(table, mcs[0], sinr[0], 0.0)[None, :]
        received = l2sm.reception_draw(bler[0], rng)[None, :]
    elif retx.kind == "equal":
        if cfg.retx_sinr_combining == "db":
            combined = sinr.mean(axis=0)
        else:
            combined = 10.0 * np.log10(np.mean(10.0 ** (sinr / 10.0), axis=0))
        bler = l2sm.bler_lookup(table, mcs[0], combined, retx.delta_db)[None, :]
        received = l2sm.reception_draw(bler[0], rng)[None, :]
    else:
        bler = np.stack([
            l2sm.bler_lookup(table, mcs[p], sinr[p], retx.delta_db)
            for p in range(num_phases)
        ])
        received = np.stack([l2sm.reception_draw(bler[p], rng) for p in range(num_phases)])

    return _Evaluation(
        links=links, sinr_db=sinr, bler=bler, received=received, phase_mcs=mcs
    )


@dataclass(frozen=True, eq=False)
class _DropCounts:
    tx_ids: np.ndarray        # transmitters with at least one in-range receiver
    m: np.ndarray             # receivers per transmitter
    n: np.ndarray             # (decisions, transmitters) successes


def _drop_counts(cfg: SimConfig, seed) -> _DropCounts:
    rng = np.random.default_rng(seed)
    dep = scenario.generate_deployment(cfg, rng)
    plan = phy.build_resource_plan(cfg)
    retx = RetxScheme.from_config(cfg)
    sched = schedule_slots(dep, plan, retx, rng)
    table = l2sm.active_table(cfg)
    tx_ids = np.flatnonzero(sched.assigned)
    ev = _evaluate_links(cfg, dep, plan, sched, table, tx_ids, rng)

    link_tx = ev.links.tx
    if link_tx.size == 0:
        decisions = ev.received.shape[0]
        return _DropCounts(
            tx_ids=np.empty(0, dtype=np.int64),
            m=np.empty(0, dtype=np.int64),
            n=np.empty((decisions, 0), dtype=np.int64),
        )
    uniq, start = np.unique(link_tx, return_index=True)
    bounds = np.append(start, link_tx.size)
    m = np.diff(bounds)
    n = np.stack([
        np.add.reduceat(ev.received[d].astype(np.int64), start)
        for d in range(ev.received.shape[0])
    ])
    return _DropCounts(tx_ids=uniq, m=m, n=n)


def _finalize(cfg: SimConfig, seed_label: int,
              counts: list[_DropCounts]) -> metrics.RunResult:
    retx = RetxScheme.from_config(cfg)
    decisions = 2 if retx.kind == "nonequal" else 1

    def samples(decision: int) -> list[metrics.PrrSample]:
        out = []
        for dc in counts:
            out.extend(
                metrics.PrrSample(int(t), int(m), int(n))
                for t, m, n in zip(dc.tx_ids, dc.m, dc.n[decision])
            )
        return out

    if decisions == 2:
        phase1 = metrics.prr_runtime(samples(0))
        phase2 = metrics.prr_runtime(samples(1))
        runtime = metrics.combine_nonequal(phase1, phase2)
    else:
        phase1 = phase2 = None
        runtime = metrics.prr_runtime(samples(0))

    ceiling = phy.build_resource_plan(cfg).prr_max
    effective = metrics.effective_prr(ceiling, runtime)
    sample_count = sum(int(dc.tx_ids.size) for dc in counts)

    return metrics.RunResult(
        key=metrics.RunKey.from_config(cfg),
        fingerprint=config_fingerprint(cfg),
        seed=int(seed_label),
        prr_runtime=runtime,
        prr_max=ceiling,
        prr_effective=effective,
        samples=sample_count,
        prr_phase1=phase1,
        prr_phase2=phase2,
    )


def _drop_seed(seed: int, drop_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(drop_index,))


def simulate_drops(cfg: SimConfig, seed: int) -> list[_DropCounts]:
    """Per-drop counts of cfg.drops independent drops under one seed."""
    return [_drop_counts(cfg, _drop_seed(seed, i)) for i in range(cfg.drops)]


def execute_run(cfg: SimConfig, seed: int) -> metrics.RunResult:
    """Run cfg.drops independent drops under one seed and pool their samples."""
    return _finalize(cfg, seed, simulate_drops(cfg, seed))


def run_sample_table(counts: list[_DropCounts]) -> list[tuple[int, int, int, int, int]]:
    """Per-transmission rows (drop, tx_id, phase, receivers, received)."""
    rows = []
    for i, dc in enumerate(counts):
        for d in range(dc.n.shape[0]):
            for t, m, n in zip(dc.tx_ids, dc.m, dc.n[d]):
                rows.append((i, int(t), d + 1, int(m), int(n)))
    return rows
