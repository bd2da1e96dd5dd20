"""Whole-array reference run: the executable spec of the engine.

ref_run(cfg) simulates one run alone, in the stream order the engine
documents, with every per-link array spanning the whole drop: no tiling,
no work shared between runs, no lookup index.  engine.execute_run must
return, for every member of a group, exactly what ref_run returns for
that member (tests/test_reference.py).

It reads the program only through the deployment, the pathloss, the
resource plan, the table's curves, the fingerprint and the metrics, each
with unit tests of its own.  It imports nothing from the engine.
"""

import math

import numpy as np

from nrv2xsim import metrics
from nrv2xsim.channel import pathloss_db
from nrv2xsim.config import config_fingerprint
from nrv2xsim.l2sm import active_table
from nrv2xsim.phy import build_resource_plan
from nrv2xsim.scenario import generate_deployment


def _pathloss(cfg, distance_m):
    return pathloss_db(distance_m, cfg.ue_height_m, cfg.ue_height_m,
                       cfg.carrier_freq_ghz, cfg.min_pathloss_distance_m)


def _rx_power_mw(cfg, pathloss, rng):
    """Received power of each link under a fresh shadowing draw."""
    eirp = cfg.tx_power_dbm + cfg.tx_gain_db + cfg.rx_gain_db
    shadow = rng.normal(0.0, cfg.shadowing_sigma_db, pathloss.size)
    # 10 ** (dBm / 10) as exp, the arithmetic of channel.rx_power_mw
    return np.exp((eirp - pathloss - shadow) * (math.log(10.0) / 10.0))


def schedule(dep, plan, rng):
    """Per phase, each kept vehicle's grant and each (cell, grant)'s vehicle.

    Each cell's vehicles in a random order, cell 0 first; the first
    ue_supported of each order are kept and granted in that order in
    phase 0, and in a fresh permutation per cell in every later phase.
    """
    cells = range(dep.num_cells)
    orders = []
    for c in cells:
        ids = np.flatnonzero(dep.serving == c)
        orders.append(ids[rng.permutation(ids.size)])
    kept = [order[: plan.ue_supported] for order in orders]
    grants, occupants = [], []
    for p in range(len(plan.phase_mcs)):
        grant, occupant = {}, {}
        for c, members in zip(cells, kept):
            order = members if p == 0 else members[rng.permutation(members.size)]
            for r, v in enumerate(order.tolist()):
                grant[v] = r
                occupant[c, r] = v
        grants.append(grant)
        occupants.append(occupant)
    return grants, occupants


def links(cfg, dep, tx_ids):
    """(transmitter index, receiver, pathloss) of every link: each vehicle
    within comm_range_m of a transmitter, tx-major with receivers ascending."""
    x, y = dep.x_m, dep.y_m
    dx = x[tx_ids, None] - x[None, :]
    dy = y[tx_ids, None] - y[None, :]
    d2 = dx * dx + dy * dy
    near = (d2 <= float(cfg.comm_range_m) ** 2) & (tx_ids[:, None] != np.arange(x.size))
    row, rx = np.nonzero(near)
    return row, rx, _pathloss(cfg, np.sqrt(d2[near]))


def phase_sinr(cfg, dep, grant, occupant, tx_ids, row, rx, pathloss, noise_mw, rng):
    """Linear SINR of each link in one phase: every link's signal is drawn
    first, then the links interfered from cell 0, from cell 1, ...; a
    transmitter's interferer in a cell is the vehicle there holding its
    grant, none in its own cell."""
    signal = _rx_power_mw(cfg, pathloss, rng)
    interference = np.zeros(rx.size)
    for c in range(dep.num_cells):
        holder = np.array([-1 if dep.serving[t] == c else occupant.get((c, grant[t]), -1)
                           for t in tx_ids.tolist()], dtype=np.int64)
        src = holder[row]
        hit = np.flatnonzero(src >= 0)
        src, dst = src[hit], rx[hit]
        dx, dy = dep.x_m[src] - dep.x_m[dst], dep.y_m[src] - dep.y_m[dst]
        distance = np.sqrt(dx * dx + dy * dy)
        interference[hit] += _rx_power_mw(cfg, _pathloss(cfg, distance), rng)
    return signal / (interference + noise_mw)


def decide(plan, curves, sinr, rng):
    """(decisions, links) receptions from the (phases, links) linear SINR.

    The equal scheme makes one decision from the mean of its phases' linear
    SINR; the others decide each phase.  Decision d draws one uniform per
    link and receives where it is at least the BLER of its MCS at its SINR
    in dB plus the shift.
    """
    sinr_db = 10.0 * np.log10(sinr.mean(axis=0, keepdims=True) if plan.combining else sinr)
    received = []
    for d, row in enumerate(sinr_db):
        uniforms = rng.random(row.size)
        bler = np.interp(row + plan.shift_db, *curves[plan.phase_mcs[d]])
        received.append(uniforms >= bler)
    return np.array(received)


def ref_drop(cfg, plan, curves, drop):
    """(transmitters heard, their receiver counts, (decisions, transmitters)
    successes) of one drop."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(drop,)))
    dep = generate_deployment(cfg, rng)
    grants, occupants = schedule(dep, plan, rng)
    tx_ids = np.array(sorted(grants[0]), dtype=np.int64)
    row, rx, pathloss = links(cfg, dep, tx_ids)
    sinr = np.array([phase_sinr(cfg, dep, grant, occupant, tx_ids, row, rx, pathloss,
                                plan.noise_mw, rng)
                     for grant, occupant in zip(grants, occupants)])
    received = decide(plan, curves, sinr, rng)
    m = np.bincount(row, minlength=tx_ids.size)
    n = np.array([np.bincount(row[r], minlength=tx_ids.size) for r in received])
    heard = m > 0
    return tx_ids[heard], m[heard], n[:, heard]


def ref_run(cfg):
    """cfg's RunResult and its run_sample_table rows, simulated alone."""
    plan = build_resource_plan(cfg)
    curves = active_table(cfg).curves
    drops = [ref_drop(cfg, plan, curves, i) for i in range(cfg.drops)]
    rows = [(i, int(t), d + 1, int(m_t), int(n_t))
            for i, (tx_ids, m, n) in enumerate(drops)
            for d in range(len(n)) for t, m_t, n_t in zip(tx_ids, m, n[d])]
    m = np.concatenate([m for _, m, _ in drops])
    n = np.concatenate([n for _, _, n in drops], axis=1)
    prrs = [metrics.prr_runtime(m, n_d) for n_d in n]
    runtime = sum(prrs) / len(prrs)
    phase1, phase2 = prrs if len(prrs) == 2 else (None, None)
    result = metrics.RunResult(
        key=metrics.RunKey.from_config(cfg),
        fingerprint=config_fingerprint(cfg),
        seed=cfg.seed,
        prr_runtime=runtime,
        prr_max=plan.prr_max,
        prr_effective=metrics.effective_prr(plan.prr_max, runtime),
        samples=int(m.size),
        prr_phase1=phase1,
        prr_phase2=phase2,
    )
    return result, rows
