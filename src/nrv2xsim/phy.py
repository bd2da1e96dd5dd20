"""The numerology and resource-capacity arithmetic of sidelink broadcast.

Everything here is exact integer/closed-form math: subcarrier spacing,
the PRB grid per (bandwidth, numerology), per-message PRB sizing, how
many transmitters fit into a slot and into a second, the overload
ceiling on the packet reception ratio, and the share of the period and
the MCS of each transmission phase.  The resource plan also holds the
noise power, whether the phases combine, the sensitivity shift and the
BLER table, so every input of the reception decisions comes from one plan.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import channel, l2sm, scenario

if TYPE_CHECKING:
    from .config import SimConfig

SUBCARRIERS_PER_PRB = 12
USABLE_SYMBOLS_PER_SLOT = 9
NPRB_PSCCH = 2  # control channel cost per message, fixed
MAX_NONEQUAL_SPLIT = 4  # largest n of the "nonequal:<n>" scheme

# PRB grid sizes by (bandwidth in MHz, numerology index).  60 kHz spacing
# does not fit a 5 MHz carrier, so (5, 2) is deliberately absent.
PRB_TABLE = {
    (5, 0): 25, (10, 0): 52, (15, 0): 79, (20, 0): 106,
    (5, 1): 11, (10, 1): 24, (15, 1): 38, (20, 1): 51,
    (10, 2): 11, (15, 2): 18, (20, 2): 24,
}
PRB_TABLE_BANDWIDTHS_MHZ = (5, 10, 15, 20)
PRB_TABLE_MUS = (0, 1, 2)


def scs_khz(mu: int) -> int:
    """Subcarrier spacing in kHz for numerology index mu; raises unless mu is 0..2."""
    if mu not in PRB_TABLE_MUS:
        raise ValueError(
            f"mu out of FR1 sidelink range: {reprlib.repr(mu)} (allowed: 0, 1, 2)")
    return 15 * 2**mu


def slots_per_second(mu: int) -> int:
    """Slots per second for numerology index mu (0..2): 2**mu slots per 1 ms subframe."""
    return 1000 * 2**mu


# Spectral efficiency in bits per resource element of CQI indices 1..15:
# the 4-bit CQI table with 256QAM entries (the variant used for sidelink
# MCS selection here).  Strictly increasing in the index.
CQI_TABLE = (
    0.1523, 0.3770, 0.8770, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223,
    3.9023, 4.5234, 5.1152, 5.5547, 6.2266, 6.9141, 7.4063,
)


def prb_count(bandwidth_mhz: float, mu: int) -> int:
    """PRB grid size for a carrier; raises for undefined (bandwidth, mu) pairs."""
    try:
        return PRB_TABLE[(bandwidth_mhz, mu)]
    except KeyError:
        raise ValueError(
            f"undefined PRB entry: bandwidth_mhz={reprlib.repr(bandwidth_mhz)}, "
            f"mu={reprlib.repr(mu)}"
        ) from None


def required_se(packet_size_bytes: float, ue_gnb: int, tf_hz: float,
                bandwidth_hz: float) -> float:
    """Spectral efficiency in bit/s/Hz needed to serve ue_gnb users at tf_hz."""
    return packet_size_bytes * 8.0 * ue_gnb * tf_hz / bandwidth_hz


def select_cqi(se: float) -> int:
    """Lowest CQI index whose efficiency covers se; clamps to the top index."""
    for index, efficiency in enumerate(CQI_TABLE, start=1):
        if efficiency >= se:
            return index
    return len(CQI_TABLE)


def nprb_pssch(packet_size_bytes: int, max_mcs_efficiency: float) -> int:
    """Data-channel PRBs needed to carry one packet at the peak efficiency."""
    bits = packet_size_bytes * 8
    return math.ceil(
        bits / (SUBCARRIERS_PER_PRB * USABLE_SYMBOLS_PER_SLOT * max_mcs_efficiency)
    )


def ue_per_slot(n_prb: int, nprb_total: int) -> int:
    """How many whole messages fit side by side in the PRB grid of one slot."""
    return n_prb // nprb_total


def ue_supported(per_slot: int, slots_per_second: int, tf_hz: float,
                 retx_factor: int) -> int:
    """Transmitters servable per second; retx_factor 2 halves it for blind repeats."""
    return math.floor(per_slot * slots_per_second / (tf_hz * retx_factor))


def prr_max(supported: int, *populations: int) -> float:
    """Overload ceiling on PRR: the share of the vehicles of one or more cells
    that get a grant when each cell grants at most ``supported``; 1 when no
    cell is overloaded or no cell has a vehicle."""
    total = sum(populations)
    return sum(min(supported, n) for n in populations) / total if total else 1.0


def phase_shares(scheme: str) -> tuple[float, ...]:
    """Fraction of the transmission period owned by each phase of a retx_scheme:
    "none", "equal" or "nonequal:<n>"; raises ValueError for any other spelling."""
    if scheme == "none":
        return (1.0,)
    if scheme == "equal":
        return (0.5, 0.5)
    if not scheme.startswith("nonequal:"):
        raise ValueError("retx_scheme must be 'none', 'equal' or 'nonequal:<n>': "
                         f"{reprlib.repr(scheme)}")
    try:
        n = int(scheme.split(":", 1)[1])
    except ValueError:
        raise ValueError(
            f"retx_scheme has malformed split index: {reprlib.repr(scheme)}") from None
    if not 1 <= n <= MAX_NONEQUAL_SPLIT:
        raise ValueError(f"retx_scheme split index must be 1..{MAX_NONEQUAL_SPLIT}: "
                         f"{reprlib.repr(scheme)}")
    # one spelling per scheme: every spelling is its own config, with its
    # own fingerprint and sweep row
    if scheme != f"nonequal:{n}":
        raise ValueError(
            f"retx_scheme must be spelled 'nonequal:{n}': {reprlib.repr(scheme)}")
    return ((50 + 10 * n) / 100.0, (50 - 10 * n) / 100.0)


@dataclass(frozen=True)
class ResourcePlan:
    """The capacity of one cell under its numerology, the transmission phases
    of each message, and every input the reception decisions read."""

    n_prb: int              # PRB grid size of the carrier
    nprb_pssch: int         # data PRBs per message
    nprb_total: int         # data plus NPRB_PSCCH control PRBs per message
    ue_per_slot: int
    ue_supported: int       # per second, after the retransmission factor
    cell_population: tuple[int, ...]  # vehicles per cell over its highway segment
    prr_max: float          # overload ceiling over those cells; 1 for an empty highway
    phase_mcs: tuple[int, ...]  # CQI index per transmission phase, for the largest cell
    noise_mw: float         # thermal noise over one message's data PRBs
    combining: bool         # equal: one decision on the phases' mean linear SINR
    shift_db: float         # sensitivity shift of the lookups; 0 with one phase
    table: l2sm.BlerTable   # the BLER curves of the lookups


def build_resource_plan(cfg: "SimConfig") -> ResourcePlan:
    n_prb = prb_count(cfg.bandwidth_mhz, cfg.mu)
    pssch = nprb_pssch(cfg.packet_size_bytes, cfg.max_mcs_efficiency)
    total = pssch + NPRB_PSCCH
    per_slot = ue_per_slot(n_prb, total)
    shares = phase_shares(cfg.retx_scheme)
    supported = ue_supported(per_slot, slots_per_second(cfg.mu), cfg.tf_hz, len(shares))
    population = scenario.cell_populations(cfg)
    # a shorter window needs a denser MCS for the same demand
    se_base = required_se(cfg.packet_size_bytes, max(population), cfg.tf_hz,
                          cfg.bandwidth_mhz * 1e6)
    noise_dbm = channel.noise_power_dbm(
        cfg.noise_density_dbm_hz, pssch * SUBCARRIERS_PER_PRB * (scs_khz(cfg.mu) * 1e3),
        cfg.noise_figure_db,
    )
    return ResourcePlan(
        n_prb=n_prb,
        nprb_pssch=pssch,
        nprb_total=total,
        ue_per_slot=per_slot,
        ue_supported=supported,
        cell_population=population,
        prr_max=prr_max(supported, *population),
        phase_mcs=tuple(select_cqi(se_base / share) for share in shares),
        noise_mw=float(10.0 ** (noise_dbm / 10.0)),
        combining=cfg.retx_scheme == "equal",
        shift_db=cfg.l2sm_delta_db if len(shares) == 2 else 0.0,
        table=l2sm.active_table(cfg),
    )
