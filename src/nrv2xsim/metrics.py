"""Packet reception ratio computation, cross-seed aggregation, CSV emission.

PRR is a macro average: each transmission contributes its own n/m ratio,
then ratios are averaged.  Transmissions with no in-range receiver are
excluded; if every sample is empty the runtime PRR is NaN (the
"no receiver" sentinel).  The effective PRR scales the runtime PRR by the
overload ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig

AXES = ("ivd_m", "mu", "tf_hz", "bandwidth_mhz", "retx", "delta_db")


@dataclass(frozen=True)
class RunKey:
    """Sweep-axis values identifying one point of a campaign."""

    ivd_m: float
    mu: int
    tf_hz: float
    bandwidth_mhz: float
    retx: str
    delta_db: float

    @classmethod
    def from_config(cls, cfg: "SimConfig") -> "RunKey":
        return cls(
            ivd_m=cfg.ivd_m,
            mu=cfg.mu,
            tf_hz=cfg.tf_hz,
            bandwidth_mhz=cfg.bandwidth_mhz,
            retx=cfg.retx_scheme,
            delta_db=cfg.l2sm_delta_db,
        )


@dataclass(frozen=True)
class RunResult:
    """PRR statistics of one (config, seed) run."""

    key: RunKey
    fingerprint: str
    seed: int
    prr_runtime: float
    prr_max: float
    prr_effective: float
    samples: int
    prr_phase1: float | None = None   # set when a run has two decisions (nonequal)
    prr_phase2: float | None = None


@dataclass(frozen=True)
class SweepRow:
    ivd_m: float
    mu: int
    tf_hz: float
    bandwidth_mhz: float
    retx: str
    delta_db: float
    seed_count: int
    prr_mean: float
    prr_ci95: float
    prr_max: float


def prr_runtime(m, n) -> float:
    """Mean of n/m over transmissions with m > 0; NaN if there are none.

    ``m[i]`` receivers were in range of transmission i and ``n[i]`` of them
    decoded it.
    """
    m, n = np.asarray(m), np.asarray(n)
    bad = np.flatnonzero((n < 0) | (n > m))
    if bad.size:
        i = bad[0]
        raise ValueError(f"need 0 <= n <= m, got n={n[i]}, m={m[i]} at {i}")
    heard = m > 0
    if not heard.any():
        return math.nan
    return float(np.mean(n[heard] / m[heard]))


def effective_prr(prr_max_value: float, prr_runtime_value: float) -> float:
    """Runtime PRR scaled by the overload ceiling; zero capacity forces 0."""
    if prr_max_value == 0:
        return 0.0
    return prr_max_value * prr_runtime_value


def aggregate(results: Iterable[RunResult]) -> list[SweepRow]:
    """Per sweep point: mean effective PRR across seeds with a normal 95% CI."""
    groups: dict[tuple, list[RunResult]] = {}
    for result in results:
        key = tuple(getattr(result.key, axis) for axis in AXES)
        groups.setdefault(key, []).append(result)
    rows = []
    for key in sorted(groups):
        # fixed member order makes the float statistics permutation-invariant
        members = sorted(groups[key], key=lambda r: (r.seed, r.prr_effective))
        fingerprints = {r.fingerprint for r in members}
        if len(fingerprints) > 1:
            raise ValueError(
                f"mixed config fingerprints within sweep point {key}: "
                f"{sorted(fingerprints)}"
            )
        values = np.array([r.prr_effective for r in members], dtype=float)
        n = values.size
        mean = float(np.mean(values))
        ci95 = 0.0 if n < 2 else float(1.96 * np.std(values, ddof=1) / math.sqrt(n))
        rk = members[0].key
        rows.append(
            SweepRow(
                ivd_m=rk.ivd_m,
                mu=rk.mu,
                tf_hz=rk.tf_hz,
                bandwidth_mhz=rk.bandwidth_mhz,
                retx=rk.retx,
                delta_db=rk.delta_db,
                seed_count=n,
                prr_mean=mean,
                prr_ci95=ci95,
                prr_max=members[0].prr_max,
            )
        )
    return rows


SWEEP_CSV_HEADER = "ivd_m,mu,tf_hz,bandwidth_mhz,retx,delta_db,seed_count,prr_mean,prr_ci95,prr_max"
RUN_CSV_HEADER = (
    "fingerprint,seed,ivd_m,mu,tf_hz,bandwidth_mhz,retx,delta_db,"
    "samples,prr_runtime,prr_phase1,prr_phase2,prr_max,prr_effective"
)


def _num(value) -> str:
    return format(value, "g")


def write_sweep_csv(rows: Iterable[SweepRow], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(SWEEP_CSV_HEADER + "\n")
        for r in rows:
            f.write(
                f"{_num(r.ivd_m)},{r.mu},{_num(r.tf_hz)},{_num(r.bandwidth_mhz)},"
                f"{r.retx},{_num(r.delta_db)},{r.seed_count},"
                f"{r.prr_mean:.6f},{r.prr_ci95:.6f},{r.prr_max:.6f}\n"
            )


def write_run_csv(result: RunResult, path) -> None:
    k = result.key
    p1 = "" if result.prr_phase1 is None else f"{result.prr_phase1:.6f}"
    p2 = "" if result.prr_phase2 is None else f"{result.prr_phase2:.6f}"
    with open(path, "w", newline="") as f:
        f.write(RUN_CSV_HEADER + "\n")
        f.write(
            f"{result.fingerprint},{result.seed},{_num(k.ivd_m)},{k.mu},"
            f"{_num(k.tf_hz)},{_num(k.bandwidth_mhz)},{k.retx},{_num(k.delta_db)},"
            f"{result.samples},{result.prr_runtime:.6f},{p1},{p2},"
            f"{result.prr_max:.6f},{result.prr_effective:.6f}\n"
        )
