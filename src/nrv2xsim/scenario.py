"""Highway deployment: vehicle placement, gNB sites, serving cells.

Vehicles sit on a regular grid with the configured inter-vehicle spacing;
each lane gets one uniform random phase offset so Monte Carlo drops differ
while the spacing stays exact.  The snapshot is static: speed plays no
role in any reception formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig


@dataclass(frozen=True)
class GnbSite:
    x_m: float
    y_m: float


@dataclass(frozen=True, eq=False)
class Deployment:
    """One drop's static topology, stored as arrays indexed by vehicle id."""

    x_m: np.ndarray
    y_m: np.ndarray
    lane: np.ndarray
    serving: np.ndarray     # site index per vehicle
    sites: tuple[GnbSite, ...]

    @property
    def num_vehicles(self) -> int:
        return self.x_m.size


def vehicles_per_lane(length_m: float, ivd_m: float) -> int:
    """Vehicles that fit in one lane at the given spacing."""
    return math.floor(length_m / ivd_m)


def ue_per_gnb_count(isd_m: float, ivd_m: float, num_lanes: int) -> int:
    """Per-cell vehicle population implied by the site and vehicle spacing."""
    return math.floor(isd_m / ivd_m) * num_lanes


def cell_populations(cfg: "SimConfig") -> tuple[int, ...]:
    """Vehicles per cell: the spacing formula over each cell's segment of the
    highway under nearest-site serving.  Site k serves [k, k + 1) * isd_m and
    the last site takes the remainder, up to highway_length_m."""
    num_lanes = 2 * cfg.lanes_per_direction
    lengths = [
        min(cfg.isd_m, max(cfg.highway_length_m - k * cfg.isd_m, 0.0))
        for k in range(cfg.num_gnb - 1)
    ]
    lengths.append(max(cfg.highway_length_m - (cfg.num_gnb - 1) * cfg.isd_m, 0.0))
    return tuple(ue_per_gnb_count(length, cfg.ivd_m, num_lanes) for length in lengths)


def generate_deployment(cfg: "SimConfig", rng: np.random.Generator) -> Deployment:
    num_lanes = 2 * cfg.lanes_per_direction
    per_lane = vehicles_per_lane(cfg.highway_length_m, cfg.ivd_m)
    offsets = rng.random(num_lanes) * cfg.ivd_m  # one phase per lane

    lane = np.repeat(np.arange(num_lanes), per_lane)
    slot = np.tile(np.arange(per_lane), num_lanes)
    x = offsets[lane] + slot * cfg.ivd_m
    y = (lane + 0.5) * cfg.lane_width_m

    median_y = cfg.lanes_per_direction * cfg.lane_width_m
    sites = tuple(
        GnbSite(x_m=(k + 0.5) * cfg.isd_m, y_m=median_y) for k in range(cfg.num_gnb)
    )
    site_x = np.array([s.x_m for s in sites])
    site_y = np.array([s.y_m for s in sites])
    d2 = (x[:, None] - site_x[None, :]) ** 2 + (y[:, None] - site_y[None, :]) ** 2
    serving = np.argmin(d2, axis=1)

    return Deployment(
        x_m=x,
        y_m=y,
        lane=lane,
        serving=serving,
        sites=sites,
    )


def write_deployment_csv(dep: Deployment, handle) -> None:
    # every site stands on the median: eastbound lanes lie below it
    median_y = dep.sites[0].y_m
    handle.write("id,lane,direction,x_m,y_m,serving_gnb\n")
    for i in range(dep.num_vehicles):
        direction = "east" if dep.y_m[i] < median_y else "west"
        handle.write(
            f"{i},{int(dep.lane[i])},{direction},"
            f"{dep.x_m[i]:.3f},{dep.y_m[i]:.3f},{int(dep.serving[i])}\n"
        )
