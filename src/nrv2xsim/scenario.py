"""Highway deployment: vehicle placement and serving cells.

Vehicles sit on a regular grid with the configured inter-vehicle spacing;
each lane gets one uniform random phase offset so Monte Carlo drops differ
while the spacing stays exact.  The snapshot is static: speed plays no
role in any reception formula.

Cell k is the highway segment [k, k + 1) * isd_m, the last cell taking the
rest of the highway.  With the gNBs on the median at (k + 1/2) * isd_m this
is nearest-site serving, and SimConfig keeps the last cell within isd_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig


@dataclass(frozen=True, eq=False)
class Deployment:
    """One drop's static topology, stored as arrays indexed by vehicle id."""

    x_m: np.ndarray
    y_m: np.ndarray
    lane: np.ndarray
    serving: np.ndarray     # cell index per vehicle
    num_cells: int

    @property
    def num_vehicles(self) -> int:
        return self.x_m.size


def vehicles_per_lane(length_m: float, ivd_m: float) -> int:
    """Vehicles that fit in one lane of length_m at the given spacing."""
    return math.floor(length_m / ivd_m)


def cell_populations(cfg: "SimConfig") -> tuple[int, ...]:
    """Vehicles per cell: the spacing formula over each cell's segment of the
    highway, [k, k + 1) * isd_m cut at highway_length_m."""
    num_lanes = 2 * cfg.lanes_per_direction
    return tuple(
        vehicles_per_lane(min(cfg.isd_m, max(cfg.highway_length_m - k * cfg.isd_m, 0.0)),
                          cfg.ivd_m) * num_lanes
        for k in range(cfg.num_gnb)
    )


def generate_deployment(cfg: "SimConfig", rng: np.random.Generator) -> Deployment:
    num_lanes = 2 * cfg.lanes_per_direction
    per_lane = vehicles_per_lane(cfg.highway_length_m, cfg.ivd_m)
    offsets = rng.random(num_lanes) * cfg.ivd_m  # one phase per lane

    lane = np.repeat(np.arange(num_lanes), per_lane)
    slot = np.tile(np.arange(per_lane), num_lanes)
    x = offsets[lane] + slot * cfg.ivd_m
    y = (lane + 0.5) * cfg.lane_width_m

    # x stays below num_gnb * isd_m: the min keeps a rounding at the far end
    # in the last cell
    serving = np.minimum(x // cfg.isd_m, cfg.num_gnb - 1).astype(np.intp)
    return Deployment(x_m=x, y_m=y, lane=lane, serving=serving, num_cells=cfg.num_gnb)


def write_deployment_csv(dep: Deployment, lanes_per_direction: int, handle) -> None:
    # lanes below the median are eastbound
    handle.write("id,lane,direction,x_m,y_m,serving_gnb\n")
    for i in range(dep.num_vehicles):
        direction = "east" if dep.lane[i] < lanes_per_direction else "west"
        handle.write(
            f"{i},{int(dep.lane[i])},{direction},"
            f"{dep.x_m[i]:.3f},{dep.y_m[i]:.3f},{int(dep.serving[i])}\n"
        )
