import io
from dataclasses import replace

import numpy as np
import pytest

from nrv2xsim import engine, phy, scenario
from nrv2xsim.config import SimConfig


def test_vehicles_per_lane():
    assert scenario.vehicles_per_lane(5196, 20) == 259
    assert scenario.vehicles_per_lane(5196, 5196) == 1
    assert scenario.vehicles_per_lane(5196, 10) == 519


def test_ue_per_gnb_formula():
    # a cell holds the lane formula over its segment, times the six lanes
    assert scenario.cell_populations(SimConfig(ivd_m=20.0)) == (86 * 6,) * 3
    assert scenario.cell_populations(SimConfig(ivd_m=10.0)) == (173 * 6,) * 3


def _deployment(seed=0, **kwargs):
    cfg = SimConfig(**kwargs)
    return cfg, scenario.generate_deployment(cfg, np.random.default_rng(seed))


def test_deployment_counts():
    cfg, dep = _deployment(ivd_m=20.0)
    assert dep.num_vehicles == 259 * 6
    assert max(phy.build_resource_plan(cfg).cell_population) == 516
    cfg, dep = _deployment(ivd_m=10.0)
    assert max(phy.build_resource_plan(cfg).cell_population) == 1038


def test_deployment_degenerate_density():
    _, dep = _deployment(ivd_m=5196.0)
    assert dep.num_vehicles == 6


def test_deployment_grid_spacing_and_lanes():
    cfg, dep = _deployment(seed=3, ivd_m=40.0)
    for lane in range(6):
        xs = np.sort(dep.x_m[dep.lane == lane])
        assert np.allclose(np.diff(xs), cfg.ivd_m)
        assert xs.min() >= 0
        assert xs.max() <= cfg.highway_length_m
        ys = dep.y_m[dep.lane == lane]
        assert np.all(ys == (lane + 0.5) * cfg.lane_width_m)
    buf = io.StringIO()
    scenario.write_deployment_csv(dep, cfg.lanes_per_direction, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert rows[0][2] == "east" and rows[-1][2] == "west"
    assert [r[2] for r in rows] == [
        "east" if lane < cfg.lanes_per_direction else "west" for lane in dep.lane
    ]


SHAPES = {
    "default": {},
    "2000m": {"highway_length_m": 2000.0},
    "2cells": {"highway_length_m": 3464.0, "num_gnb": 2},
    "9cells_1000m": {"highway_length_m": 9000.0, "num_gnb": 9, "isd_m": 1000.0},
    "1lane": {"lanes_per_direction": 1},
    "ivd3": {"ivd_m": 3.0},
}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_every_vehicle_served_once(shape):
    cfg, dep = _deployment(seed=5, **shape)
    assert dep.num_cells == cfg.num_gnb
    counts = np.bincount(dep.serving, minlength=cfg.num_gnb)
    assert counts.size == cfg.num_gnb
    assert counts.sum() == dep.num_vehicles
    # the serving cell is the nearest of the sites at (k + 1/2) * isd_m on the
    # median
    site_x = (np.arange(cfg.num_gnb) + 0.5) * cfg.isd_m
    site_y = cfg.lanes_per_direction * cfg.lane_width_m
    d2 = (dep.x_m[:, None] - site_x) ** 2 + (dep.y_m[:, None] - site_y) ** 2
    assert np.array_equal(dep.serving, np.argmin(d2, axis=1))


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_cells_hold_their_planned_population(shape):
    # the random lane phase moves at most one vehicle per lane into or out
    # of a cell's segment: at the default ivd_m = 20 the plan counts 516 per
    # cell, and a drop's cells hold 510 to 522
    cfg = SimConfig(**shape)
    population = np.array(phy.build_resource_plan(cfg).cell_population)
    lanes = 2 * cfg.lanes_per_direction
    for seed in range(50):
        dep = scenario.generate_deployment(cfg, np.random.default_rng(seed))
        served = np.bincount(dep.serving, minlength=cfg.num_gnb)
        assert np.all(np.abs(served - population) <= lanes)


@pytest.mark.parametrize("ivd_m,lanes_per_direction", [(20.0, 3), (7.5, 1), (333.0, 2)])
def test_deployment_ids_are_lane_major_x_ascending(ivd_m, lanes_per_direction):
    # the engine's link search finds each lane's window by binary search
    _, dep = _deployment(seed=7, ivd_m=ivd_m, lanes_per_direction=lanes_per_direction)
    assert np.all(np.diff(dep.lane) >= 0)
    for lane in range(2 * lanes_per_direction):
        assert np.all(np.diff(dep.x_m[dep.lane == lane]) > 0)


def test_deployment_reproducible():
    _, dep_a = _deployment(seed=11, ivd_m=40.0)
    _, dep_b = _deployment(seed=11, ivd_m=40.0)
    assert np.array_equal(dep_a.x_m, dep_b.x_m)
    assert np.array_equal(dep_a.serving, dep_b.serving)
    _, dep_c = _deployment(seed=12, ivd_m=40.0)
    assert not np.array_equal(dep_a.x_m, dep_c.x_m)


def _links(cfg, dep):
    """(tx, rx) pairs of the engine's neighbour search over every vehicle."""
    tx_ids = np.arange(dep.num_vehicles)
    links = engine._build_links(dep, tx_ids, cfg)
    return list(zip(links.tx.tolist(), links.rx.tolist()))


def test_neighbors_symmetry():
    cfg, dep = _deployment(seed=4, ivd_m=80.0)
    pairs = _links(cfg, dep)
    assert len(pairs) > 0
    assert set(pairs) == {(r, t) for t, r in pairs}


def test_neighbors_edge_cases():
    cfg, dep = _deployment(ivd_m=5196.0, lanes_per_direction=3)
    # zero range sees nobody
    assert _links(replace(cfg, comm_range_m=0.0), dep) == []
    # single vehicle on a short single-lane road
    cfg = SimConfig(highway_length_m=100.0, ivd_m=60.0, lanes_per_direction=1)
    dep = scenario.generate_deployment(cfg, np.random.default_rng(0))
    assert dep.num_vehicles == 2
    assert _links(cfg, dep) == [(0, 1), (1, 0)]


def test_deployment_csv_dump(tmp_path):
    cfg, dep = _deployment(ivd_m=1000.0)
    path = tmp_path / "dep.csv"
    with open(path, "w") as f:
        scenario.write_deployment_csv(dep, cfg.lanes_per_direction, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,lane,direction,x_m,y_m,serving_gnb"
    assert len(lines) == 1 + dep.num_vehicles
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] in ("east", "west")
