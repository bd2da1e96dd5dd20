import math

import numpy as np
import pytest

from nrv2xsim import metrics
from nrv2xsim.config import SimConfig, config_fingerprint
from nrv2xsim.metrics import RunKey, RunResult


def _result(cfg, seed, prr, prr_max=1.0, fingerprint=None):
    return RunResult(
        key=RunKey.from_config(cfg),
        fingerprint=fingerprint or config_fingerprint(cfg),
        seed=seed,
        prr_runtime=prr,
        prr_max=prr_max,
        prr_effective=prr_max * prr,
        samples=10,
    )


def test_prr_runtime_macro_average():
    assert metrics.prr_runtime([10, 10], [5, 10]) == pytest.approx(0.75)
    # macro, not micro: 1/1 and 0/9 average to 0.5, not 0.1
    assert metrics.prr_runtime(np.array([1, 9]), np.array([1, 0])) == 0.5


def test_prr_runtime_extremes():
    assert metrics.prr_runtime([4], [4]) == 1.0
    assert metrics.prr_runtime([4], [0]) == 0.0


def test_prr_runtime_excludes_empty_and_sentinel():
    assert metrics.prr_runtime([0, 2], [0, 1]) == pytest.approx(0.5)
    assert math.isnan(metrics.prr_runtime([0], [0]))
    assert math.isnan(metrics.prr_runtime([], []))
    empty = np.empty(0, dtype=np.int64)
    assert math.isnan(metrics.prr_runtime(empty, empty))


def test_prr_sample_validates():
    with pytest.raises(ValueError, match="n=3, m=2"):
        metrics.prr_runtime([2], [3])
    with pytest.raises(ValueError):
        metrics.prr_runtime([2, 2], [1, -1])


def test_effective_prr():
    assert metrics.effective_prr(1.0, 0.83) == pytest.approx(0.83)
    assert metrics.effective_prr(700 / 1038, 1.0) == pytest.approx(700 / 1038)
    assert metrics.effective_prr(0.0, 0.5) == 0.0
    assert metrics.effective_prr(0.0, math.nan) == 0.0


def test_aggregate_single_seed_zero_ci():
    cfg = SimConfig()
    rows = metrics.aggregate([_result(cfg, 1, 0.9)])
    assert len(rows) == 1
    assert rows[0].seed_count == 1
    assert rows[0].prr_ci95 == 0.0


def test_aggregate_identical_values_zero_ci():
    cfg = SimConfig()
    rows = metrics.aggregate([_result(cfg, s, 0.9) for s in range(5)])
    assert rows[0].prr_ci95 == 0.0
    assert rows[0].prr_mean == pytest.approx(0.9)


def test_aggregate_ci_formula():
    cfg = SimConfig()
    values = np.linspace(0.8, 0.9, 20)
    rows = metrics.aggregate([_result(cfg, i, v) for i, v in enumerate(values)])
    expected = 1.96 * np.std(values, ddof=1) / math.sqrt(20)
    assert rows[0].prr_ci95 == pytest.approx(expected)
    # one seed's spread shrinks by 1/sqrt(20) in the CI
    assert rows[0].prr_ci95 == pytest.approx(
        1.96 * np.std(values, ddof=1) / math.sqrt(len(values))
    )


def test_aggregate_permutation_invariant():
    cfg = SimConfig()
    results = [_result(cfg, i, v) for i, v in enumerate((0.7, 0.8, 0.9))]
    assert metrics.aggregate(results) == metrics.aggregate(results[::-1])


def test_aggregate_sorts_rows_by_axes():
    rows = metrics.aggregate(
        [
            _result(SimConfig(ivd_m=40.0, mu=1), 1, 0.8),
            _result(SimConfig(ivd_m=10.0, mu=2, bandwidth_mhz=10.0), 1, 0.6),
            _result(SimConfig(ivd_m=10.0, mu=0), 1, 0.5),
        ]
    )
    assert [(r.key.ivd_m, r.key.mu) for r in rows] == [(10.0, 0), (10.0, 2), (40.0, 1)]


def test_aggregate_rejects_mixed_fingerprints():
    cfg_a = SimConfig()
    cfg_b = SimConfig(max_mcs_efficiency=7.4063)  # same axes, different config
    with pytest.raises(ValueError, match="mixed config fingerprints"):
        metrics.aggregate([_result(cfg_a, 1, 0.9), _result(cfg_b, 2, 0.9)])


def test_effective_never_exceeds_ceiling():
    cfg = SimConfig()
    for prr_max in (0.0, 0.3, 1.0):
        for runtime in (0.0, 0.5, 1.0):
            value = metrics.effective_prr(prr_max, runtime)
            assert value <= prr_max + 1e-12
            assert value <= 1.0


def test_sweep_csv_format(tmp_path):
    cfg = SimConfig(ivd_m=10.0)
    rows = metrics.aggregate([_result(cfg, s, 0.5, prr_max=700 / 1038) for s in (1, 2)])
    path = tmp_path / "sweep.csv"
    metrics.write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == metrics.SWEEP_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[:7] == ["10", "0", "10", "10", "none", "0", "2"]
    assert fields[7] == f"{rows[0].prr_mean:.6f}"
    assert fields[9] == f"{700 / 1038:.6f}"


@pytest.mark.parametrize("ivd_m, cell", [
    (250.0000001, "250.0000001"), (123.4567891, "123.4567891"), (1234567.0, "1234567"),
    (1e-05, "1e-05"), (2.5e16, "2.5e+16"),
])
def test_key_cells_read_back(tmp_path, ivd_m, cell):
    # each float key cell is the shortest decimal that reads back as its
    # value, so two sweep points never share a row's key
    points = [SimConfig(ivd_m=ivd_m), SimConfig(ivd_m=math.nextafter(ivd_m, math.inf))]
    path = tmp_path / "sweep.csv"
    metrics.write_sweep_csv(metrics.aggregate(_result(c, 1, 0.5) for c in points), path)
    cells = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert [float(cell) for cell in cells] == [c.ivd_m for c in points]
    assert cells[0] == cell


def test_run_csv_format(tmp_path):
    cfg = SimConfig(retx_scheme="nonequal:2", mu=2, bandwidth_mhz=20.0)
    result = RunResult(
        key=RunKey.from_config(cfg),
        fingerprint=config_fingerprint(cfg),
        seed=3,
        prr_runtime=0.75,
        prr_max=1.0,
        prr_effective=0.75,
        samples=42,
        prr_phase1=0.9,
        prr_phase2=0.6,
    )
    path = tmp_path / "run.csv"
    metrics.write_run_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == metrics.RUN_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[1] == "3"
    assert fields[6] == "nonequal:2"
    assert fields[10] == "0.900000" and fields[11] == "0.600000"
