"""Byte-for-byte golden outputs of the CLI.

The stored CSVs catch any change that moves the RNG stream or the float
arithmetic.  Regenerate them only for an intended output change, from the
repository root, and log the change in CHANGES.md:

    PYTHONPATH=src python -m nrv2xsim sweep \
        --config tests/data/golden_campaign.json \
        --out tests/data/golden_sweep.csv --jobs 1
    PYTHONPATH=src python -m nrv2xsim run --config tests/data/golden_run.json \
        --out tests/data/golden_run.csv --dump-samples \
        --dump-deployment tests/data/golden_run.deployment.csv
    PYTHONPATH=src python -m nrv2xsim run --config tests/data/golden_run_equal.json \
        --out tests/data/golden_run_equal.csv --dump-samples

``golden_run`` is the nonequal:2 scheme (two decisions per transmission) on
two cells, and its deployment dump pins each vehicle's place and cell;
``golden_run_equal`` is the equal scheme on the same config, one decision
per transmission on the mean of its two phases' linear SINR.
"""

from pathlib import Path

import pytest

from nrv2xsim import cli

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_golden_sweep(tmp_path, jobs):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--config", str(DATA / "golden_campaign.json"),
        "--out", str(out), "--jobs", jobs,
    ])
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()


@pytest.mark.parametrize("name", ["golden_run", "golden_run_equal"])
def test_golden_run_and_samples(tmp_path, name):
    out = tmp_path / "run.csv"
    code = cli.main([
        "run", "--config", str(DATA / f"{name}.json"),
        "--out", str(out), "--dump-samples",
    ])
    assert code == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
    samples = tmp_path / "run.csv.samples.csv"
    assert samples.read_bytes() == (DATA / f"{name}.csv.samples.csv").read_bytes()


def test_golden_deployment(tmp_path):
    out = tmp_path / "dep.csv"
    code = cli.main([
        "run", "--config", str(DATA / "golden_run.json"),
        "--out", str(tmp_path / "run.csv"), "--dump-deployment", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_run.deployment.csv").read_bytes()
