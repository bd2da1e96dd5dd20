"""Byte-for-byte golden outputs of the CLI.

The stored CSVs catch any change that moves the RNG stream or the float
arithmetic.  Regenerate them only for an intended output change, from the
repository root, and log the change in CHANGES.md:

    PYTHONPATH=src python -m nrv2xsim sweep \
        --config tests/data/golden_campaign.json \
        --out tests/data/golden_sweep.csv --jobs 1
    PYTHONPATH=src python -m nrv2xsim run --config tests/data/golden_run.json \
        --out tests/data/golden_run.csv --dump-samples
    PYTHONPATH=src python -m nrv2xsim run --config tests/data/golden_run_db.json \
        --out tests/data/golden_run_db.csv --dump-samples

``golden_run`` is the nonequal:2 scheme (two decisions per transmission);
``golden_run_db`` is the equal scheme with ``retx_sinr_combining="db"``,
whose PRR differs from the linear combining on the same config.
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


@pytest.mark.parametrize("name", ["golden_run", "golden_run_db"])
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
