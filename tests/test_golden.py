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

numpy picks its float64 ``exp`` and ``log10`` kernels by CPU feature at run
time, and the kernels differ by an ulp on a few percent of inputs;
``test_golden_bytes_under_baseline_kernels`` replays the golden outputs
with every dispatch target above numpy's baseline disabled.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from nrv2xsim import cli

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


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


# Prints the float64 exp and log10 kernels numpy runs, then writes the golden
# sweep and golden_run_equal from the data directory argv[1] into argv[2].
KERNEL_SCRIPT = """
import json, sys
from numpy.lib import introspect
info = introspect.opt_func_info(func_name="^(exp|log10)$", signature="float64")
print(json.dumps({name: sigs["dd"]["current"] for name, sigs in info.items()}))
if len(sys.argv) > 1:
    from nrv2xsim import cli
    data, out = sys.argv[1:]
    assert cli.main(["sweep", "--config", data + "/golden_campaign.json",
                     "--out", out + "/sweep.csv", "--jobs", "1"]) == 0
    assert cli.main(["run", "--config", data + "/golden_run_equal.json",
                     "--out", out + "/run.csv", "--dump-samples"]) == 0
"""


def _run_kernel_script(*argv, disabled=()):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    proc = subprocess.run([sys.executable, "-c", KERNEL_SCRIPT, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[0])


def test_golden_bytes_under_baseline_kernels(tmp_path):
    # the RNG's draws and sqrt are exact on every CPU; exp and log10 are not,
    # so the stored bytes must not rest on this machine's kernels
    above_baseline = numpy.__config__.CONFIG["SIMD Extensions"]["found"]
    if _run_kernel_script()["exp"].startswith("baseline"):
        pytest.skip("numpy already runs its baseline exp kernel on this CPU")
    kernels = _run_kernel_script(DATA, tmp_path, disabled=above_baseline)
    assert all(kernel.startswith("baseline") for kernel in kernels.values()), kernels
    assert (tmp_path / "sweep.csv").read_bytes() == (DATA / "golden_sweep.csv").read_bytes()
    for suffix in ("", ".samples.csv"):
        assert ((tmp_path / f"run.csv{suffix}").read_bytes()
                == (DATA / f"golden_run_equal.csv{suffix}").read_bytes())
