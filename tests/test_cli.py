import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nrv2xsim import cli, engine, metrics
from nrv2xsim.config import expand_campaign, parse_campaign

ROOT = Path(__file__).resolve().parent.parent


def _subprocess_env():
    """Environment whose interpreter imports nrv2xsim from this checkout."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_capacity_values(capsys):
    code, out = run_cli(
        ["capacity", "--set", "bandwidth_mhz=10", "--set", "mu=0"], capsys
    )
    assert code == 0
    table = dict(line.split(None, 1) for line in out.splitlines())
    assert table["n_prb"] == "52"
    assert table["nprb_total"] == "7"
    assert table["ue_per_slot"] == "7"
    assert table["ue_supported"] == "700"


def test_capacity_csv(capsys):
    code, out = run_cli(["capacity", "--csv", "--set", "mu=1"], capsys)
    assert code == 0
    header, values = out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["n_prb"] == "24"
    assert row["ue_supported"] == "600"


def test_capacity_reports_cell_populations(capsys):
    code, out = run_cli(["capacity", "--csv", "--set", "ivd_m=10"], capsys)
    assert code == 0
    header, values = out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["cell_population"] == "1038;1038;1038"
    assert row["prr_max"] == "0.674374"
    # one site serves the whole 5196 m highway: 700 of 3114 vehicles transmit
    code, out = run_cli(
        ["capacity", "--csv", "--set", "num_gnb=1", "--set", "ivd_m=10"], capsys
    )
    assert code == 0
    header, values = out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["cell_population"] == "3114"
    assert row["prr_max"] == "0.224791"


def test_tables_prb(capsys):
    code, out = run_cli(["tables", "--prb"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bandwidth_mhz,mu,scs_khz,n_prb"
    assert len(lines) == 13  # 12 table cells behind the header
    assert "5,2,60,NA" in lines
    assert "10,0,15,52" in lines


def test_tables_bler_dump_loads_back(capsys, tmp_path):
    code, out = run_cli(["tables", "--dump-bler"], capsys)
    assert code == 0
    path = tmp_path / "dump.csv"
    path.write_text(out)
    from nrv2xsim import l2sm

    table = l2sm.load_table(str(path))
    assert table.mcs_indices() == list(range(1, 16))


def test_run_writes_csv_and_dumps(tmp_path, capsys):
    out = tmp_path / "run.csv"
    dep = tmp_path / "dep.csv"
    code, _ = run_cli(
        [
            "run", "--set", "ivd_m=400", "--set", "seed=2",
            "--out", str(out), "--dump-samples", "--dump-deployment", str(dep),
        ],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("fingerprint,seed,")
    samples = (tmp_path / "run.csv.samples.csv").read_text().splitlines()
    assert samples[0] == "drop,tx_id,phase,receivers_in_range,received_count"
    assert len(samples) > 1
    assert dep.read_text().startswith("id,lane,direction,x_m,y_m,serving_gnb")


def test_run_dump_samples_simulates_each_drop_once(tmp_path, capsys, monkeypatch):
    calls = []
    drop_counts = engine._drop_counts

    def counting(cfg, plans, seed):
        calls.append(seed)
        return drop_counts(cfg, plans, seed)

    monkeypatch.setattr(engine, "_drop_counts", counting)
    out = tmp_path / "run.csv"
    code, _ = run_cli(
        ["run", "--set", "ivd_m=400", "--set", "drops=3", "--out", str(out),
         "--dump-samples"],
        capsys,
    )
    assert code == 0
    assert len(calls) == 3
    samples = (tmp_path / "run.csv.samples.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in samples[1:]} == {"0", "1", "2"}


def test_set_changes_fingerprint(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli(["run", "--set", "ivd_m=400", "--out", str(out_a)], capsys)
    run_cli(["run", "--set", "ivd_m=500", "--out", str(out_b)], capsys)
    fp_a = out_a.read_text().splitlines()[1].split(",")[0]
    fp_b = out_b.read_text().splitlines()[1].split(",")[0]
    assert fp_a != fp_b


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mu": 9}')
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "mu" in err


def test_missing_config_file_exit_code(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_unknown_flag_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--frobnicate"])
    assert exc.value.code == 2


def test_sweep_deterministic_and_parallel_identical(tmp_path, capsys):
    campaign = {
        "base": {"mu": 2, "bandwidth_mhz": 20, "highway_length_m": 1732, "num_gnb": 1},
        "sweep_ivd_m": [80, 200],
        "seeds": [1, 2],
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(campaign))
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for out, jobs in zip(outs, ("1", "1", "2")):
        code, _ = run_cli(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs],
            capsys,
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() == outs[2].read_bytes()
    lines = outs[0].read_text().splitlines()
    assert len(lines) == 3  # header + 2 sweep points
    assert lines[1].split(",")[6] == "2"  # seed_count


def test_sweep_builds_links_once_per_sinr_group(tmp_path, capsys, caplog, monkeypatch):
    # 3 numerologies x 2 schemes x 2 deltas at 2 spacings = 24 runs in 2 groups
    campaign = {
        "base": {"bandwidth_mhz": 10, "drops": 2},
        "sweep_ivd_m": [20, 100],
        "sweep_mu": [0, 1, 2],
        "sweep_retx": ["none", "equal"],
        "sweep_l2sm_delta_db": [3, 7],
        "seeds": [1],
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(campaign))
    calls = []
    build_links = engine._build_links

    def counting(*args, **kwargs):
        calls.append(args[0])
        return build_links(*args, **kwargs)

    monkeypatch.setattr(engine, "_build_links", counting)
    caplog.set_level(logging.INFO, logger="nrv2xsim")
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        ["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"], capsys
    )
    assert code == 0
    # ivd 20 (about 516 vehicles per cell) overloads some plans: "none"
    # supports 700/600/400 at mu 0/1/2 and "equal" 350/300/200, so 5 schedule
    # signatures; ivd 100 (102 per cell) overloads none, so one per scheme.
    # The signatures of a drop share one search over their transmitters.
    assert len(calls) == 2 * 2  # one per (group, drop)
    assert "expanding campaign: 24 runs in 2 SINR groups, 1 worker(s)" in caplog.messages
    # the grouped sweep writes the bytes of one execute_run per run
    monkeypatch.setattr(engine, "_build_links", build_links)
    runs = expand_campaign(parse_campaign(cfg_path.read_text()))
    alone = tmp_path / "alone.csv"
    metrics.write_sweep_csv(
        metrics.aggregate(engine.execute_run([cfg], seed)[0] for cfg, seed in runs), alone
    )
    assert out.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_logs_progress_per_group(tmp_path, capsys, caplog, jobs):
    campaign = {
        "base": {"highway_length_m": 1732, "num_gnb": 1, "ivd_m": 200},
        "sweep_retx": ["none", "equal"],
        "seeds": [1, 2, 3],
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(campaign))
    caplog.set_level(logging.INFO, logger="nrv2xsim")
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        ["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs], capsys
    )
    assert code == 0
    progress = [m for m in caplog.messages if m.startswith("progress: ")]
    # one line per group of two runs, counting runs up to the total
    done = [int(m.split()[1].split("/")[0]) for m in progress]
    assert done == [2, 4, 6]
    assert all(re.fullmatch(r"progress: \d+/6 runs, \d+\.\d s elapsed, ETA \d+\.\d s", m)
               for m in progress)
    assert progress[-1].endswith("ETA 0.0 s")
    # the log goes to stderr only: the CSV holds the rows of each run alone
    runs = expand_campaign(parse_campaign(cfg_path.read_text()))
    alone = tmp_path / "alone.csv"
    metrics.write_sweep_csv(
        metrics.aggregate(engine.execute_run([cfg], seed)[0] for cfg, seed in runs), alone
    )
    assert out.read_bytes() == alone.read_bytes()


def test_sweep_rejects_negative_seed_before_running(tmp_path, capsys):
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps({"base": {}, "seeds": [1, -1]}))
    out = tmp_path / "o.csv"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: seed must be non-negative" in err
    assert not out.exists()


def test_sweep_overrides_apply_to_base(tmp_path, capsys):
    campaign = {"base": {"highway_length_m": 1732, "num_gnb": 1}, "seeds": [1]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(campaign))
    out = tmp_path / "o.csv"
    code, _ = run_cli(
        ["sweep", "--config", str(cfg_path), "--out", str(out),
         "--set", "ivd_m=200", "--jobs", "1"],
        capsys,
    )
    assert code == 0
    assert out.read_text().splitlines()[1].split(",")[0] == "200"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "nrv2xsim", "capacity", "--set", "mu=2"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert "ue_supported" in proc.stdout
    assert proc.stderr == ""  # tables go to stdout, logs only on run/sweep


def test_capacity_grid_script_empty_cell():
    # vehicles wider apart than the sites: no one per cell, ceiling 1
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "capacity_grid.py"), "--ivd", "2000"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("ivd=2000 m -> 0 vehicles per cell")
    assert all(line.endswith(",1.0000") for line in lines[2:])


@pytest.mark.parametrize("args,message", [
    (["--ivd", "-5"], "ivd_m must be positive"),
    (["--ivd", "nan"], "ivd_m must be finite"),
    (["--retx", "bogus"], "retx_scheme must be"),
])
def test_capacity_grid_script_rejects_bad_config(args, message):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "capacity_grid.py"), *args],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"config error: {message}")
