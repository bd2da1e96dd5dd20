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
    assert row["scs_khz"] == "30"
    assert row["slots_per_second"] == "2000"
    assert row["usable_symbols"] == "9"
    assert row["n_prb"] == "24"
    assert row["ue_supported"] == "600"


def test_capacity_reports_cell_populations(capsys):
    code, out = run_cli(["capacity", "--csv", "--set", "ivd_m=10"], capsys)
    assert code == 0
    header, values = out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["cell_population"] == "1038;1038;1038"
    assert row["prr_max"] == "0.674374"
    # a 4330 m highway leaves the last site 866 m: 516 vehicles, all granted
    code, out = run_cli(
        ["capacity", "--csv", "--set", "highway_length_m=4330", "--set", "ivd_m=10"], capsys
    )
    assert code == 0
    header, values = out.splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["cell_population"] == "1038;1038;516"
    assert row["prr_max"] == "0.739198"


def test_capacity_loads_the_bler_table(tmp_path, capsys):
    # the plan carries the table, so a table that does not load fails the
    # plan as it fails a run
    missing = tmp_path / "missing.csv"
    code = cli.main(["capacity", "--set", f"bler_table_path={missing}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(missing) in captured.err


@pytest.mark.parametrize("setting, last_cell, isd", [
    ("highway_length_m=20000", "16536.0", "1732.0"),
    ("isd_m=100", "4996.0", "100.0"),
])
def test_run_rejects_a_cell_longer_than_isd(tmp_path, capsys, setting, last_cell, isd):
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--set", setting, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: last cell is {last_cell} m, longer than isd_m {isd} m")
    assert not out.exists()


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

    with open(path, newline="") as handle:
        table = l2sm.load_table(handle)
    assert sorted(table.curves) == list(range(1, 16))


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


def test_set_signed_zero_runs_as_zero(tmp_path, capsys):
    # a signed zero runs, and writes the bytes of 0.0
    outs = []
    for value in ("-0.0", "0.0"):
        outs.append(tmp_path / f"sigma{value}.csv")
        code, _ = run_cli(["run", "--set", "ivd_m=400", "--set", f"shadowing_sigma_db={value}",
                           "--out", str(outs[-1])], capsys)
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mu": 9}')
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "mu" in err
    # an integer beyond the float range is a config error, not a traceback
    code = cli.main(["capacity", "--set", "ivd_m=" + "9" * 400])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: ivd_m must be finite")
    # and so is one beyond json's 4300-digit limit, in --set, a config file
    # or a campaign file
    huge = "9" * 5000
    code = cli.main(["capacity", "--set", "ivd_m=" + huge])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ivd_m must be a number, got '99")
    # the echoed value is clipped: the message stays one short line
    assert "..." in err and len(err) < 200
    for verb, kind, text in (("capacity", "config", '{"ivd_m": %s}'),
                             ("sweep", "campaign", '{"sweep_ivd_m": [%s]}')):
        bad.write_text(text % huge)
        code = cli.main([verb, "--config", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: malformed {kind} document")


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
        metrics.aggregate(result for cfg, _ in runs
                          for result, _ in engine.execute_run([cfg])), alone
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
        metrics.aggregate(result for cfg, _ in runs
                          for result, _ in engine.execute_run([cfg])), alone
    )
    assert out.read_bytes() == alone.read_bytes()


def test_pooled_campaigns_give_the_bytes_of_each_sweep(tmp_path, capsys, caplog, monkeypatch):
    # three tiny campaigns of one pass config: the first two share their
    # (10 MHz, mu 0, "none") run, and the third runs at 20 MHz, a field that
    # acts only after the pass
    base = {"highway_length_m": 1732, "num_gnb": 1, "ivd_m": 200}
    campaigns = [{"base": base, "sweep_mu": [0, 1], "seeds": [1]},
                 {"base": base, "sweep_retx": ["none", "equal"], "seeds": [1]},
                 {"base": {**base, "bandwidth_mhz": 20}, "sweep_mu": [0, 2], "seeds": [1]}]
    alone = []
    for i, campaign in enumerate(campaigns):
        cfg_path = tmp_path / f"campaign{i}.json"
        cfg_path.write_text(json.dumps(campaign))
        alone.append(tmp_path / f"alone{i}.csv")
        code, _ = run_cli(["sweep", "--config", str(cfg_path), "--out", str(alone[-1]),
                           "--jobs", "1"], capsys)
        assert code == 0
    groups = []
    execute_run = engine.execute_run
    monkeypatch.setattr(engine, "execute_run",
                        lambda members: groups.append(len(members)) or execute_run(members))
    caplog.set_level(logging.INFO, logger="nrv2xsim")
    pooled = cli.sweep_campaigns(
        [expand_campaign(parse_campaign(json.dumps(c))) for c in campaigns], 1)
    # one SINR group of the five distinct runs: the shared run runs once
    assert groups == [5]
    assert "expanding campaign: 5 runs in 1 SINR groups, 1 worker(s)" in caplog.messages
    assert any(m.startswith("progress: 5/5 runs") for m in caplog.messages)
    for results, path in zip(pooled, alone, strict=True):
        out = tmp_path / "pooled.csv"
        metrics.write_sweep_csv(metrics.aggregate(results), out)
        assert out.read_bytes() == path.read_bytes()


def test_pooled_campaigns_return_each_run_alone():
    # per campaign, one RunResult per expanded run in expansion order, each
    # the result of its config run alone, the shared run's in both campaigns
    base = {"highway_length_m": 1732, "num_gnb": 1, "ivd_m": 200}
    campaigns = [expand_campaign(parse_campaign(json.dumps(c))) for c in (
        {"base": base, "sweep_mu": [0, 1], "sweep_l2sm_delta_db": [3, 0], "seeds": [2, 1]},
        {"base": base, "sweep_retx": ["equal", "none"], "seeds": [1]})]
    pooled = cli.sweep_campaigns(campaigns, 1)
    assert [len(results) for results in pooled] == [8, 2]
    for runs, results in zip(campaigns, pooled, strict=True):
        for (cfg, _), result in zip(runs, results, strict=True):
            ((alone, _),) = engine.execute_run([cfg])
            assert result == alone


# a campaign of two SINR groups (one per spacing) and one of a single group
TWO_GROUPS = {"base": {"highway_length_m": 1732, "num_gnb": 1},
              "sweep_ivd_m": [200, 400], "seeds": [1]}
ONE_GROUP = {"base": {"highway_length_m": 1732, "num_gnb": 1, "ivd_m": 400},
             "sweep_retx": ["none", "equal"], "seeds": [1]}


@pytest.mark.parametrize("campaign", [TWO_GROUPS, ONE_GROUP], ids=["two_groups", "one_group"])
@pytest.mark.parametrize("jobs", ["-1", "-3", "two"])
def test_sweep_rejects_bad_jobs_at_parse_time(tmp_path, capsys, campaign, jobs):
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(campaign))
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    assert (f"argument --jobs: must be an integer >= 0 (0: all cores), got '{jobs}'"
            in capsys.readouterr().err)
    assert not out.exists()


class _SerialPool:
    """A ProcessPoolExecutor stand-in that records its width and maps in
    this process."""

    widths: list = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("campaign, jobs, width", [
    (TWO_GROUPS, "0", 2),   # all of 64 cores, but only two groups
    (TWO_GROUPS, "8", 2),
    (TWO_GROUPS, "1", None),
    (ONE_GROUP, "0", None),  # one group runs in this process
], ids=["two_groups_all_cores", "two_groups_jobs8", "two_groups_jobs1", "one_group_all_cores"])
def test_sweep_starts_at_most_one_worker_per_group(tmp_path, capsys, caplog, monkeypatch,
                                                   campaign, jobs, width):
    monkeypatch.setattr(_SerialPool, "widths", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(campaign))
    caplog.set_level(logging.INFO, logger="nrv2xsim")
    code, _ = run_cli(
        ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"), "--jobs", jobs],
        capsys,
    )
    assert code == 0
    assert _SerialPool.widths == ([] if width is None else [width])
    groups = len(campaign.get("sweep_ivd_m", [None]))
    assert (f"expanding campaign: 2 runs in {groups} SINR groups, {width or 1} worker(s)"
            in caplog.messages)


def test_run_equals_sweep_of_its_seed(tmp_path, capsys):
    # run and sweep enter the engine the same way: one seed, one row
    settings = {"highway_length_m": 1732, "num_gnb": 1, "ivd_m": 200,
                "retx_scheme": "nonequal:2", "drops": 2}
    run_out, sweep_out = tmp_path / "run.csv", tmp_path / "sweep.csv"
    overrides = [arg for k, v in settings.items() for arg in ("--set", f"{k}={v}")]
    code, _ = run_cli(["run", *overrides, "--set", "seed=7", "--out", str(run_out)], capsys)
    assert code == 0
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps({"base": settings, "seeds": [7]}))
    code, _ = run_cli(
        ["sweep", "--config", str(cfg_path), "--out", str(sweep_out), "--jobs", "1"], capsys
    )
    assert code == 0
    run_row = dict(zip(*(line.split(",") for line in run_out.read_text().splitlines())))
    sweep_row = dict(zip(*(line.split(",") for line in sweep_out.read_text().splitlines())))
    assert run_row["seed"] == "7"
    assert sweep_row["seed_count"] == "1"
    assert run_row["prr_effective"] == sweep_row["prr_mean"]


def test_sweep_rejects_negative_seed_before_running(tmp_path, capsys):
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps({"base": {}, "seeds": [1, -1]}))
    out = tmp_path / "o.csv"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: seed must be non-negative" in err
    assert not out.exists()


def test_sweep_rejects_missing_out_dir_before_running(tmp_path, capsys, monkeypatch):
    calls = []
    real = engine.execute_run
    monkeypatch.setattr(engine, "execute_run", lambda members: calls.append(1) or real(members))
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps({"base": {"drops": 1, "ivd_m": 200.0}, "seeds": [1, 2]}))
    (tmp_path / "taken").mkdir()
    for out, message in (("missing_dir/o.csv", "no such directory for --out"),
                         ("taken", "--out names a directory"),
                         ("", "empty path for --out")):
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / out) if out else "", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert calls == []
        assert sorted(tmp_path.iterdir()) == [cfg_path, tmp_path / "taken"]


@pytest.mark.parametrize("flag, path, message", [
    pytest.param("--out", "missing_dir/x.csv", "no such directory for --out",
                 id="--out-missing_dir/x.csv"),
    pytest.param("--dump-deployment", "missing_dir/d.csv",
                 "no such directory for --dump-deployment",
                 id="--dump-deployment-missing_dir/d.csv"),
    pytest.param("--out", "taken", "--out names a directory", id="--out-taken"),
    pytest.param("--out", "taken/s.csv", "--dump-samples names a directory",
                 id="--out-taken/s.csv"),
    pytest.param("--out", "", "empty path for --out", id="--out-empty"),
    pytest.param("--dump-deployment", "", "empty path for --dump-deployment",
                 id="--dump-deployment-empty"),
])
def test_run_rejects_missing_out_dir_before_running(tmp_path, capsys, monkeypatch,
                                                     flag, path, message):
    calls = []
    real = engine.execute_run
    monkeypatch.setattr(engine, "execute_run", lambda members: calls.append(1) or real(members))
    taken = tmp_path / "taken"
    (taken / "s.csv.samples.csv").mkdir(parents=True)
    # a second --out replaces the first
    code = cli.main(["run", "--set", "drops=1", "--set", "ivd_m=200", "--dump-samples",
                     "--out", str(tmp_path / "r.csv"), flag,
                     str(tmp_path / path) if path else ""])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {message}" in err
    assert calls == []
    assert list(tmp_path.iterdir()) == [taken]
    assert list(taken.iterdir()) == [taken / "s.csv.samples.csv"]


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


def test_run_campaigns_script_rejects_negative_jobs(tmp_path):
    # rejected by the sweep's own --jobs type before any output directory
    outdir = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_campaigns.py"),
         "--jobs", "-1", "--outdir", str(outdir)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 2
    assert "must be an integer >= 0" in proc.stderr
    assert "==" not in proc.stderr
    assert not outdir.exists()


def test_run_campaigns_script_checks_every_file_before_running(tmp_path):
    # a bad campaign file, even the last, fails the script before any run
    # starts or any CSV is written
    (tmp_path / "scripts").mkdir()
    script = tmp_path / "scripts" / "run_campaigns.py"
    script.write_text((ROOT / "scripts" / "run_campaigns.py").read_text())
    (tmp_path / "campaigns").mkdir()
    (tmp_path / "campaigns" / "a.json").write_text(json.dumps(ONE_GROUP))
    (tmp_path / "campaigns" / "b.json").write_text('{"sweep_mu": [0, 9]}')
    outdir = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(script), "--jobs", "1", "--outdir", str(outdir)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: mu out of FR1 sidelink range: 9")
    assert "expanding campaign" not in proc.stderr
    assert not outdir.exists()
