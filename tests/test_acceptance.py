"""Acceptance suite: one check per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Statistical checks use 20 fixed seeds and paired tests at the 5%
level; direction and ordering claims are asserted, absolute percentages
are not (the built-in BLER curves are synthetic).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from nrv2xsim import cli, engine, l2sm, phy
from nrv2xsim.config import SimConfig

SEEDS = tuple(range(1, 21))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def _effective(cfg, seeds=SEEDS):
    runs = (engine.execute_run([replace(cfg, seed=s)]) for s in seeds)
    return np.array([result.prr_effective for ((result, _),) in runs])


def _significantly_greater(x, y, alpha=0.05):
    diff = np.asarray(x) - np.asarray(y)
    if np.allclose(np.std(diff, ddof=1), 0.0):
        return bool(diff.mean() > 0)
    return stats.ttest_rel(x, y, alternative="greater").pvalue < alpha


def _not_significantly_less(x, y, alpha=0.05):
    """True unless y beats x at the given level (x >= y reading)."""
    diff = np.asarray(x) - np.asarray(y)
    if np.allclose(np.std(diff, ddof=1), 0.0):
        return bool(diff.mean() >= 0)
    return stats.ttest_rel(y, x, alternative="greater").pvalue >= alpha


def test_criterion_1_prb_table(capsys):
    start = time.monotonic()
    code = cli.main(["tables", "--prb"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    with capsys.disabled():
        lines = out.strip().splitlines()
        cells = {}
        for line in lines[1:]:
            bw, mu, _, prb = line.split(",")
            cells[(int(bw), int(mu))] = prb
        expected = {
            (5, 0): "25", (10, 0): "52", (15, 0): "79", (20, 0): "106",
            (5, 1): "11", (10, 1): "24", (15, 1): "38", (20, 1): "51",
            (5, 2): "NA", (10, 2): "11", (15, 2): "18", (20, 2): "24",
        }
        na_rejected = False
        try:
            phy.prb_count(5, 2)
        except ValueError:
            na_rejected = True
        ok = (
            code == 0
            and len(lines) == 13
            and cells == expected
            and na_rejected
            and elapsed < 1.0
        )
        _report(1, "PRB table exactness", ok, f"{len(cells)} cells, {elapsed:.2f}s")


def test_criterion_2_scs_formula(capsys):
    values = [phy.scs_khz(mu) for mu in range(3)]
    rejected = []
    for mu in (3, 4):
        try:
            phy.scs_khz(mu)
        except ValueError:
            rejected.append(mu)
    ok = values == [15, 30, 60] and rejected == [3, 4]
    with capsys.disabled():
        _report(2, "SCS(mu) = 15*2^mu", ok, f"{values}, rejects mu {rejected}")


def test_criterion_3_capacity_chain(capsys):
    start = time.monotonic()
    pssch = phy.nprb_pssch(300, 5.5547)
    total = pssch + phy.NPRB_PSCCH
    supported = [
        phy.ue_supported(
            phy.ue_per_slot(phy.prb_count(10, mu), total),
            phy.slots_per_second(mu),
            10,
            1,
        )
        for mu in (0, 1, 2)
    ]
    ceilings = [phy.prr_max(s, 1038) for s in supported]
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = (
            pssch == 5
            and total == 7
            and supported == [700, 600, 400]
            and ceilings == [700 / 1038, 600 / 1038, 400 / 1038]
            and ceilings[0] > ceilings[1] > ceilings[2]
            and elapsed < 1.0
        )
        _report(
            3, "capacity chain 700/600/400",
            ok, f"supported={supported}, prr_max={[f'{c:.4f}' for c in ceilings]}",
        )


def test_criterion_4_ivd_trend(capsys):
    start = time.monotonic()
    ivds = (10.0, 20.0, 40.0, 80.0, 100.0)
    means = [float(np.mean(_effective(SimConfig(ivd_m=ivd)))) for ivd in ivds]
    rho = float(stats.spearmanr(ivds, means).statistic)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = rho >= 0.9 and elapsed < 60.0
        detail = f"means={[f'{m:.4f}' for m in means]}, spearman={rho:.3f}, {elapsed:.1f}s"
        _report(4, "PRR non-decreasing in IVD (mu=0)", ok, detail)


def test_criterion_5_tf_trend(capsys):
    start = time.monotonic()
    base = SimConfig(mu=2, ivd_m=20.0)
    prr = {
        tf: _effective(replace(base, tf_hz=float(tf))) for tf in (10, 20, 30)
    }
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = (
            _significantly_greater(prr[10], prr[20])
            and _significantly_greater(prr[20], prr[30])
            and elapsed < 60.0
        )
        detail = (
            f"means 10/20/30 Hz = {prr[10].mean():.3f}/{prr[20].mean():.3f}/"
            f"{prr[30].mean():.3f}, {elapsed:.1f}s"
        )
        _report(5, "PRR ordered by transmission frequency (mu=2)", ok, detail)


def test_criterion_6_shift_identity(capsys):
    start = time.monotonic()
    table = l2sm.default_bler_table()
    ok = True
    for mcs in range(1, 16):
        grid = table.curves[mcs][0]
        for delta in (3.0, 5.0, 7.0):
            shifted = l2sm.bler_lookup(table, mcs, grid, delta)
            direct = l2sm.bler_lookup(table, mcs, grid + delta, 0.0)
            if not np.array_equal(shifted, direct):
                ok = False
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = ok and elapsed < 1.0
        _report(6, "delta-shift identity on full grid", ok, f"{elapsed:.2f}s")


def test_criterion_7_bernoulli_fidelity(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 100_000
    ok = True
    details = []
    for bler in (0.05, 0.25, 0.5):
        rate = l2sm.reception_draw(np.full(n, bler), rng.random(n)).mean()
        sigma = math.sqrt(bler * (1 - bler) / n)
        details.append(f"{bler}:{rate:.4f}")
        if abs(rate - (1 - bler)) > 3 * sigma:
            ok = False
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = ok and elapsed < 5.0
        _report(7, "reception draws within 3-sigma binomial", ok, ", ".join(details))


def test_criterion_8_retransmission_crossover(capsys):
    start = time.monotonic()
    base = SimConfig(mu=2, bandwidth_mhz=20.0, ivd_m=10.0)
    none_loaded = _effective(base)
    equal_loaded = _effective(replace(base, retx_scheme="equal", l2sm_delta_db=3.0))
    roomy = replace(base, ivd_m=40.0)
    none_roomy = _effective(roomy)
    equal_roomy = _effective(replace(roomy, retx_scheme="equal", l2sm_delta_db=5.0))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        overloaded_ok = _significantly_greater(none_loaded, equal_loaded)
        headroom_ok = (
            _significantly_greater(equal_roomy, none_roomy)
            and equal_roomy.mean() > 0.9
        )
        ok = overloaded_ok and headroom_ok and elapsed < 120.0
        detail = (
            f"ivd10 none/equal={none_loaded.mean():.3f}/{equal_loaded.mean():.3f}, "
            f"ivd40 none/equal={none_roomy.mean():.3f}/{equal_roomy.mean():.3f}, "
            f"{elapsed:.1f}s"
        )
        _report(8, "retransmission crossover with load", ok, detail)


def test_criterion_9_equal_vs_nonequal(capsys):
    start = time.monotonic()
    # single-cell, single-site highway: interference is absent entirely,
    # which satisfies the >= 20 dB below noise requirement trivially
    base = SimConfig(
        highway_length_m=1732.0, num_gnb=1, mu=2, bandwidth_mhz=20.0,
        ivd_m=40.0, l2sm_delta_db=5.0, retx_scheme="equal",
    )
    equal = _effective(base)
    ok = True
    means = [f"equal={equal.mean():.4f}"]
    for n in (1, 2, 3, 4):
        nonequal = _effective(replace(base, retx_scheme=f"nonequal:{n}"))
        means.append(f"n{n}={nonequal.mean():.4f}")
        if not _not_significantly_less(equal, nonequal):
            ok = False
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = ok and elapsed < 120.0
        _report(9, "equal >= nonequal when noise-limited", ok,
                ", ".join(means) + f", {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    start = time.monotonic()
    campaign = {
        "base": {"mu": 2, "bandwidth_mhz": 20, "ivd_m": 40},
        "sweep_ivd_m": [40, 100],
        "sweep_retx": ["none", "equal"],
        "seeds": [1, 2],
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(campaign))
    outs = {}
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"{name}.csv"
        code = cli.main(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs]
        )
        assert code == 0
        outs[name] = out.read_bytes()
    capsys.readouterr()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        ok = outs["a"] == outs["b"] == outs["c"] and elapsed < 60.0
        _report(10, "byte-identical CSV across invocations and --jobs", ok,
                f"{len(outs['a'])} bytes, {elapsed:.1f}s")
