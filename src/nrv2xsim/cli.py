"""Command-line entry point: run, sweep, capacity, tables.

All results go to CSV files or stdout; log lines go to stderr only, so
output files and piped tables stay clean.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import engine, l2sm, metrics, phy, scenario
from .config import (
    ConfigError,
    SimConfig,
    apply_overrides,
    expand_campaign,
    parse_campaign,
    parse_config,
)

log = logging.getLogger("nrv2xsim")


def _resolve_config(args) -> SimConfig:
    cfg = parse_config(Path(args.config).read_text()) if args.config else SimConfig()
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    return cfg


def _check_out_dir(path: str, flag: str) -> None:
    """Fail before any run if path cannot be written as a file."""
    if not path:
        raise FileNotFoundError(f"empty path for {flag}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"no such directory for {flag}: {path}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"{flag} names a directory: {path}")


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    samples_path = args.out + ".samples.csv"
    _check_out_dir(args.out, "--out")
    if args.dump_samples:
        _check_out_dir(samples_path, "--dump-samples")
    if args.dump_deployment is not None:
        _check_out_dir(args.dump_deployment, "--dump-deployment")
    ((result, counts),) = engine.execute_run([cfg])
    metrics.write_run_csv(result, args.out)
    log.info("wrote %s (fingerprint %s, seed %d)", args.out, result.fingerprint, result.seed)
    if args.dump_samples:
        with open(samples_path, "w", newline="") as f:
            f.write("drop,tx_id,phase,receivers_in_range,received_count\n")
            for row in engine.run_sample_table(counts):
                f.write(",".join(map(str, row)) + "\n")
        log.info("wrote %s", samples_path)
    if args.dump_deployment is not None:
        with open(args.dump_deployment, "w", newline="") as f:
            scenario.write_deployment_csv(counts[0].dep, cfg.lanes_per_direction, f)
        log.info("wrote %s", args.dump_deployment)
    return 0


def _sweep_worker(members):
    return [result for result, _ in engine.execute_run(members)]


def _run_groups(groups, jobs: int):
    """Each group's results, in group order, as the groups finish."""
    if jobs == 1:
        yield from map(_sweep_worker, groups)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_sweep_worker, groups)


def sweep_campaigns(campaigns, jobs: int) -> list[list[metrics.RunResult]]:
    """Each expanded campaign's RunResults, in order, from one pool that runs each config once."""
    configs = list(dict.fromkeys(cfg for runs in campaigns for cfg, _ in runs))
    groups = engine.sinr_groups(configs)
    # a worker beyond the group count would only be forked and left idle
    jobs = min(jobs or os.cpu_count() or 1, len(groups))
    log.info("expanding campaign: %d runs in %d SINR groups, %d worker(s)",
             len(configs), len(groups), jobs)
    results = {}
    start = time.perf_counter()
    for group, group_results in zip(groups, _run_groups(groups, jobs)):
        results.update(zip(group, group_results))
        elapsed = time.perf_counter() - start
        eta = elapsed * (len(configs) - len(results)) / len(results)
        log.info("progress: %d/%d runs, %.1f s elapsed, ETA %.1f s",
                 len(results), len(configs), elapsed, eta)
    return [[results[cfg] for cfg, _ in runs] for runs in campaigns]


def _cmd_sweep(args) -> int:
    campaign = parse_campaign(Path(args.config).read_text() if args.config else "{}")
    if args.overrides:
        campaign = replace(campaign, base=apply_overrides(campaign.base, args.overrides))
    runs = expand_campaign(campaign)
    _check_out_dir(args.out, "--out")
    (results,) = sweep_campaigns([runs], args.jobs)
    rows = metrics.aggregate(results)
    metrics.write_sweep_csv(rows, args.out)
    log.info("wrote %s (%d sweep points)", args.out, len(rows))
    return 0


def _cmd_capacity(args) -> int:
    cfg = _resolve_config(args)
    plan = phy.build_resource_plan(cfg)
    entries = [
        ("bandwidth_mhz", metrics._decimal(cfg.bandwidth_mhz)),
        ("mu", str(cfg.mu)),
        ("scs_khz", str(phy.scs_khz(cfg.mu))),
        ("slots_per_second", str(phy.slots_per_second(cfg.mu))),
        ("usable_symbols", str(phy.USABLE_SYMBOLS_PER_SLOT)),
        ("n_prb", str(plan.n_prb)),
        ("nprb_pscch", str(phy.NPRB_PSCCH)),
        ("nprb_pssch", str(plan.nprb_pssch)),
        ("nprb_total", str(plan.nprb_total)),
        ("ue_per_slot", str(plan.ue_per_slot)),
        ("ue_supported", str(plan.ue_supported)),
        ("cell_population", ";".join(map(str, plan.cell_population))),
        ("prr_max", f"{plan.prr_max:.6f}"),
    ]
    if args.csv:
        print(",".join(name for name, _ in entries))
        print(",".join(value for _, value in entries))
    else:
        width = max(len(name) for name, _ in entries)
        for name, value in entries:
            print(f"{name:<{width}}  {value}")
    return 0


def _print_prb_table() -> None:
    print("bandwidth_mhz,mu,scs_khz,n_prb")
    for mu in phy.PRB_TABLE_MUS:
        for bw in phy.PRB_TABLE_BANDWIDTHS_MHZ:
            count = phy.PRB_TABLE.get((bw, mu))
            cell = "NA" if count is None else str(count)
            print(f"{bw},{mu},{phy.scs_khz(mu)},{cell}")


def _cmd_tables(args) -> int:
    cfg = _resolve_config(args)
    if args.prb or args.dump_bler:
        want_prb, want_bler = args.prb, args.dump_bler
    else:
        want_prb = want_bler = True
    if want_prb:
        _print_prb_table()
    if want_prb and want_bler:
        print()
    if want_bler:
        l2sm.dump_table(l2sm.active_table(cfg), sys.stdout)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config or campaign file")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config scalar (repeatable)",
    )


def _jobs(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0 (0: all cores), got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrv2xsim",
        description="System-level NR V2X sidelink broadcast simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute one (config, seed) run")
    _add_common(run_p)
    run_p.add_argument("--out", default="run.csv", metavar="PATH")
    run_p.add_argument(
        "--dump-samples", action="store_true",
        help="also write per-transmission samples next to --out",
    )
    run_p.add_argument("--dump-deployment", metavar="PATH",
                       help="write the first drop's deployment as CSV")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="expand and execute a campaign")
    _add_common(sweep_p)
    sweep_p.add_argument("--out", default="sweep.csv", metavar="PATH")
    sweep_p.add_argument("--jobs", type=_jobs, default=0, metavar="N",
                         help="parallel workers, at most one per SINR group "
                              "(default 0: all cores)")
    sweep_p.set_defaults(func=_cmd_sweep)

    cap_p = sub.add_parser("capacity", help="print the resource plan for a config")
    _add_common(cap_p)
    cap_p.add_argument("--csv", action="store_true")
    cap_p.set_defaults(func=_cmd_capacity)

    tab_p = sub.add_parser("tables", help="dump the PRB grid and BLER tables")
    _add_common(tab_p)
    tab_p.add_argument("--prb", action="store_true", help="only the PRB grid table")
    tab_p.add_argument("--dump-bler", action="store_true",
                       help="only the active BLER table")
    tab_p.set_defaults(func=_cmd_tables)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(args.func, args)


def run_command(func, args) -> int:
    """func(args) logging to stderr, where an error is one line and status 1."""
    if not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. piped into head); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
