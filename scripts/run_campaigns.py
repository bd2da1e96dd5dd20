#!/usr/bin/env python3
"""Run the example campaigns in campaigns/ as one pooled sweep; write each CSV to results/."""

import argparse
import pathlib

from nrv2xsim import cli, metrics
from nrv2xsim.config import expand_campaign, parse_campaign


def _sweep_all(args) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = sorted((root / "campaigns").glob("*.json"))
    # every file is checked before any run starts or any CSV is written
    campaigns = [expand_campaign(parse_campaign(path.read_text())) for path in paths]
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for path, results in zip(paths, cli.sweep_campaigns(campaigns, args.jobs)):
        rows = metrics.aggregate(results)
        out = outdir / f"{path.stem}.csv"
        metrics.write_sweep_csv(rows, out)
        cli.log.info("wrote %s (%d sweep points)", out, len(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=cli._jobs, default=0, metavar="N",
                        help="parallel workers (default 0: all cores)")
    parser.add_argument("--outdir", default="results")
    return cli.run_command(_sweep_all, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
