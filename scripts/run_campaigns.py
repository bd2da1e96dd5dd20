#!/usr/bin/env python3
"""Run every example campaign in campaigns/ and collect the CSVs in results/."""

import argparse
import pathlib
import sys

from nrv2xsim import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=cli._jobs, default=0, metavar="N",
                        help="parallel workers (default 0: all cores)")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for campaign in sorted((root / "campaigns").glob("*.json")):
        out = outdir / f"{campaign.stem}.csv"
        argv = ["sweep", "--config", str(campaign), "--out", str(out)]
        if args.jobs:
            argv += ["--jobs", str(args.jobs)]
        print(f"== {campaign.name} -> {out}", file=sys.stderr)
        code = cli.main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
