#!/usr/bin/env python3
"""Print the supported-transmitter grid over bandwidth, numerology and rate.

Handy for picking sweep points: shows where the overload ceiling bites for
a given inter-vehicle distance.
"""

import argparse
import sys

from nrv2xsim import phy
from nrv2xsim.config import ConfigError, config_from_dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ivd", type=float, default=10.0)
    parser.add_argument("--retx", default="none")
    args = parser.parse_args()

    try:
        grid = [
            config_from_dict({"bandwidth_mhz": bw, "mu": mu, "tf_hz": tf,
                              "ivd_m": args.ivd, "retx_scheme": args.retx})
            for bw in (10.0, 20.0) for mu in (0, 1, 2) for tf in (10.0, 20.0, 30.0)
        ]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    largest = max(phy.build_resource_plan(grid[0]).cell_population)
    print(f"ivd={args.ivd:g} m -> {largest} vehicles per cell, retx={args.retx}")
    print("bandwidth_mhz,mu,tf_hz,ue_supported,prr_max")
    for cfg in grid:
        plan = phy.build_resource_plan(cfg)
        print(f"{cfg.bandwidth_mhz:g},{cfg.mu},{cfg.tf_hz:g},"
              f"{plan.ue_supported},{plan.prr_max:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
