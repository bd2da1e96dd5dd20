"""Large-scale channel: WINNER-family pathloss, shadowing, link budget, noise.

Every link joins two vehicles, so the pathloss takes one antenna height,
ue_height_m: no gNB link is simulated and a gNB has no height.

Fast fading is intentionally absent; it is already folded into the
SINR-to-BLER curves of the link abstraction, so drawing it here would
double count.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
# 10 ** (x / 10) == exp(x * LN10_OVER_10); exp runs several times faster than
# pow and lands within 1e-13 relative of it over the link budget's range
LN10_OVER_10 = math.log(10.0) / 10.0
# WINNER urban-microcell LOS uses effective antenna heights h' = h - 1 m.
EFFECTIVE_HEIGHT_OFFSET_M = 1.0


def breakpoint_distance_m(height_m: float, fc_ghz: float) -> float:
    h = height_m - EFFECTIVE_HEIGHT_OFFSET_M
    return 4.0 * h * h * fc_ghz * 1e9 / SPEED_OF_LIGHT_M_S


def pathloss_db(distance_m, height_m: float, fc_ghz: float, min_distance_m: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """WINNER B1 line-of-sight pathloss in dB of an array of distances
    between two antennas at height_m, the one vehicle height of the model.

    Below the breakpoint: 22.7 log10(d) + 41.0 + 20 log10(fc/5).
    At and beyond it:     40 log10(d) + 9.45 - 17.3 log10(h'_tx)
                          - 17.3 log10(h'_rx) + 2.7 log10(fc/5),
    with h'_tx = h'_rx = height_m - 1 m, subtracted as two terms.
    Distances under min_distance_m are clamped up to it.  The antennas
    stand above 1 m, as SimConfig requires of ue_height_m.

    Written into out when given (it may be distance_m itself), else into a
    fresh array.  The clamp, the log10 and the far branch run in place over
    every distance, and the near branch only at the distances below the
    breakpoint, each term added in the order above: the bytes of evaluating
    both branches everywhere and selecting.
    """
    h = height_m - EFFECTIVE_HEIGHT_OFFSET_M
    d = np.asarray(distance_m, dtype=float)
    pl = np.maximum(d, min_distance_m, out=np.empty_like(d) if out is None else out)
    # a mask, not flat indices, so that a scalar or an array of any shape works
    near = pl < breakpoint_distance_m(height_m, fc_ghz)
    freq_term = np.log10(fc_ghz / 5.0)
    np.log10(pl, out=pl)
    near_pl = pl[near]
    near_pl *= 22.7
    near_pl += 41.0
    near_pl += 20.0 * freq_term
    pl *= 40.0
    pl += 9.45
    pl -= 17.3 * np.log10(h)
    pl -= 17.3 * np.log10(h)
    pl += 2.7 * freq_term
    pl[near] = near_pl
    return pl


def shadowing_db(rng: np.random.Generator, sigma_db: float, size=None):
    """Zero-mean log-normal shadowing draw(s) in dB of a finite sigma_db >= 0.

    Standard normal draws scaled in place: the values and end state of
    ``rng.normal(0.0, sigma_db, size)``, which numpy computes as
    0.0 + sigma_db * z.  At sigma_db 0 a draw may be -0.0, which the link
    budget's subtraction does not tell from 0.0.
    """
    draws = rng.standard_normal(size)
    draws *= sigma_db
    return draws


def rx_power_mw(eirp_dbm: float, pathloss_db: np.ndarray, shadow_db: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Link budget: received power in mW, 10 ** (((eirp - pathloss) - shadow) / 10)
    computed as exp(((eirp - pathloss) - shadow) * LN10_OVER_10), written
    into out.  eirp_dbm is transmit power plus both antenna gains; out may
    be pathloss_db but not shadow_db, which is read after the first
    subtraction."""
    np.subtract(eirp_dbm, pathloss_db, out=out)
    out -= shadow_db
    out *= LN10_OVER_10
    return np.exp(out, out=out)


def noise_power_dbm(noise_density_dbm_hz: float, bandwidth_hz: float,
                    noise_figure_db: float) -> float:
    """Thermal noise over a bandwidth, plus receiver noise figure."""
    return noise_density_dbm_hz + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
