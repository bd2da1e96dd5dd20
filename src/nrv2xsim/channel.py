"""Large-scale channel: WINNER-family pathloss, shadowing, link budget, noise.

Fast fading is intentionally absent; it is already folded into the
SINR-to-BLER curves of the link abstraction, so drawing it here would
double count.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
# WINNER urban-microcell LOS uses effective antenna heights h' = h - 1 m.
EFFECTIVE_HEIGHT_OFFSET_M = 1.0


def breakpoint_distance_m(tx_height_m: float, rx_height_m: float,
                          fc_ghz: float) -> float:
    h_tx = tx_height_m - EFFECTIVE_HEIGHT_OFFSET_M
    h_rx = rx_height_m - EFFECTIVE_HEIGHT_OFFSET_M
    return 4.0 * h_tx * h_rx * fc_ghz * 1e9 / SPEED_OF_LIGHT_M_S


def pathloss_db(distance_m, tx_height_m: float = 1.5, rx_height_m: float = 1.5,
                fc_ghz: float = 5.9, min_distance_m: float = 10.0) -> np.ndarray:
    """WINNER B1 line-of-sight pathloss in dB of an array of distances.

    Below the breakpoint: 22.7 log10(d) + 41.0 + 20 log10(fc/5).
    At and beyond it:     40 log10(d) + 9.45 - 17.3 log10(h'_tx)
                          - 17.3 log10(h'_rx) + 2.7 log10(fc/5).
    Distances under min_distance_m are clamped up to it.
    """
    h_tx = tx_height_m - EFFECTIVE_HEIGHT_OFFSET_M
    h_rx = rx_height_m - EFFECTIVE_HEIGHT_OFFSET_M
    if h_tx <= 0 or h_rx <= 0:
        raise ValueError(
            "effective antenna height must be positive "
            f"(tx {tx_height_m} m, rx {rx_height_m} m)"
        )
    d = np.maximum(np.asarray(distance_m, dtype=float), min_distance_m)
    d_bp = breakpoint_distance_m(tx_height_m, rx_height_m, fc_ghz)
    freq_term = np.log10(fc_ghz / 5.0)
    log_d = np.log10(d)
    near = 22.7 * log_d + 41.0 + 20.0 * freq_term
    far = (40.0 * log_d + 9.45
           - 17.3 * np.log10(h_tx) - 17.3 * np.log10(h_rx)
           + 2.7 * freq_term)
    return np.where(d < d_bp, near, far)


def shadowing_db(rng: np.random.Generator, sigma_db: float, size=None):
    """Zero-mean log-normal shadowing draw(s) in dB."""
    if sigma_db < 0:
        raise ValueError(f"sigma_db must be non-negative, got {sigma_db}")
    return rng.normal(0.0, sigma_db, size)


def rx_power_dbm(tx_power_dbm, tx_gain_db, rx_gain_db, pl_db, shadow_db=0.0):
    """Link budget: transmit power plus gains minus pathloss and shadowing."""
    return tx_power_dbm + tx_gain_db + rx_gain_db - pl_db - shadow_db


def noise_power_dbm(noise_density_dbm_hz: float, nprb_pssch: int,
                    scs_hz: float, noise_figure_db: float) -> float:
    """Thermal noise over the message's data bandwidth, plus receiver noise figure."""
    bandwidth_hz = nprb_pssch * 12 * scs_hz
    if bandwidth_hz <= 0:
        raise ValueError(f"noise bandwidth must be positive, got {bandwidth_hz} Hz")
    return noise_density_dbm_hz + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
