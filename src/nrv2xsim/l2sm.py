"""Link-to-system mapping: per-MCS SINR-to-BLER curves and reception draws.

The built-in curves are synthetic logistic curves, honestly labeled as
such: real link-simulation output can be dropped in through the CSV
format (header ``mcs,snr_db,bler``) without touching any lookup code.
Receiver-sensitivity variants are not separate tables; the dB shift is
applied at lookup time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MCS_MIN = 1
MCS_MAX = 15

# Built-in curve shape: BLER(s) = 1 / (1 + exp(slope * (s - s50))) sampled
# on a 0.1 dB grid, with the 50% point stepping 2 dB per MCS index.
DEFAULT_GRID_DB = np.round(np.linspace(-10.0, 30.0, 401), 1)
LOGISTIC_SLOPE_PER_DB = 1.5
MIDPOINT_BASE_DB = -6.0
MIDPOINT_STEP_DB = 2.0

CSV_HEADER = ("mcs", "snr_db", "bler")


@dataclass(frozen=True, eq=False)
class BlerTable:
    """Per-MCS (snr_db, bler) curves."""

    curves: dict[int, tuple[np.ndarray, np.ndarray]]

    def mcs_indices(self) -> list[int]:
        return sorted(self.curves)


def _logistic_bler(snr_db: np.ndarray, mcs: int) -> np.ndarray:
    midpoint = MIDPOINT_BASE_DB + MIDPOINT_STEP_DB * (mcs - MCS_MIN)
    arg = np.clip(LOGISTIC_SLOPE_PER_DB * (snr_db - midpoint), -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(arg))


@lru_cache(maxsize=1)
def default_bler_table() -> BlerTable:
    """Built-in synthetic curves for MCS 1..15."""
    curves = {
        mcs: (DEFAULT_GRID_DB.copy(), _logistic_bler(DEFAULT_GRID_DB, mcs))
        for mcs in range(MCS_MIN, MCS_MAX + 1)
    }
    return BlerTable(curves=curves)


def _validate_curve(mcs: int, snr: np.ndarray, bler: np.ndarray) -> None:
    if snr.size < 2:
        raise ValueError(f"MCS {mcs}: need at least two grid points")
    if not np.all(np.diff(snr) > 0):
        raise ValueError(f"MCS {mcs}: snr_db grid must be strictly increasing")
    if np.any(bler < 0) or np.any(bler > 1):
        raise ValueError(f"MCS {mcs}: bler values must lie in [0, 1]")
    if np.any(np.diff(bler) > 0):
        raise ValueError(f"MCS {mcs}: bler must be non-increasing in snr_db")


def load_table(source) -> BlerTable:
    """Load and validate a curve table from a path or open text file."""
    if hasattr(source, "read"):
        return _parse_table(source)
    with open(source, "r", newline="") as handle:
        return _parse_table(handle)


def _parse_table(handle) -> BlerTable:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("missing MCS 1..15 (empty table)") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ValueError(f"expected header 'mcs,snr_db,bler', got {header!r}")
    points: dict[int, list[tuple[float, float]]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
        try:
            mcs = int(row[0])
            snr = float(row[1])
            bler = float(row[2])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed row {row!r}") from None
        if not MCS_MIN <= mcs <= MCS_MAX:
            raise ValueError(f"line {lineno}: mcs out of range 1..15: {mcs}")
        points.setdefault(mcs, []).append((snr, bler))
    missing = [m for m in range(MCS_MIN, MCS_MAX + 1) if m not in points]
    if len(missing) == MCS_MAX:
        raise ValueError("missing MCS 1..15 (empty table)")
    if missing:
        raise ValueError(f"missing MCS: {', '.join(map(str, missing))}")
    curves = {}
    for mcs, rows in points.items():
        snr = np.array([r[0] for r in rows])
        bler = np.array([r[1] for r in rows])
        _validate_curve(mcs, snr, bler)
        curves[mcs] = (snr, bler)
    return BlerTable(curves=curves)


def dump_table(table: BlerTable, handle) -> None:
    """Write a table in the loadable CSV format, sorted by (mcs, snr_db)."""
    handle.write("mcs,snr_db,bler\n")
    for mcs in table.mcs_indices():
        snr, bler = table.curves[mcs]
        for s, b in zip(snr, bler):
            handle.write(f"{mcs},{float(s)!r},{float(b)!r}\n")


@lru_cache(maxsize=8)
def _load_cached(path: str) -> BlerTable:
    return load_table(path)


def active_table(cfg) -> BlerTable:
    """The table a run uses: the configured file if set, else the built-in."""
    if cfg.bler_table_path is not None:
        return _load_cached(cfg.bler_table_path)
    return default_bler_table()


def bler_lookup(table: BlerTable, mcs: int, sinr_db, delta_db: float = 0.0) -> np.ndarray:
    """BLER at (sinr + delta): linear interpolation, constant beyond the grid."""
    curve = table.curves.get(int(mcs))
    if curve is None:
        raise ValueError(f"unknown mcs: {mcs}")
    snr, bler = curve
    return np.interp(np.asarray(sinr_db, dtype=float) + delta_db, snr, bler)


def reception_draw(bler, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli reception: draw X ~ U[0,1) per link; received iff X >= bler.

    P(received) = 1 - bler.
    """
    b = np.asarray(bler, dtype=float)
    if np.any(b < 0) or np.any(b > 1):
        raise ValueError("bler must lie in [0, 1]")
    return rng.random(b.shape) >= b
