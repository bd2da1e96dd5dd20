"""Link-to-system mapping: per-MCS SINR-to-BLER curves and reception draws.

The built-in curves are synthetic logistic curves, honestly labeled as
such: real link-simulation output can be dropped in through the CSV
format (header ``mcs,snr_db,bler``) without touching any lookup code.
Receiver-sensitivity variants are not separate tables; the dB shift is
applied at lookup time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
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

# Buckets per grid point in a curve's index.
_BUCKETS_PER_POINT = 4


class _CurveIndex:
    """One curve's lookup index: linear interpolation with constant
    extrapolation, byte for byte what numpy's ``interp`` returns.

    ``interp`` binary-searches the grid for every value.  Here a uniform
    bucket map ``b(x) = int(x * inv - lo * inv)`` finds the segment:
    ``first[b]`` counts the grid points in earlier buckets, and ``k`` steps
    over the next grid points (``k`` is the most any bucket holds) add
    those in bucket ``b`` at or below ``x``.  b() is monotone under
    rounding, so points in earlier buckets lie at or below ``x`` and points
    in later buckets above it: the count is exact however the grid
    clusters.  The segment's ``slope * (x - snr) + bler`` is interp's own
    expression and slope; at a grid point the slope term is 0, and values
    clipped to the grid's ends give interp's constants beyond it.
    """

    def __init__(self, snr: np.ndarray, bler: np.ndarray):
        self.lo, self.hi = float(snr[0]), float(snr[-1])
        inv = _BUCKETS_PER_POINT * snr.size / (self.hi - self.lo)
        # a span too wide or too narrow for a finite inv gets one bucket
        self.inv = inv if math.isfinite(inv) else 0.0
        self.offset = self.lo * self.inv
        per_bucket = np.bincount(self._bucket(snr))
        self.first = np.concatenate(([0], np.cumsum(per_bucket)[:-1]))
        self.k = int(per_bucket.max())
        self.thresholds = np.concatenate((snr, np.full(self.k, np.inf)))
        # indexed by the count of grid points <= x, segment index + 1
        slopes = (bler[1:] - bler[:-1]) / (snr[1:] - snr[:-1])
        self.slopes = np.concatenate(([0.0], slopes, [0.0]))
        self.snr = np.concatenate(([0.0], snr))
        self.bler = np.concatenate(([0.0], bler))

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        """b(x) of each value x, the bucket both the index and lookup() use."""
        return (x * self.inv - self.offset).astype(np.intp)

    def lookup(self, values: np.ndarray, delta_db: float) -> np.ndarray:
        """BLER at each of the flat values + delta_db."""
        x = values + delta_db
        if x.size and np.isnan(x.min()):
            raise ValueError("sinr_db + delta_db must not be NaN")
        np.clip(x, self.lo, self.hi, out=x)
        j = self.first[self._bucket(x)]
        for _ in range(self.k):  # the grid is sorted: once a step fails, all do
            j += self.thresholds[j] <= x
        return (x - self.snr[j]) * self.slopes[j] + self.bler[j]


@dataclass(frozen=True, eq=False)
class BlerTable:
    """Per-MCS (snr_db, bler) curves of exactly MCS 1..15, validated, each with
    its lookup index; sha256 is that of the file bytes they were loaded from."""

    curves: dict[int, tuple[np.ndarray, np.ndarray]]
    _index: dict[int, _CurveIndex] = field(init=False, repr=False)
    sha256: str | None = None

    def __post_init__(self):
        extra = sorted(set(self.curves) - set(range(MCS_MIN, MCS_MAX + 1)))
        if extra:
            raise ValueError(f"mcs out of range 1..15: {', '.join(map(str, extra))}")
        missing = [m for m in range(MCS_MIN, MCS_MAX + 1) if m not in self.curves]
        if len(missing) == MCS_MAX:
            raise ValueError("missing MCS 1..15 (empty table)")
        if missing:
            raise ValueError(f"missing MCS: {', '.join(map(str, missing))}")
        curves = {}
        for mcs, (snr, bler) in self.curves.items():
            # + 0.0 reads a -0.0 BLER as 0.0, the one value whose sign the
            # index's slope term would not keep
            snr, bler = np.array(snr, dtype=float), np.array(bler, dtype=float) + 0.0
            _validate_curve(mcs, snr, bler)
            curves[mcs] = (snr, bler)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "_index", {m: _CurveIndex(*c) for m, c in curves.items()})


def _logistic_bler(snr_db: np.ndarray, mcs: int) -> np.ndarray:
    midpoint = MIDPOINT_BASE_DB + MIDPOINT_STEP_DB * (mcs - MCS_MIN)
    arg = np.clip(LOGISTIC_SLOPE_PER_DB * (snr_db - midpoint), -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(arg))


@lru_cache(maxsize=1)
def default_bler_table() -> BlerTable:
    """Built-in synthetic curves for MCS 1..15."""
    curves = {
        mcs: (DEFAULT_GRID_DB, _logistic_bler(DEFAULT_GRID_DB, mcs))
        for mcs in range(MCS_MIN, MCS_MAX + 1)
    }
    return BlerTable(curves=curves)


def _validate_curve(mcs: int, snr: np.ndarray, bler: np.ndarray) -> None:
    if snr.size < 2:
        raise ValueError(f"MCS {mcs}: need at least two grid points")
    if not (np.all(np.isfinite(snr)) and np.all(np.isfinite(bler))):
        raise ValueError(f"MCS {mcs}: snr_db and bler must be finite")
    with np.errstate(over="ignore"):
        step = np.diff(snr)
        slope = np.diff(bler) / step
    if not np.all(step > 0):
        raise ValueError(f"MCS {mcs}: snr_db grid must be strictly increasing")
    if np.any(bler < 0) or np.any(bler > 1):
        raise ValueError(f"MCS {mcs}: bler values must lie in [0, 1]")
    if np.any(slope > 0):
        raise ValueError(f"MCS {mcs}: bler must be non-increasing in snr_db")
    if not (np.all(np.isfinite(step)) and np.all(np.isfinite(slope))):
        raise ValueError(f"MCS {mcs}: snr_db steps and bler slopes must be finite")


def _read_curves(handle) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The (snr_db, bler) rows of each MCS of a table file, checked only
    for their format: BlerTable validates the curves."""
    reader = csv.reader(handle)
    header = next(reader, CSV_HEADER)  # an empty file is a table of no rows
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
    return {mcs: (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
            for mcs, rows in points.items()}


def dump_table(table: BlerTable, handle) -> None:
    """Write a table in the loadable CSV format, sorted by (mcs, snr_db)."""
    handle.write("mcs,snr_db,bler\n")
    for mcs in range(MCS_MIN, MCS_MAX + 1):
        snr, bler = table.curves[mcs]
        for s, b in zip(snr, bler):
            handle.write(f"{mcs},{float(s)!r},{float(b)!r}\n")


def read_table_file(path) -> bytes:
    """A table file's bytes: they key the loaded-table cache, and the loaded
    table's sha256 of them stands for the curves in the run fingerprint."""
    with open(path, "rb") as handle:
        return handle.read()


# Keyed on the file's bytes, so a file rewritten at one path loads its new
# curves.
@lru_cache(maxsize=8)
def _loaded_table(data: bytes) -> BlerTable:
    curves = _read_curves(io.StringIO(data.decode("utf-8"), newline=""))
    return BlerTable(curves=curves, sha256=hashlib.sha256(data).hexdigest())


def active_table(cfg) -> BlerTable:
    """The table a run uses: the configured file if set, else the built-in."""
    if cfg.bler_table_path is None:
        return default_bler_table()
    return _loaded_table(read_table_file(cfg.bler_table_path))


def bler_lookup(table: BlerTable, mcs: int, sinr_db, delta_db: float = 0.0) -> np.ndarray:
    """BLER at (sinr + delta): linear interpolation, constant beyond the grid.

    Raises ValueError on a NaN sum rather than returning a BLER for it.
    """
    index = table._index[mcs]
    values = np.asarray(sinr_db, dtype=float)
    return index.lookup(values.reshape(-1), delta_db).reshape(values.shape)


def reception_draw(bler, uniforms: np.ndarray) -> np.ndarray:
    """Bernoulli reception: received iff X >= bler, X each link's U[0,1)
    variate in uniforms.

    P(received) = 1 - bler; BlerTable checks the curves' range at build time.
    """
    return uniforms >= bler
