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

# Values per pass of the indexed lookup, so its temporaries stay a few
# hundred kB however many links one call brings.
_LOOKUP_CHUNK = 1 << 14
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
        """b(x), by the arithmetic lookup() repeats in its buffers."""
        return (x * self.inv - self.offset).astype(np.intp)

    def lookup(self, values: np.ndarray, delta_db: float, out: np.ndarray) -> None:
        """out = BLER at values + delta_db, both flat, one chunk at a time."""
        size = min(values.size, _LOOKUP_CHUNK)
        x, g = np.empty(size), np.empty(size)
        b, j = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
        for lo in range(0, values.size, _LOOKUP_CHUNK):
            n = min(_LOOKUP_CHUNK, values.size - lo)
            xc, gc, bc, jc = x[:n], g[:n], b[:n], j[:n]
            np.add(values[lo:lo + n], delta_db, out=xc)
            if np.isnan(xc.min()):
                raise ValueError("sinr_db + delta_db must not be NaN")
            np.clip(xc, self.lo, self.hi, out=xc)
            np.multiply(xc, self.inv, out=gc)
            np.subtract(gc, self.offset, out=gc)
            np.copyto(bc, gc, casting="unsafe")
            # every index is in range; "clip" only spares take() its buffer
            np.take(self.first, bc, out=jc, mode="clip")
            for _ in range(self.k):  # the grid is sorted: once a step fails, all do
                np.take(self.thresholds, jc, out=gc, mode="clip")
                np.less_equal(gc, xc, out=bc)
                jc += bc
            np.take(self.snr, jc, out=gc, mode="clip")
            np.subtract(xc, gc, out=xc)
            np.take(self.slopes, jc, out=gc, mode="clip")
            np.multiply(xc, gc, out=xc)
            np.take(self.bler, jc, out=gc, mode="clip")
            np.add(xc, gc, out=out[lo:lo + n])


@dataclass(frozen=True, eq=False)
class BlerTable:
    """Per-MCS (snr_db, bler) curves, validated, each with its lookup index."""

    curves: dict[int, tuple[np.ndarray, np.ndarray]]
    _index: dict[int, _CurveIndex] = field(init=False, repr=False)

    def __post_init__(self):
        curves = {}
        for mcs, (snr, bler) in self.curves.items():
            # + 0.0 reads a -0.0 BLER as 0.0, the one value whose sign the
            # index's slope term would not keep
            snr, bler = np.array(snr, dtype=float), np.array(bler, dtype=float) + 0.0
            _validate_curve(mcs, snr, bler)
            curves[mcs] = (snr, bler)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "_index", {m: _CurveIndex(*c) for m, c in curves.items()})

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
    return BlerTable(curves={
        mcs: (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
        for mcs, rows in points.items()
    })


def dump_table(table: BlerTable, handle) -> None:
    """Write a table in the loadable CSV format, sorted by (mcs, snr_db)."""
    handle.write("mcs,snr_db,bler\n")
    for mcs in table.mcs_indices():
        snr, bler = table.curves[mcs]
        for s, b in zip(snr, bler):
            handle.write(f"{mcs},{float(s)!r},{float(b)!r}\n")


def read_table_file(path) -> tuple[str, bytes]:
    """A table file's sha256 and its bytes.  The digest stands for the
    curves in the run fingerprint and in the loaded-table cache alike."""
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest(), data


# Loaded tables by file digest, oldest first: a file rewritten at one path
# loads its new curves.
_LOADED: dict[str, BlerTable] = {}
_LOADED_MAX = 8


def active_table(cfg) -> BlerTable:
    """The table a run uses: the configured file if set, else the built-in."""
    if cfg.bler_table_path is None:
        return default_bler_table()
    digest, data = read_table_file(cfg.bler_table_path)
    if digest not in _LOADED:
        if len(_LOADED) >= _LOADED_MAX:
            del _LOADED[next(iter(_LOADED))]
        _LOADED[digest] = load_table(io.StringIO(data.decode("utf-8"), newline=""))
    return _LOADED[digest]


def bler_lookup(table: BlerTable, mcs: int, sinr_db, delta_db: float = 0.0) -> np.ndarray:
    """BLER at (sinr + delta): linear interpolation, constant beyond the grid.

    Raises ValueError on a NaN sum rather than returning a BLER for it.
    """
    index = table._index.get(int(mcs))
    if index is None:
        raise ValueError(f"unknown mcs: {mcs}")
    values = np.asarray(sinr_db, dtype=float)
    out = np.empty(values.shape)
    index.lookup(values.reshape(-1), delta_db, out.reshape(-1))
    return out


def reception_draw(bler, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli reception: draw X ~ U[0,1) per link; received iff X >= bler.

    P(received) = 1 - bler.
    """
    b = np.asarray(bler, dtype=float)
    if b.size and not (0 <= b.min() and b.max() <= 1):  # NaN fails both
        raise ValueError("bler must lie in [0, 1]")
    return rng.random(b.shape) >= b
