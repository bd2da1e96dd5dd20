"""Run configuration and sweep campaigns.

A run is described by a flat JSON object whose keys match the ``SimConfig``
field names one-to-one.  A campaign wraps a base config with sweep axes and
a seed list; ``expand_campaign`` turns it into the ordered cartesian product
of fully validated per-run configs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, fields, replace

from . import l2sm, phy

L2SM_DELTA_VALUES_DB = (0.0, 3.0, 5.0, 7.0)
SINR_COMBINING_MODES = ("linear", "db")
MAX_NONEQUAL_SPLIT = 4


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class SimConfig:
    """All tunables of a single simulation run."""

    # highway geometry
    highway_length_m: float = 5196.0
    lanes_per_direction: int = 3
    lane_width_m: float = 4.0            # per lane
    isd_m: float = 1732.0                # gNB inter-site distance
    num_gnb: int = 3
    gnb_height_m: float = 35.0
    ue_height_m: float = 1.5
    ivd_m: float = 20.0                  # inter-vehicle distance

    # radio and traffic
    carrier_freq_ghz: float = 5.9
    bandwidth_mhz: float = 10.0
    mu: int = 0                          # numerology index (FR1 sidelink: 0..2)
    tf_hz: float = 10.0                  # message transmission frequency
    packet_size_bytes: int = 300
    tx_power_dbm: float = 24.0
    tx_gain_db: float = 0.0
    rx_gain_db: float = 3.0
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    comm_range_m: float = 500.0

    # channel
    shadowing_sigma_db: float = 3.0
    min_pathloss_distance_m: float = 10.0

    # link abstraction and retransmission
    retx_scheme: str = "none"            # "none" | "equal" | "nonequal:<n>"
    l2sm_delta_db: float = 0.0           # sensitivity shift applied to retransmissions
    retx_sinr_combining: str = "linear"  # "linear" | "db"
    max_mcs_efficiency: float = 5.5547   # bits per resource element, sizes the data PRBs
    bler_table_path: str | None = None   # None selects the built-in curves

    # monte carlo
    seed: int = 1
    drops: int = 1


# field name -> annotation ("int", "float", "str" or "str | None")
_FIELD_KINDS = {f.name: f.type for f in fields(SimConfig)}


def parse_retx_scheme(value: str) -> tuple[str, int]:
    """Split a retx_scheme string into (kind, split index n)."""
    if value == "none":
        return "none", 0
    if value == "equal":
        return "equal", 0
    if value.startswith("nonequal:"):
        try:
            n = int(value.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"retx_scheme has malformed split index: {value!r}") from None
        if not 1 <= n <= MAX_NONEQUAL_SPLIT:
            raise ConfigError(
                f"retx_scheme split index must be 1..{MAX_NONEQUAL_SPLIT}: {value!r}"
            )
        return "nonequal", n
    raise ConfigError(
        f"retx_scheme must be 'none', 'equal' or 'nonequal:<n>': {value!r}"
    )


def _as_int(name: str, value):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _as_float(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_str(name: str, value):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _as_optional_str(name: str, value):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string or null, got {value!r}")
    return value


_COERCERS = {"int": _as_int, "float": _as_float, "str": _as_str,
             "str | None": _as_optional_str}


def _coerce(name: str, value):
    return _COERCERS[_FIELD_KINDS[name]](name, value)


def validate_config(cfg: SimConfig) -> None:
    """Raise ConfigError on the first violated field constraint."""
    for name in sorted(n for n, kind in _FIELD_KINDS.items() if kind == "float"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    for name in ("highway_length_m", "lane_width_m", "isd_m", "ivd_m",
                 "carrier_freq_ghz", "bandwidth_mhz", "tf_hz",
                 "min_pathloss_distance_m", "max_mcs_efficiency"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")
    for name in ("lanes_per_direction", "num_gnb", "packet_size_bytes", "drops"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    for name in ("comm_range_m", "shadowing_sigma_db", "seed"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be non-negative, got {getattr(cfg, name)}")
    if cfg.mu not in phy.PRB_TABLE_MUS:
        raise ConfigError(f"mu out of FR1 sidelink range: {cfg.mu} (allowed: 0, 1, 2)")
    try:
        phy.prb_count(cfg.bandwidth_mhz, cfg.mu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.l2sm_delta_db not in L2SM_DELTA_VALUES_DB:
        raise ConfigError(
            f"l2sm_delta_db must be one of {{0, 3, 5, 7}}, got {cfg.l2sm_delta_db}"
        )
    if cfg.retx_sinr_combining not in SINR_COMBINING_MODES:
        raise ConfigError(
            f"retx_sinr_combining must be 'linear' or 'db', got {cfg.retx_sinr_combining!r}"
        )
    # the pathloss model needs a positive effective antenna height (h - 1 m)
    if cfg.ue_height_m <= 1.0:
        raise ConfigError(f"ue_height_m must exceed 1 m, got {cfg.ue_height_m}")
    if cfg.gnb_height_m <= 0:
        raise ConfigError(f"gnb_height_m must be positive, got {cfg.gnb_height_m}")
    parse_retx_scheme(cfg.retx_scheme)


def config_from_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_FIELD_KINDS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = {name: _coerce(name, value) for name, value in doc.items()}
    cfg = SimConfig(**kwargs)
    validate_config(cfg)
    return cfg


def parse_config(text: str) -> SimConfig:
    """Parse a flat JSON config document, applying defaults for absent keys."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from None
    return config_from_dict(doc)


def config_fingerprint(cfg: SimConfig) -> str:
    """Short stable digest of every field except the seed, and of the BLER
    table file's contents when ``bler_table_path`` is set."""
    doc = {name: getattr(cfg, name) for name in _FIELD_KINDS if name != "seed"}
    if cfg.bler_table_path is not None:
        doc["bler_table_sha256"] = l2sm.read_table_file(cfg.bler_table_path)[0]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def apply_overrides(cfg: SimConfig, pairs: list[str]) -> SimConfig:
    """Apply repeatable ``key=value`` overrides on top of a parsed config."""
    doc = {name: getattr(cfg, name) for name in _FIELD_KINDS}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings such as retx_scheme=equal
        doc[key] = value
    return config_from_dict(doc)


@dataclass(frozen=True)
class CampaignSpec:
    """A base config plus sweep axes; None means the axis stays at the base value."""

    base: SimConfig
    sweep_ivd_m: tuple[float, ...] | None = None
    sweep_mu: tuple[int, ...] | None = None
    sweep_tf_hz: tuple[float, ...] | None = None
    sweep_retx: tuple[str, ...] | None = None
    sweep_l2sm_delta_db: tuple[float, ...] | None = None
    seeds: tuple[int, ...] | None = None


# campaign key -> the SimConfig field it sweeps, outermost axis first
_SWEEP_AXES = {
    "sweep_ivd_m": "ivd_m",
    "sweep_mu": "mu",
    "sweep_tf_hz": "tf_hz",
    "sweep_retx": "retx_scheme",
    "sweep_l2sm_delta_db": "l2sm_delta_db",
    "seeds": "seed",
}
_CAMPAIGN_KEYS = ("base", *_SWEEP_AXES)


def _parse_axis(name: str, values) -> tuple:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list")
    if not values:
        raise ConfigError(f"empty sweep list: {name}")
    return tuple(_coerce(_SWEEP_AXES[name], v) for v in values)


def parse_campaign(text: str) -> CampaignSpec:
    """Parse a campaign document; a plain flat config becomes a single point."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed campaign document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("campaign document must be a JSON object")
    if not any(key in doc for key in _CAMPAIGN_KEYS):
        return CampaignSpec(base=config_from_dict(doc))
    unknown = sorted(set(doc) - set(_CAMPAIGN_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown campaign key(s): {', '.join(unknown)} "
            "(flat config keys belong under 'base')"
        )
    base = config_from_dict(doc.get("base", {}))
    axes = {name: _parse_axis(name, doc[name]) for name in _SWEEP_AXES if name in doc}
    return CampaignSpec(base=base, **axes)


def expand_campaign(spec: CampaignSpec) -> list[tuple[SimConfig, int]]:
    """Expand to the ordered (config, seed) list: ivd, mu, tf, retx, delta, seed."""
    axes = [getattr(spec, key) or (getattr(spec.base, name),)
            for key, name in _SWEEP_AXES.items()]
    runs = []
    for point in itertools.product(*axes):
        cfg = replace(spec.base, **dict(zip(_SWEEP_AXES.values(), point)))
        validate_config(cfg)
        runs.append((cfg, cfg.seed))
    return runs
