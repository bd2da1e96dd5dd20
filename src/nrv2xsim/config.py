"""Run configuration and sweep campaigns.

A run is described by a flat JSON object whose keys match the ``SimConfig``
field names one-to-one.  A campaign wraps a base config with sweep axes and
a seed list; ``expand_campaign`` turns it into the ordered cartesian product
of per-run configs.  A SimConfig checks its fields and a CampaignSpec its
axes when it is built, whether parsed, built in code or made by replace,
so every config is one the model can simulate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import reprlib
from dataclasses import dataclass, field, fields, replace

from . import l2sm, phy

L2SM_DELTA_VALUES_DB = (0.0, 3.0, 5.0, 7.0)


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
    max_mcs_efficiency: float = 5.5547   # bits per resource element, sizes the data PRBs
    bler_table_path: str | None = None   # None selects the built-in curves

    # monte carlo
    seed: int = 1
    drops: int = 1

    def __post_init__(self):
        """Type each field as the parser does, then raise ConfigError on the first
        violated constraint, whether parsed, built in code or made by replace."""
        for name, kind in _FIELD_KINDS.items():
            object.__setattr__(self, name, _COERCERS[kind](name, getattr(self, name)))
        for name in ("highway_length_m", "lane_width_m", "isd_m", "ivd_m",
                     "carrier_freq_ghz", "bandwidth_mhz", "tf_hz",
                     "min_pathloss_distance_m", "max_mcs_efficiency"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("lanes_per_direction", "num_gnb", "packet_size_bytes", "drops"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("comm_range_m", "shadowing_sigma_db", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        # cell k is the segment [k, k + 1) * isd_m and the last cell takes the rest
        # of the highway (scenario): a cell longer than isd_m is no cell of the model
        if self.highway_length_m > self.num_gnb * self.isd_m:
            last_cell_m = self.highway_length_m - (self.num_gnb - 1) * self.isd_m
            raise ConfigError(
                f"last cell is {last_cell_m} m, longer than isd_m {self.isd_m} m: "
                "highway_length_m must be at most num_gnb * isd_m"
            )
        try:
            phy.scs_khz(self.mu)
            phy.prb_count(self.bandwidth_mhz, self.mu)
            phy.phase_shares(self.retx_scheme)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.l2sm_delta_db not in L2SM_DELTA_VALUES_DB:
            raise ConfigError(
                f"l2sm_delta_db must be one of {{0, 3, 5, 7}}, got {self.l2sm_delta_db}"
            )
        # the pathloss model needs a positive effective antenna height (h - 1 m)
        if self.ue_height_m <= 1.0:
            raise ConfigError(f"ue_height_m must exceed 1 m, got {self.ue_height_m}")


# field name -> annotation ("int", "float", "str" or "str | None")
_FIELD_KINDS = {f.name: f.type for f in fields(SimConfig)}


def _as_int(name: str, value):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def _as_float(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {reprlib.repr(value)}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    # -0.0 becomes 0.0, so that a signed zero simulates and fingerprints as
    # 0.0 does
    return value + 0.0


def _as_str(name: str, value):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {reprlib.repr(value)}")
    return value


def _as_optional_str(name: str, value):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string or null, got {reprlib.repr(value)}")
    return value


_COERCERS = {"int": _as_int, "float": _as_float, "str": _as_str,
             "str | None": _as_optional_str}


def config_from_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_FIELD_KINDS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return SimConfig(**doc)


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} appears twice in one object")
        doc[key] = value
    return doc


def _load(text: str, kind: str):
    """Decode JSON, rejecting a key repeated within an object: json keeps the last."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:  # a repeated key
        raise
    except ValueError as exc:  # JSONDecodeError, or an integer beyond 4300 digits
        raise ConfigError(f"malformed {kind} document: {exc}") from None


def parse_config(text: str) -> SimConfig:
    """Parse a flat JSON config document, applying defaults for absent keys."""
    return config_from_dict(_load(text, "config"))


def config_fingerprint(cfg: SimConfig, table: l2sm.BlerTable | None = None) -> str:
    """Short stable digest of every field except the seed, and of the BLER table file's
    bytes when ``bler_table_path`` is set: as table (a run's) records them, else as read now."""
    doc = {name: getattr(cfg, name) for name in _FIELD_KINDS if name != "seed"}
    if cfg.bler_table_path is not None:
        doc["bler_table_sha256"] = (table or l2sm.active_table(cfg)).sha256
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
        except ValueError:
            value = raw  # bare strings such as retx_scheme=equal
        doc[key] = value
    return config_from_dict(doc)


# campaign key -> the SimConfig field it sweeps, outermost axis first
_SWEEP_AXES = {
    "sweep_ivd_m": "ivd_m",
    "sweep_mu": "mu",
    "sweep_tf_hz": "tf_hz",
    "sweep_retx": "retx_scheme",
    "sweep_l2sm_delta_db": "l2sm_delta_db",
    "seeds": "seed",
}


@dataclass(frozen=True)
class CampaignSpec:
    """A base config plus sweep axes: campaign key -> values, each key one of
    ``_SWEEP_AXES``.  An absent axis stays at the base value."""

    base: SimConfig
    axes: dict[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        """Type each axis like its field; raise ConfigError on an unknown key, a
        non-list or empty axis or a value listed twice (it would pool one sample twice)."""
        unknown = sorted(set(self.axes) - set(_SWEEP_AXES))
        if unknown:
            raise ConfigError(f"unknown campaign key(s): {', '.join(unknown)} "
                              "(flat config keys belong under 'base')")
        axes = {}
        for key, values in self.axes.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"{key} must be a list")
            name = _SWEEP_AXES[key]
            values = tuple(_COERCERS[_FIELD_KINDS[name]](name, v) for v in values)
            if not values:
                raise ConfigError(f"empty sweep list: {key}")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{key} lists {value!r} twice")
            axes[key] = values
        object.__setattr__(self, "axes", axes)


def parse_campaign(text: str) -> CampaignSpec:
    """Parse a campaign document; a plain flat config becomes a single point."""
    doc = _load(text, "campaign")
    if not isinstance(doc, dict):
        raise ConfigError("campaign document must be a JSON object")
    if set(doc).isdisjoint({"base", *_SWEEP_AXES}):
        return CampaignSpec(base=config_from_dict(doc))
    base = config_from_dict(doc.get("base", {}))
    axes = {key: values for key, values in doc.items() if key != "base"}
    return CampaignSpec(base=base, axes=axes)


def expand_campaign(spec: CampaignSpec) -> list[tuple[SimConfig, int]]:
    """Expand to the ordered (config, seed) list: ivd, mu, tf, retx, delta, seed."""
    axes = [spec.axes.get(key, (getattr(spec.base, name),))
            for key, name in _SWEEP_AXES.items()]
    configs = [replace(spec.base, **dict(zip(_SWEEP_AXES.values(), point)))
               for point in itertools.product(*axes)]
    return [(cfg, cfg.seed) for cfg in configs]
