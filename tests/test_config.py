import dataclasses
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrv2xsim import config, phy
from nrv2xsim.config import (
    CampaignSpec,
    ConfigError,
    SimConfig,
    apply_overrides,
    config_fingerprint,
    expand_campaign,
    parse_campaign,
    parse_config,
)
from nrv2xsim.metrics import RunKey

FLOAT_FIELDS = sorted(f.name for f in fields(SimConfig) if f.type == "float")


def _assert_rejected(doc, match):
    """doc's config raises ConfigError matching match however it is made:
    parsed, built in code or made by dataclasses.replace."""
    for make in (lambda: parse_config(json.dumps(doc)), lambda: SimConfig(**doc),
                 lambda: dataclasses.replace(SimConfig(), **doc)):
        with pytest.raises(ConfigError, match=match):
            make()


def test_empty_document_gives_defaults():
    cfg = parse_config("{}")
    assert cfg.highway_length_m == 5196
    assert cfg.isd_m == 1732
    assert cfg.carrier_freq_ghz == 5.9
    assert cfg.packet_size_bytes == 300
    assert cfg.tx_power_dbm == 24
    assert cfg.rx_gain_db == 3
    assert cfg.comm_range_m == 500
    assert cfg.num_gnb == 3
    assert cfg.lanes_per_direction == 3


def test_mu_out_of_range_names_field():
    _assert_rejected({"mu": 3}, r"^mu out of FR1 sidelink range: 3 \(allowed: 0, 1, 2\)$")


def test_undefined_prb_pair_rejected():
    _assert_rejected({"bandwidth_mhz": 5.0, "mu": 2}, "undefined PRB entry")


def test_unknown_key_rejected():
    # no formula of the sidelink-only model reads a gNB height, so none is a
    # field, and the equal scheme always combines its phases' linear SINR
    for key, value in (("speed_kmh", "120"), ("gnb_height_m", "120"),
                       ("retx_sinr_combining", '"db"')):
        message = re.escape(f"unknown config key(s): {key}")
        with pytest.raises(ConfigError, match=message):
            parse_config(f'{{"{key}": {value}}}')
        with pytest.raises(ConfigError, match=message):
            apply_overrides(SimConfig(), [f"{key}={value}"])


def test_malformed_document():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("{not json")


def test_bad_delta_rejected():
    _assert_rejected({"l2sm_delta_db": 4.0}, "l2sm_delta_db")


@pytest.mark.parametrize("doc, message", [
    ({"ivd_m": 0.0}, "ivd_m must be positive, got 0.0"),
    ({"highway_length_m": 0.0}, "highway_length_m must be positive, got 0.0"),
    ({"tf_hz": 0.0}, "tf_hz must be positive, got 0.0"),
    ({"ue_height_m": 1.0}, "ue_height_m must exceed 1 m, got 1.0"),
    ({"shadowing_sigma_db": -1.0}, "shadowing_sigma_db must be non-negative, got -1.0"),
], ids=["ivd_m", "highway_length_m", "tf_hz", "ue_height_m", "shadowing_sigma_db"])
def test_helper_inputs_checked_by_the_config(doc, message):
    # vehicles_per_lane takes the highway and the spacing unchecked,
    # ue_supported the rate, pathloss_db the antenna height and shadowing_db
    # the sigma: only the config keeps them in range
    _assert_rejected(doc, f"^{message}$")


@pytest.mark.parametrize("doc", [
    {},                                                   # 5196 m = 3 * 1732 m
    {"highway_length_m": 2000},                           # a short last cell
    {"highway_length_m": 3464, "num_gnb": 2},
    {"highway_length_m": 100, "num_gnb": 3},              # sites beyond the road
    # num_gnb * isd_m whose last cell, highway - 2 * isd_m, rounds 1 ulp above isd_m
    {"highway_length_m": 3 * 341.4158723658394, "isd_m": 341.4158723658394},
])
def test_highway_up_to_num_gnb_cells_accepted(doc):
    parse_config(json.dumps(doc))


@pytest.mark.parametrize("doc, last_cell, isd", [
    ({"highway_length_m": 20000.0}, 16536.0, 1732.0),
    ({"isd_m": 100.0}, 4996.0, 100.0),
    ({"num_gnb": 1}, 5196.0, 1732.0),
    ({"highway_length_m": 5196.5}, 1732.5, 1732.0),
])
def test_cell_longer_than_isd_rejected(doc, last_cell, isd):
    _assert_rejected(doc, rf"^last cell is {last_cell} m, longer than isd_m {isd} m")


def test_negative_seed_rejected():
    _assert_rejected({"seed": -1}, "seed")


@pytest.mark.parametrize("doc, message", [
    ({"mu": True}, "mu must be an integer, got True"),
    ({"drops": 1.5}, "drops must be an integer, got 1.5"),
    ({"ivd_m": "40"}, "ivd_m must be a number, got '40'"),
    ({"retx_scheme": 3}, "retx_scheme must be a string, got 3"),
    ({"bler_table_path": 3}, "bler_table_path must be a string or null, got 3"),
], ids=["mu", "drops", "ivd_m", "retx_scheme", "bler_table_path"])
def test_wrong_field_type_rejected(doc, message):
    _assert_rejected(doc, f"^{message}$")


def test_code_built_config_typed_like_parsed():
    # a number is stored as the parser stores it, so the fingerprint and the
    # sweep key do not depend on how the config was made
    built, parsed = SimConfig(ivd_m=40), parse_config('{"ivd_m": 40}')
    assert config_fingerprint(built) == config_fingerprint(parsed) == "1df2d58fea0a"
    assert repr(RunKey.from_config(built)) == repr(RunKey.from_config(parsed))
    assert repr(dataclasses.replace(SimConfig(), ivd_m=40)) == repr(parsed)
    seed = SimConfig(seed=2.0).seed
    assert type(seed) is int and seed == 2
    # and so is each value of a campaign axis
    spec = CampaignSpec(base=SimConfig(), axes={"sweep_ivd_m": [40], "seeds": (2.0,)})
    assert spec == parse_campaign('{"sweep_ivd_m": [40], "seeds": [2]}')
    assert repr(spec.axes) == "{'sweep_ivd_m': (40.0,), 'seeds': (2,)}"


@pytest.mark.parametrize("value,expected", [
    ("none", (1.0,)),
    ("equal", (0.5, 0.5)),
    ("nonequal:1", (0.6, 0.4)),
    ("nonequal:4", (0.9, 0.1)),
    ("nonequal:2", (0.7, 0.3)),
    ("nonequal:3", (0.8, 0.2)),
])
def test_retx_scheme_parse(value, expected):
    # every accepted spelling, with the share of the period of each phase
    assert phy.phase_shares(value) == expected
    assert SimConfig(retx_scheme=value).retx_scheme == value


RETX_REJECTIONS = {
    "nonequal:0": "retx_scheme split index must be 1..4: 'nonequal:0'",
    "nonequal:5": "retx_scheme split index must be 1..4: 'nonequal:5'",
    "nonequal:x": "retx_scheme has malformed split index: 'nonequal:x'",
    "both": "retx_scheme must be 'none', 'equal' or 'nonequal:<n>': 'both'",
    "nonequal:02": "retx_scheme must be spelled 'nonequal:2': 'nonequal:02'",
    "nonequal: 2": "retx_scheme must be spelled 'nonequal:2': 'nonequal: 2'",
    "nonequal:+2": "retx_scheme must be spelled 'nonequal:2': 'nonequal:+2'",
    "nonequal:2 ": "retx_scheme must be spelled 'nonequal:2': 'nonequal:2 '",
}


@pytest.mark.parametrize("value", list(RETX_REJECTIONS))
def test_retx_scheme_rejects(value):
    # phy owns the grammar; the config reports its message as a ConfigError
    message = f"^{re.escape(RETX_REJECTIONS[value])}$"
    with pytest.raises(ValueError, match=message) as raised:
        phy.phase_shares(value)
    assert not isinstance(raised.value, ConfigError)
    _assert_rejected({"retx_scheme": value}, message)


@given(
    ivd=st.sampled_from([3.0, 5.0, 10.0, 20.0, 40.0, 80.0, 100.0]),
    mu=st.sampled_from([0, 1, 2]),
    bw=st.sampled_from([10.0, 20.0]),
    tf=st.sampled_from([10.0, 20.0, 30.0]),
    retx=st.sampled_from(["none", "equal", "nonequal:1", "nonequal:3"]),
    delta=st.sampled_from([0.0, 3.0, 5.0, 7.0]),
    sigma=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=100)
def test_round_trip(ivd, mu, bw, tf, retx, delta, sigma, seed):
    cfg = SimConfig(
        ivd_m=ivd, mu=mu, bandwidth_mhz=bw, tf_hz=tf, retx_scheme=retx,
        l2sm_delta_db=delta, shadowing_sigma_db=sigma, seed=seed,
    )
    assert parse_config(json.dumps(dataclasses.asdict(cfg))) == cfg


def test_fingerprint_ignores_seed_only():
    a = SimConfig(seed=1)
    b = SimConfig(seed=99)
    c = SimConfig(seed=1, ivd_m=40.0)
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)


def test_fingerprint_covers_table_contents(tmp_path, monkeypatch):
    # a shipped table under a fixed relative path has a fixed fingerprint
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    shipped = SimConfig(bler_table_path="tests/data/saturating_bler.csv")
    assert config_fingerprint(shipped) == "5a18c1e49bcf"
    # two different tables written in turn at one path fingerprint apart;
    # rewriting the first brings its fingerprint back
    path = tmp_path / "curves.csv"
    cfg = SimConfig(bler_table_path=str(path))
    first = _table_document(0.5)
    path.write_text(first)
    fp_first = config_fingerprint(cfg)
    path.write_text(_table_document(0.25))
    fp_second = config_fingerprint(cfg)
    path.write_text(first)
    assert fp_first != fp_second
    assert config_fingerprint(cfg) == fp_first
    assert fp_first != config_fingerprint(SimConfig())


def _table_document(mid_bler):
    rows = ["mcs,snr_db,bler"]
    for mcs in range(1, 16):
        rows += [f"{mcs},0.0,1.0", f"{mcs},1.0,{mid_bler}", f"{mcs},2.0,0.0"]
    return "\n".join(rows) + "\n"


def test_overrides_apply_and_validate():
    cfg = apply_overrides(SimConfig(), ["ivd_m=40", "retx_scheme=equal", "mu=1"])
    assert cfg.ivd_m == 40.0
    assert cfg.retx_scheme == "equal"
    assert cfg.mu == 1
    with pytest.raises(ConfigError):
        apply_overrides(SimConfig(), ["mu=9"])
    with pytest.raises(ConfigError):
        apply_overrides(SimConfig(), ["nope"])


def test_expand_ordering_ivd_outer_then_mu():
    spec = CampaignSpec(
        base=SimConfig(),
        axes={"sweep_ivd_m": (10.0, 20.0), "sweep_mu": (0, 1), "seeds": (1,)},
    )
    runs = expand_campaign(spec)
    assert [(c.ivd_m, c.mu) for c, _ in runs] == [(10, 0), (10, 1), (20, 0), (20, 1)]


def test_expand_full_cartesian_count():
    spec = CampaignSpec(base=SimConfig(), axes={
        "sweep_ivd_m": (3.0, 5.0, 10.0, 20.0, 40.0, 80.0, 100.0),
        "sweep_mu": (0, 1, 2),
        "sweep_tf_hz": (10.0,),
        "sweep_retx": ("none", "equal"),
        "seeds": tuple(range(1, 21)),
    })
    assert len(expand_campaign(spec)) == 7 * 3 * 1 * 2 * 20


def test_expand_single_point_identity():
    base = SimConfig(ivd_m=40.0, seed=5)
    runs = expand_campaign(CampaignSpec(base=base))
    assert runs == [(base, 5)]


def test_expand_is_pure():
    spec = CampaignSpec(base=SimConfig(), axes={"sweep_ivd_m": (10.0, 20.0), "seeds": (1, 2)})
    assert expand_campaign(spec) == expand_campaign(spec)


def test_expand_validates_every_point():
    spec = CampaignSpec(base=SimConfig(bandwidth_mhz=5.0), axes={"sweep_mu": (0, 2)})
    with pytest.raises(ConfigError, match="undefined PRB entry"):
        expand_campaign(spec)


@pytest.mark.parametrize("axis, values, shown", [
    ("seeds", [1, 1], "1"),
    ("sweep_ivd_m", [200, 200.0], "200.0"),
])
def test_expand_rejects_duplicate_sweep_values(axis, values, shown):
    # a repeated value would pool one sample twice into a point's statistics,
    # whether the campaign was parsed or built in code
    for make in (lambda: parse_campaign(json.dumps({"base": {}, axis: values})),
                 lambda: CampaignSpec(base=SimConfig(), axes={axis: tuple(values)})):
        with pytest.raises(ConfigError, match=f"^{axis} lists {shown} twice$"):
            make()


def test_expand_validates_every_seed():
    spec = CampaignSpec(base=SimConfig(), axes={"seeds": (1, -1)})
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        expand_campaign(spec)


def test_every_field_kind_has_a_coercer():
    # a field of a new kind would otherwise reach __post_init__ without a rule
    assert {f.type for f in fields(SimConfig)} <= set(config._COERCERS)


def test_campaign_axes_match_the_axis_table():
    # every axis of the table sweeps a config field
    assert set(config._SWEEP_AXES.values()) <= {f.name for f in fields(SimConfig)}


def test_campaign_parse_flat_config_is_single_point():
    spec = parse_campaign('{"ivd_m": 40}')
    assert spec.base.ivd_m == 40.0
    assert spec.axes == {}


@pytest.mark.parametrize("parse, text, key", [
    (parse_config, '{"ivd_m": 400, "ivd_m": 40}', "ivd_m"),
    (parse_campaign, '{"ivd_m": 400, "ivd_m": 40}', "ivd_m"),
    (parse_campaign, '{"sweep_mu": [0], "sweep_mu": [1, 2]}', "sweep_mu"),
    (parse_campaign, '{"base": {"mu": 1, "mu": 2}, "seeds": [1]}', "mu"),
], ids=["config", "flat-campaign", "axis", "base"])
def test_repeated_key_rejected(parse, text, key):
    # json keeps the last of a repeated key: a typo would run another config
    with pytest.raises(ConfigError, match=f"^key '{key}' appears twice in one object$"):
        parse(text)


def test_repeated_override_is_last_wins():
    assert apply_overrides(SimConfig(), ["ivd_m=400", "ivd_m=40"]).ivd_m == 40.0


def test_campaign_parse_rejects_empty_sweep():
    with pytest.raises(ConfigError, match="^empty sweep list: sweep_mu$"):
        parse_campaign('{"base": {}, "sweep_mu": []}')
    # an empty axis would expand to no runs or, built in code, to the base alone
    with pytest.raises(ConfigError, match="^empty sweep list: sweep_mu$"):
        CampaignSpec(base=SimConfig(), axes={"sweep_mu": ()})
    # nor is a scalar or a string axis, parsed or built in code: a string
    # would sweep its letters
    for axes in ({"seeds": 5}, {"sweep_retx": "equal"}):
        (key,) = axes
        with pytest.raises(ConfigError, match=f"^{key} must be a list$"):
            parse_campaign(json.dumps(axes))
        with pytest.raises(ConfigError, match=f"^{key} must be a list$"):
            CampaignSpec(base=SimConfig(), axes=axes)


def test_campaign_parse_rejects_stray_keys():
    with pytest.raises(ConfigError, match=re.escape("unknown campaign key(s): ivd_m ")):
        parse_campaign('{"base": {}, "ivd_m": 10}')
    # a misspelt or unsupported axis built in code is no sweep either
    with pytest.raises(ConfigError, match=re.escape("unknown campaign key(s): sweep_speed ")):
        CampaignSpec(base=SimConfig(), axes={"sweep_speed": (1.0, 2.0)})


def test_shipped_campaign_files_expand():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted((root / "campaigns").glob("*.json"))
    assert len(files) == 4
    expected = {
        "equal_vs_nonequal.json": 5 * 5 * 20,
        "ivd_vs_numerology.json": 5 * 3 * 20,
        "ivd_vs_tf.json": 5 * 3 * 20,
        "retx_mapping_shift.json": 5 * 2 * 3 * 20,
    }
    for path in files:
        runs = expand_campaign(parse_campaign(path.read_text()))
        assert len(runs) == expected[path.name]


def test_campaign_parse_axes():
    doc = {
        "base": {"mu": 2, "bandwidth_mhz": 20},
        "sweep_ivd_m": [10, 20],
        "sweep_retx": ["none", "equal"],
        "sweep_l2sm_delta_db": [3, 5, 7],
        "seeds": [1, 2, 3],
    }
    spec = parse_campaign(json.dumps(doc))
    runs = expand_campaign(spec)
    assert len(runs) == 2 * 2 * 3 * 3
    # delta varies innermost among the axes, seeds innermost overall
    assert [c.l2sm_delta_db for c, _ in runs[:9]] == [3, 3, 3, 5, 5, 5, 7, 7, 7]


# 10 ** 400 is an integer beyond the float range
@given(
    name=st.sampled_from(FLOAT_FIELDS),
    value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
)
def test_non_finite_float_field_rejected(name, value):
    _assert_rejected({name: value}, f"{name} must be finite")
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        apply_overrides(SimConfig(), [f"{name}={json.dumps(value)}"])


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_signed_zero_float_field_is_zero(name):
    # -0.0 is accepted or rejected as 0.0 is and, when accepted, stored as
    # 0.0, so it fingerprints like 0.0 too
    try:
        zero = SimConfig(**{name: 0.0})
    except ConfigError as exc:
        _assert_rejected({name: -0.0}, re.escape(str(exc)))
        return
    for cfg in (parse_config(json.dumps({name: -0.0})),
                apply_overrides(SimConfig(), [f"{name}=-0.0"])):
        assert math.copysign(1.0, getattr(cfg, name)) == 1.0
        assert config_fingerprint(cfg) == config_fingerprint(zero)


@given(
    axis=st.sampled_from(["sweep_ivd_m", "sweep_tf_hz", "sweep_l2sm_delta_db"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
)
def test_non_finite_sweep_axis_rejected(axis, value):
    doc = json.dumps({"base": {}, axis: [value]})
    with pytest.raises(ConfigError, match="must be finite"):
        parse_campaign(doc)
    with pytest.raises(ConfigError, match="must be finite"):
        CampaignSpec(base=SimConfig(), axes={axis: (value,)})
