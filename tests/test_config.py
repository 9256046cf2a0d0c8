import dataclasses
import inspect
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskspdc.config import (
    EXPERIMENTS,
    IN_CLOSED_UNIT,
    IN_UNIT,
    NON_NEGATIVE,
    NON_NEGATIVE_ENTRIES,
    POSITIVE,
    SCHEMA,
    TWO_FOLD_WINDOW,
    WHOLE_PS,
    ConfigError,
    ConfigFileError,
    ConfigSyntaxError,
    ConfigTypeError,
    InvariantError,
    MissingKeyError,
    UnknownKeyError,
    config_reference,
    default_config,
    load_config,
    parse_config,
    serialize_config,
)
from diskspdc.events import SourceModel
from diskspdc.tcspc import two_fold_metrics


def test_defaults():
    cfg = default_config()
    assert cfg.experiment is None
    assert cfg.seed == 12345
    assert cfg.material.d22_pm_per_v == 2.1
    assert cfg.material.d31_pm_per_v == -4.35
    assert cfg.resonator.radius_um == 46.5
    ids = [f.id for f in cfg.resonator.families]
    assert ids[0] == "pump"
    assert len(ids) == len(set(ids)) == 11
    assert len(cfg.matching.pairs) == 5
    assert cfg.matching.pairs[0].signal == "sig0"
    assert cfg.source.pump_power_uw == 46.5
    assert cfg.sweep.powers_uw == (0.1, 0.3, 0.6, 1.0, 1.5, 2.0)


def test_simple_overrides():
    cfg = parse_config("""
experiment = scan
seed = 99

[source]
pump_power_uw = 13.87
dark_rate_hz = 0
""")
    assert cfg.experiment == "scan"
    assert cfg.seed == 99
    assert cfg.source.pump_power_uw == 13.87
    assert cfg.source.dark_rate_hz == 0.0
    # untouched sections keep their defaults
    assert cfg.matching.linewidth_ghz == 2.0


def test_comments_and_blank_lines():
    cfg = parse_config("""
# leading comment
experiment = modes   # trailing comment after whitespace

[spectrum]
integration_s = 2.5  # also a comment
""")
    assert cfg.experiment == "modes"
    assert cfg.spectrum.integration_s == 2.5


# overriding the family list drops every built-in family, so the matching
# references must be redirected in the same file
ONE_FAMILY = """
[matching]
pump_family = {fid}

[matching.pair]
signal = {fid}
idler = {fid}
"""


def test_hash_without_whitespace_stays_in_value():
    cfg = parse_config("""
[resonator.family]
id = a#b
polarization = TM
""" + ONE_FAMILY.format(fid="a#b"))
    assert cfg.resonator.families[0].id == "a#b"


def test_user_repeated_sections_replace_defaults():
    cfg = parse_config("""
[resonator.family]
id = only
polarization = TE

[matching]
pump_family = only

[matching.pair]
signal = only
idler = only
overlap = 0.25
""")
    assert len(cfg.resonator.families) == 1
    assert cfg.resonator.families[0].id == "only"
    # scalar defaults inside the replacement section still apply
    assert cfg.resonator.families[0].q_loaded == 1e5
    assert len(cfg.matching.pairs) == 1
    assert cfg.matching.pairs[0].overlap == 0.25


def test_optional_values_parse_none():
    cfg = parse_config("""
[resonator.family]
id = f
polarization = TM
anchor_wavelength_nm = none
""" + ONE_FAMILY.format(fid="f"))
    fam = cfg.resonator.families[0]
    assert fam.anchor_wavelength_nm is None
    assert fam.anchor_m is None


def test_unknown_section():
    with pytest.raises(UnknownKeyError) as err:
        parse_config("[nonsense]\n", source="x.cfg")
    assert "nonsense" in str(err.value)
    assert "x.cfg:1" in str(err.value)


def test_unknown_key_reports_line():
    with pytest.raises(UnknownKeyError) as err:
        parse_config("[source]\nbogus_key = 1\n", source="x.cfg")
    assert "bogus_key" in str(err.value)
    assert "x.cfg:2" in str(err.value)


def test_duplicate_key():
    with pytest.raises(ConfigSyntaxError):
        parse_config("[source]\npump_power_uw = 1\npump_power_uw = 2\n")


def test_malformed_lines():
    with pytest.raises(ConfigSyntaxError):
        parse_config("[source\n")
    with pytest.raises(ConfigSyntaxError):
        parse_config("just some words\n")
    with pytest.raises(ConfigSyntaxError):
        parse_config("= 5\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigTypeError) as err:
        parse_config("[source]\npump_power_uw = lots\n")
    assert "pump_power_uw" in str(err.value)
    with pytest.raises(ConfigTypeError):
        parse_config("seed = 1.5\n")
    with pytest.raises(ConfigTypeError):
        parse_config("[sweep]\napply_saturation = maybe\n")
    with pytest.raises(ConfigTypeError):
        parse_config("[source]\nidler_delay_sign = 2\n")


def test_missing_required_key():
    with pytest.raises(MissingKeyError) as err:
        parse_config("[resonator.family]\npolarization = TE\n")
    assert "id" in str(err.value)


def test_invariant_errors():
    with pytest.raises(InvariantError) as err:
        parse_config("""
[resonator.family]
id = f
polarization = TE
q_loaded = 0
""")
    assert "resonator.families[0].q_loaded" in str(err.value)

    with pytest.raises(InvariantError):
        parse_config("""
[resonator.family]
id = dup
polarization = TE

[resonator.family]
id = dup
polarization = TM
""")

    with pytest.raises(InvariantError):
        parse_config("[matching]\npump_family = ghost\n")

    with pytest.raises(InvariantError):
        parse_config("""
[matching.pair]
signal = sig0
idler = ghost
""")

    with pytest.raises(InvariantError):
        parse_config("experiment = fly\n")

    with pytest.raises(InvariantError):
        parse_config("[umi]\nshort_transmission = 1.5\n")

    with pytest.raises(InvariantError):
        parse_config("[spectrum]\nband_lo_nm = 1600\nband_hi_nm = 1500\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigFileError):
        load_config(tmp_path / "absent.cfg")
    p = tmp_path / "ok.cfg"
    p.write_text("experiment = match\n")
    assert load_config(p).experiment == "match"


def test_serialize_round_trip():
    cfg = default_config()
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    # serialization is a fixed point
    assert serialize_config(again) == text


def test_serialize_preserves_overrides():
    cfg = parse_config("""
experiment = franson
seed = 777

[source]
pump_power_uw = 0.5

[umi]
arm_delay_ns = 1.25
""")
    back = parse_config(serialize_config(cfg))
    assert back == cfg
    assert back.umi.arm_delay_ns == 1.25


def test_config_reference_covers_schema():
    text = config_reference()
    for name, spec in SCHEMA.items():
        for key, opt in spec.options.items():
            assert key in text
            if opt.default is not None and not isinstance(opt.default, bool):
                pass  # value formatting is covered by the round trip
    assert "required" in text
    assert "[resonator.family]" in text
    assert "(repeatable)" in text


def test_error_without_source_has_line_prefix():
    # the anonymous source still carries the line number
    with pytest.raises(ConfigError) as err:
        parse_config("[source]\nbogus = 1\n")
    assert ":2:" in str(err.value)


def test_replication_config_serializes_the_defaults():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "replication.cfg")
    cfg = load_config(path)
    assert dataclasses.replace(cfg, experiment=None) == default_config()


# Property tests over every key of the scalar sections: a value that the
# key's kind and rule admit round-trips through serialize/parse, and a value
# its rule rejects raises InvariantError at the key's line.

DEFAULTS = default_config()


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


FINITE = _floats()

def _float_lists(entry):
    return st.lists(entry, min_size=1, max_size=8).map(tuple)


NEGATIVE = _floats(max_value=-5e-324)  # -0.0 is not negative

ADMITTED = {
    None: FINITE,
    POSITIVE: _floats(min_value=0.0, exclude_min=True),
    NON_NEGATIVE: _floats(min_value=0.0),
    IN_UNIT: _floats(min_value=0.0, max_value=1.0, exclude_min=True),
    IN_CLOSED_UNIT: _floats(min_value=0.0, max_value=1.0),
    NON_NEGATIVE_ENTRIES: _float_lists(_floats(min_value=0.0)),
    TWO_FOLD_WINDOW: st.integers(1, 4999).map(float),
    WHOLE_PS: st.integers(1, 2 ** 53).map(float),
}


def _fractional_ps(hi):
    """Windows in (1, hi) ps that are not a whole number of ps: the analysis
    truncated them, and ran at another window than its summary named."""
    return st.integers(1, hi - 1).map(lambda n: n + 0.5) | _floats(
        min_value=1.0, max_value=hi).filter(lambda v: v % 1)


REJECTED = {
    POSITIVE: _floats(max_value=0.0),
    NON_NEGATIVE: NEGATIVE,
    IN_UNIT: _floats(max_value=0.0) | _floats(min_value=1.0,
                                               exclude_min=True),
    IN_CLOSED_UNIT: NEGATIVE | _floats(min_value=1.0, exclude_min=True),
    NON_NEGATIVE_ENTRIES: _float_lists(FINITE).filter(
        lambda v: any(x < 0 for x in v)),
    # below 1 ps truncated to 0, and 5000 ps or more put the offset windows
    # on the peak: both exited 3 at analysis
    TWO_FOLD_WINDOW: _floats(max_value=1.0, exclude_max=True)
    | _floats(min_value=5000.0) | _fractional_ps(5000),
    WHOLE_PS: _floats(max_value=1.0, exclude_max=True)
    | _fractional_ps(2 ** 20),
}


def test_two_fold_window_rule_stops_at_the_first_offset_window():
    offset_min_ps = inspect.signature(two_fold_metrics).parameters[
        "offset_min_ps"].default
    assert TWO_FOLD_WINDOW.test(offset_min_ps - 1)
    assert not TWO_FOLD_WINDOW.test(offset_min_ps)


# int and str keys, and keys whose rule is their own or ties them to another
# key, each with a strategy of the values that the whole config admits
OWN_STRATEGY = {
    ("", "experiment"): st.none() | st.sampled_from(EXPERIMENTS),
    ("", "seed"): st.integers(0, 2 ** 64 - 1),
    ("material", "sellmeier_o"): st.lists(FINITE, min_size=6,
                                          max_size=6).map(tuple),
    ("material", "sellmeier_e"): st.lists(FINITE, min_size=6,
                                          max_size=6).map(tuple),
    ("material", "valid_lo_um"): _floats(min_value=0.0, max_value=5.0,
                                         exclude_min=True, exclude_max=True),
    ("material", "valid_hi_um"): _floats(min_value=0.4, exclude_min=True),
    ("matching", "pump_family"): st.sampled_from(
        [f.id for f in DEFAULTS.resonator.families]),
    ("matching", "grid_points"): st.integers(min_value=64),
    ("matching", "n_turns"): st.integers(1, 10),
    ("spectrum", "band_lo_nm"): _floats(min_value=0.0, max_value=1565.0,
                                        exclude_min=True, exclude_max=True),
    ("spectrum", "band_hi_nm"): _floats(min_value=1535.0, exclude_min=True),
    ("g2", "tau_points"): st.integers(min_value=1).map(lambda n: 2 * n + 1),
    ("franson", "xi_points"): st.integers(min_value=8),
    # narrower than the default 1.6 ns arm delay, and an arm delay past
    # the default 800 ps window in whole ps
    ("umi", "postselect_window_ps"): st.integers(1, 1599).map(float),
    ("umi", "arm_delay_ns"): _floats(min_value=0.801),
    ("sweep", "powers_uw"): _float_lists(
        _floats(min_value=0.0, exclude_min=True)).map(sorted).map(tuple),
}

SCALAR_KEYS = [(name, key) for name, spec in SCHEMA.items()
               if not spec.repeated for key in spec.options]
RULED_KEYS = [(name, key) for name, key in SCALAR_KEYS
              if SCHEMA[name].options[key].rule in REJECTED]


def _admitted(name, key):
    if (name, key) in OWN_STRATEGY:
        return OWN_STRATEGY[name, key]
    opt = SCHEMA[name].options[key]
    base = opt.kind.rstrip("?")
    if base == "bool":
        value = st.booleans()
    elif base == "sign":
        value = st.sampled_from((-1, 1))
    elif base == "floats" and opt.rule is None:
        value = _float_lists(FINITE)
    else:
        assert base in ("float", "floats"), (name, key, opt.kind)
        value = ADMITTED[opt.rule]
    return st.none() | value if opt.kind.endswith("?") else value


def _with(cfg, name, key, value):
    if not name:
        return dataclasses.replace(cfg, **{key: value})
    sec = dataclasses.replace(getattr(cfg, name), **{key: value})
    return dataclasses.replace(cfg, **{name: sec})


def _line_of(text, name, key):
    lines = text.splitlines()
    start = lines.index(f"[{name}]") if name else 0
    for number, line in enumerate(lines[start:], start=start + 1):
        if line.startswith(f"{key} = "):
            return number
    raise AssertionError(f"{name}.{key} not serialized")


@pytest.mark.parametrize("name,key", SCALAR_KEYS)
@settings(max_examples=20)
@given(data=st.data())
def test_admitted_values_round_trip(name, key, data):
    cfg = _with(DEFAULTS, name, key, data.draw(_admitted(name, key)))
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("name,key", RULED_KEYS)
@settings(max_examples=20)
@given(data=st.data())
def test_rejected_values_name_key_and_line(name, key, data):
    opt = SCHEMA[name].options[key]
    if opt.kind == "int":
        value = data.draw(st.integers(max_value=-1))
    else:
        value = data.draw(REJECTED[opt.rule])
    text = serialize_config(_with(DEFAULTS, name, key, value))
    with pytest.raises(InvariantError) as err:
        parse_config(text, source="x.cfg")
    assert str(err.value).startswith(
        f"x.cfg:{_line_of(text, name, key)}: {name}.{key} {opt.rule.message}")


@pytest.mark.parametrize("key", [k for name, k in RULED_KEYS
                                 if name == "source"])
@settings(max_examples=20)
@given(data=st.data())
def test_the_model_rejects_what_the_config_rejects(key, data):
    # SourceModel takes its rules from [source]'s declarations
    rule = SCHEMA["source"].options[key].rule
    named = "^" + re.escape(f"{key} {rule.message}")
    with pytest.raises(ValueError, match=named):
        SourceModel(**{key: data.draw(REJECTED[rule])})
