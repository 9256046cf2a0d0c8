"""Run configuration.

The config format is line oriented:

    # comment
    experiment = spectrum          # keys before any header are top-level
    seed = 12345

    [source]
    pump_power_uw = 46.5

    [resonator.family]             # repeated sections append to a list
    id = pump
    polarization = TM

A ``[section]`` header selects the section the following ``key = value``
lines belong to.  ``[resonator.family]`` and ``[matching.pair]`` may appear
any number of times; each occurrence starts a new list entry.  A ``#``
starts a comment either at the beginning of a line or after whitespace.
Unknown sections or keys, type mismatches, and constraint violations raise
distinct error classes, each naming the offending key and line.

Every key is declared once, as a field of its section's dataclass below:
``key(kind, default, help, rule)`` gives its type, its default, its help
text and the ``Rule`` its value must obey on its own, so a key's constraint
sits next to it.  ``SCHEMA``, parsing, ``serialize_config()`` and
``config_reference()`` are all derived from those fields.  Only the rules
that relate keys to each other (and the ascending order of
``sweep.powers_uw``, a second rule on that key) are code, in the
``_check_*`` functions and ``_check_references``.  The defaults describe
the lithium-niobate disk device this package models (the material defaults
are ``material.py``'s constants), so an empty config is a complete run
description.  When a config file declares its own ``[resonator.family]``
or ``[matching.pair]`` sections the corresponding default list is dropped
entirely rather than merged.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

from .material import (D22_PM_PER_V, D31_PM_PER_V, SELLMEIER_E, SELLMEIER_O,
                       VALID_RANGE_UM)


EXPERIMENTS = ("modes", "match", "trace", "scan", "simulate", "coinc",
               "g2", "franson", "spectrum", "sweep")


class ConfigError(Exception):
    """Base class for configuration problems, with file/line context."""

    def __init__(self, message: str, source: str | None = None,
                 line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = source + (f":{line}" if line is not None else "") + ": "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


class ConfigFileError(ConfigError):
    """The config file could not be read."""


class ConfigSyntaxError(ConfigError):
    """A line is not a comment, a section header, or key = value."""


class UnknownKeyError(ConfigError):
    """A section or key is not in the schema."""


class MissingKeyError(ConfigError):
    """A required key was not given."""


class ConfigTypeError(ConfigError):
    """A value could not be parsed as the key's declared type."""


class InvariantError(ConfigError):
    """A value parsed but violates a constraint."""


@dataclass(frozen=True)
class Rule:
    """A constraint on one key's value; optional keys skip it when none."""

    message: str
    test: Callable[[object], bool]


POSITIVE = Rule("must be positive", lambda v: v > 0)
NON_NEGATIVE = Rule("must not be negative", lambda v: v >= 0)
IN_UNIT = Rule("must lie in (0, 1]", lambda v: 0 < v <= 1.0)
IN_CLOSED_UNIT = Rule("must lie in [0, 1]", lambda v: 0 <= v <= 1.0)
NON_NEGATIVE_ENTRIES = Rule("entries must not be negative",
                            lambda v: all(x >= 0 for x in v))
SIX_ENTRIES = Rule("must have six entries", lambda v: len(v) == 6)
# A two-fold window counts whole ps and sits clear of the accidental windows,
# which tcspc.two_fold_metrics starts 5000 ps off the peak (offset_min_ps).
TWO_FOLD_WINDOW = Rule("must be a whole number of ps in [1, 5000)",
                       lambda v: v % 1 == 0 and 1 <= v < 5000)
WHOLE_PS = Rule("must be a whole number of ps, at least 1",
                lambda v: v % 1 == 0 and v >= 1)


@dataclass(frozen=True)
class Option:
    kind: str          # int float str bool sign floats int? float? str?
    default: object    # MISSING if the key must be given
    help: str
    rule: Rule | None = None


@dataclass(frozen=True)
class SectionSpec:
    options: dict
    repeated: bool = False
    help: str = ""


def key(kind: str, default=MISSING, help_text: str = "",
        rule: Rule | None = None):
    """Declare a config key as a field of its section dataclass."""
    option = Option(kind, default, help_text, rule)
    return field(default=default, metadata={"option": option})


def section(cls, help_text: str):
    """A top-level ``[name]`` section, held in the RunConfig field name."""
    return field(default_factory=cls,
                 metadata={"section": cls, "help": help_text})


def repeated(header: str, cls, default: tuple, help_text: str):
    """A list of ``[parent.header]`` sections, each one entry of cls."""
    return field(default=default, metadata={"section": cls, "help": help_text,
                                            "header": header})


def _parse_scalar(kind: str, text: str):
    text = text.strip()
    if kind.endswith("?"):
        if text.lower() in ("none", ""):
            return None
        kind = kind[:-1]
    if kind == "str":
        return text
    if kind == "int":
        return int(text)
    if kind == "float":
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("not finite")
        return value
    if kind == "bool":
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError("expected a boolean")
    if kind == "sign":
        value = int(text)
        if value not in (-1, 1):
            raise ValueError("expected -1 or 1")
        return value
    if kind == "floats":
        parts = [p for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list of numbers")
        values = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("not finite")
        return values
    raise AssertionError(f"unhandled kind {kind}")


_LOSSES_DB = (2.2, 2.4, 4.0, 8.7, 3.0, 4.0)


@dataclass(frozen=True)
class MaterialSection:
    sellmeier_o: tuple = key(
        "floats", SELLMEIER_O,
        "Ordinary-index Sellmeier coefficients b1,c1,b2,c2,b3,c3 "
        "(c in um^2).", SIX_ENTRIES)
    sellmeier_e: tuple = key(
        "floats", SELLMEIER_E, "Extraordinary-index Sellmeier coefficients.",
        SIX_ENTRIES)
    valid_lo_um: float = key(
        "float", VALID_RANGE_UM[0],
        "Lower edge of the Sellmeier validity range.", POSITIVE)
    valid_hi_um: float = key(
        "float", VALID_RANGE_UM[1],
        "Upper edge of the Sellmeier validity range.")
    d22_pm_per_v: float = key(
        "float", D22_PM_PER_V, "Nonlinear coefficient multiplying cos(theta).")
    d31_pm_per_v: float = key(
        "float", D31_PM_PER_V, "Nonlinear coefficient multiplying sin(theta).")


@dataclass(frozen=True)
class FamilySection:
    id: str = key("str", help_text="Family name, unique per config.",
                  rule=Rule("must not be empty", bool))
    polarization: str = key(
        "str", help_text="TE or TM.",
        rule=Rule("must be TE or TM", lambda v: v in ("TE", "TM")))
    radial_number: int = key("int", 0, "Radial order label.", NON_NEGATIVE)
    q_loaded: float = key("float", 1.0e5, "Loaded quality factor.", POSITIVE)
    azimuthal_contrast: float = key(
        "float", 0.4,
        "Fraction of the bulk TE index oscillation the guided mode samples.",
        IN_CLOSED_UNIT)
    index_offset: float = key(
        "float", 0.0,
        "Constant effective-index correction; overwritten when an anchor "
        "is given.")
    index_slope_per_um: float = key(
        "float", 0.0,
        "Linear index correction; overwritten when target_fsr_nm is given.")
    ref_wavelength_nm: float = key(
        "float", 1550.0,
        "Wavelength where the linear correction vanishes; reset to the "
        "anchor.", POSITIVE)
    anchor_wavelength_nm: float | None = key(
        "float?", None,
        "Resonance wavelength pinned exactly to mode number anchor_m.",
        POSITIVE)
    anchor_m: int | None = key(
        "int?", None, "Mode number pinned at the anchor.",
        Rule("must be at least 1", lambda v: v >= 1))
    target_fsr_nm: float | None = key(
        "float?", None,
        "Free spectral range to calibrate at the anchor by adjusting the "
        "index slope.", POSITIVE)


DEFAULT_FAMILIES = (
    FamilySection("pump", "TM", q_loaded=2.9e5, anchor_wavelength_nm=774.86,
                  anchor_m=824),
    FamilySection("sig0", "TE", anchor_wavelength_nm=1552.52, anchor_m=408,
                  target_fsr_nm=3.89),
    FamilySection("idl0", "TM", radial_number=1, anchor_m=417,
                  anchor_wavelength_nm=1546.930081526631, target_fsr_nm=3.67),
    FamilySection("cov_s1", "TE", radial_number=2, anchor_m=408,
                  anchor_wavelength_nm=1549.0, target_fsr_nm=3.2),
    FamilySection("cov_i1", "TM", radial_number=2, anchor_m=415,
                  anchor_wavelength_nm=1550.440669646317,
                  target_fsr_nm=3.205955179771379),
    FamilySection("cov_s2", "TE", radial_number=3, anchor_m=408,
                  anchor_wavelength_nm=1549.8, target_fsr_nm=3.2),
    FamilySection("cov_i2", "TM", radial_number=3, anchor_m=415,
                  anchor_wavelength_nm=1549.6400082587038,
                  target_fsr_nm=3.1993393377911215),
    FamilySection("cov_s3", "TE", radial_number=4, anchor_m=408,
                  anchor_wavelength_nm=1550.6, target_fsr_nm=3.2),
    FamilySection("cov_i3", "TM", radial_number=4, anchor_m=415,
                  anchor_wavelength_nm=1548.8409982726168,
                  target_fsr_nm=3.19274395347974),
    FamilySection("cov_s4", "TE", radial_number=5, anchor_m=408,
                  anchor_wavelength_nm=1551.4, target_fsr_nm=3.2),
    FamilySection("cov_i4", "TM", radial_number=5, anchor_m=415,
                  anchor_wavelength_nm=1548.043634584181,
                  target_fsr_nm=3.1861689425778184),
)


@dataclass(frozen=True)
class ResonatorSection:
    radius_um: float = key("float", 46.5, "Disk radius.", POSITIVE)
    thickness_um: float = key("float", 0.9, "Disk thickness.", POSITIVE)
    families: tuple = repeated(
        "family", FamilySection, DEFAULT_FAMILIES,
        "One section per whispering-gallery mode family.")


@dataclass(frozen=True)
class PairSection:
    signal: str = key("str", help_text="Signal-side family id.")
    idler: str = key("str", help_text="Idler-side family id.")
    overlap: float = key(
        "float", 1.0, "Transverse mode-overlap factor in (0, 1].", IN_UNIT)


DEFAULT_PAIRS = (
    PairSection("sig0", "idl0", overlap=1.0),
    PairSection("cov_s1", "cov_i1", overlap=0.3),
    PairSection("cov_s2", "cov_i2", overlap=0.3),
    PairSection("cov_s3", "cov_i3", overlap=0.3),
    PairSection("cov_s4", "cov_i4", overlap=0.3),
)


@dataclass(frozen=True)
class MatchingSection:
    pump_family: str = key(
        "str", "pump", "Family id holding the pump resonance.")
    linewidth_ghz: float = key(
        "float", 2.0,
        "Energy-matching linewidth (sum of the loaded linewidths of the "
        "three modes).", POSITIVE)
    window_fraction: float = key(
        "float", 0.5,
        "A triple is matched when its detuning is below window_fraction * "
        "linewidth_ghz.", IN_UNIT)
    energy_tol_ghz: float = key(
        "float", 1.0, "Detuning bound for plain triple listings.", POSITIVE)
    grid_points: int = key(
        "int", 4096,
        "Azimuthal grid points per turn for the conversion-amplitude "
        "integral.", Rule("must be at least 64", lambda v: v >= 64))
    n_turns: int = key(
        "int", 1, "Propagation turns for amplitude traces.",
        Rule("must lie in 1..10", lambda v: 1 <= v <= 10))
    band_pad_nm: float = key(
        "float", 4.0, "Comb padding beyond the spectrum band.", NON_NEGATIVE)
    dispersion_cutoff_nm: float | None = key(
        "float?", 1556.0,
        "Wavelength beyond which the dispersion detuning ramp applies.",
        POSITIVE)
    dispersion_ramp_ghz_per_nm: float = key(
        "float", 0.06, "Extra detuning per nm beyond the cutoff.",
        NON_NEGATIVE)
    pairs: tuple = repeated(
        "pair", PairSection, DEFAULT_PAIRS,
        "Family pairs allowed to host signal/idler combs.")


@dataclass(frozen=True)
class SourceSection:
    pump_power_uw: float = key(
        "float", 46.5, "Pump power for single-run experiments.", NON_NEGATIVE)
    pgr_slope_mhz_per_uw: float = key(
        "float", 5.13, "Low-power pair generation rate slope.", POSITIVE)
    saturation_rate_mhz: float | None = key(
        "float?", 5385.0, "Asymptotic pair rate; none disables saturation.",
        POSITIVE)
    pair_lifetime_ps: float = key(
        "float", 200.0, "Exponential signal-idler delay constant.", POSITIVE)
    signal_losses_db: tuple = key(
        "floats", _LOSSES_DB, "Per-stage insertion losses on the signal arm.",
        NON_NEGATIVE_ENTRIES)
    idler_losses_db: tuple = key(
        "floats", _LOSSES_DB, "Per-stage insertion losses on the idler arm.",
        NON_NEGATIVE_ENTRIES)
    detector_efficiency: float = key(
        "float", 0.85, "Detector efficiency.", IN_UNIT)
    dark_rate_hz: float = key(
        "float", 100.0, "Dark counts per detector.", NON_NEGATIVE)
    jitter_sigma_ps: float = key(
        "float", 40.0, "Gaussian timing jitter.", NON_NEGATIVE)
    min_pair_spacing_ps: float = key(
        "float", 0.0,
        "Dead time between pair emissions; 0 selects Poisson emission.",
        NON_NEGATIVE)
    idler_delay_sign: int = key(
        "sign", 1, "Whether the idler lags (+1) or leads (-1) the signal.")
    coincidence_window_ps: float = key(
        "float", 800.0, "Default coincidence window.", TWO_FOLD_WINDOW)


@dataclass(frozen=True)
class UmiSection:
    arm_delay_ns: float = key(
        "float", 1.6,
        "Long-short arm delay of each unbalanced interferometer.", POSITIVE)
    short_transmission: float = key(
        "float", 0.5, "Short-arm weight.", IN_UNIT)
    long_transmission: float = key("float", 0.5, "Long-arm weight.", IN_UNIT)
    postselect_window_ps: float = key(
        "float", 800.0, "Window for the three arrival-time peaks.",
        TWO_FOLD_WINDOW)


@dataclass(frozen=True)
class SpectrumSection:
    band_lo_nm: float = key(
        "float", 1535.0, "Filter-bank band start.", POSITIVE)
    band_hi_nm: float = key("float", 1565.0, "Filter-bank band end.")
    channel_width_nm: float = key(
        "float", 0.8, "Filter channel width.", POSITIVE)
    integration_s: float = key(
        "float", 10.0, "Integration per channel.", POSITIVE)
    peak_fraction: float = key(
        "float", 0.0178,
        "Fraction of the collective pair rate carried by the strongest "
        "channel.", IN_UNIT)


@dataclass(frozen=True)
class G2Section:
    pump_power_uw: float = key(
        "float", 13.87, "Pump power for the heralded-g2 run.", POSITIVE)
    duration_s: float = key("float", 10.0, "Stream duration.", POSITIVE)
    window_ps: float = key("float", 800.0, "Heralding window.", WHOLE_PS)
    tau_max_ns: float = key(
        "float", 50.0, "Delay scan half-range.", POSITIVE)
    tau_points: int = key(
        "int", 51, "Delay scan points (odd).",
        Rule("must be odd and at least 3", lambda v: v >= 3 and v % 2 == 1))
    losses_db: tuple = key(
        "floats", (3.0,),
        "Per-arm losses for this run; the heralded estimator is "
        "loss-insensitive so a light tap keeps the statistics affordable.",
        NON_NEGATIVE_ENTRIES)


@dataclass(frozen=True)
class FransonSection:
    visibility: float = key(
        "float", 0.965,
        "Two-photon interference visibility of the source, after all "
        "dephasing.", IN_CLOSED_UNIT)
    xi_points: int = key("int", 32, "Phase points per fringe scan.",
                         Rule("must be at least 8", lambda v: v >= 8))
    integration_s: float = key(
        "float", 240.0, "Integration per point.", POSITIVE)
    duration_s: float = key(
        "float", 60.0, "Stream duration for the arrival-time histogram.",
        POSITIVE)


@dataclass(frozen=True)
class SweepSection:
    powers_uw: tuple = key(
        "floats", (0.1, 0.3, 0.6, 1.0, 1.5, 2.0), "Pump powers, ascending.",
        Rule("entries must be positive", lambda v: all(x > 0 for x in v)))
    duration_s: float = key(
        "float", 2.0, "Stream duration per point.", POSITIVE)
    losses_db: tuple = key(
        "floats", (10.0,),
        "Per-arm losses for the sweep; a light characterisation tap.",
        NON_NEGATIVE_ENTRIES)
    apply_saturation: bool = key(
        "bool", False, "Whether the sweep applies the pump saturation law.")
    rate_window_ps: float = key(
        "float", 2400.0,
        "Window for the rate estimate; wide enough to capture the full "
        "delay tail.", TWO_FOLD_WINDOW)
    car_window_ps: float = key(
        "float", 800.0, "Window for the CAR column.", TWO_FOLD_WINDOW)


@dataclass(frozen=True)
class RunConfig:
    experiment: str | None = key(
        "str?", None,
        "Which experiment `run` executes: one of " + ", ".join(EXPERIMENTS)
        + ".", Rule("must be one of " + ", ".join(EXPERIMENTS),
                    lambda v: v in EXPERIMENTS))
    seed: int = key(
        "int", 12345,
        "Master seed, unsigned 64-bit; per-task seeds are derived from it "
        "deterministically.",
        Rule("must be an unsigned 64-bit integer", lambda v: 0 <= v < 2 ** 64))
    material: MaterialSection = section(
        MaterialSection, "Bulk dispersion and nonlinearity.")
    resonator: ResonatorSection = section(ResonatorSection, "Disk geometry.")
    matching: MatchingSection = section(
        MatchingSection, "Phase/energy matching controls.")
    source: SourceSection = section(
        SourceSection, "Pair source and detection chain.")
    umi: UmiSection = section(
        UmiSection, "Unbalanced Michelson interferometer pair.")
    spectrum: SpectrumSection = section(
        SpectrumSection, "Channelised coincidence spectrum.")
    g2: G2Section = section(G2Section, "Heralded second-order correlation.")
    franson: FransonSection = section(FransonSection, "Time-bin interference.")
    sweep: SweepSection = section(SweepSection, "Pump-power sweep.")


def _subsections(cls, name: str):
    """(field, section name, list path or None) of each section cls holds."""
    for f in fields(cls):
        if "section" not in f.metadata:
            continue
        header = f.metadata.get("header")
        if header is None:
            yield f, f.name, None
        else:
            yield f, f"{name}.{header}", f"{name}.{f.name}"


def _schema(cls, name: str, help_text: str, is_list: bool = False):
    options = {f.name: f.metadata["option"]
               for f in fields(cls) if "option" in f.metadata}
    yield name, SectionSpec(options, is_list, help_text)
    for f, sub_name, list_path in _subsections(cls, name):
        yield from _schema(f.metadata["section"], sub_name,
                           f.metadata["help"], list_path is not None)


SCHEMA = dict(_schema(RunConfig, "",
                      "Top-level keys (before any section header)."))


def _parse_lines(text: str, source: str):
    """Split config text into {section: values} with line tracking.

    A scalar section maps to a dict key -> (raw, line); a repeated section
    maps to a list of such dicts.
    """
    sections = {name: [] if spec.repeated else {}
                for name, spec in SCHEMA.items()}
    current = ""
    current_values = sections[""]
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if line.startswith("#"):
            continue
        # trailing comment: '#' preceded by whitespace
        for pos in range(1, len(line)):
            if line[pos] == "#" and line[pos - 1] in " \t":
                line = line[:pos].rstrip()
                break
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigSyntaxError(f"malformed section header {line!r}",
                                        source, lineno)
            name = line[1:-1].strip()
            if name not in SCHEMA or name == "":
                raise UnknownKeyError(f"unknown section [{name}]",
                                      source, lineno)
            if SCHEMA[name].repeated:
                current_values = {}
                sections[name].append(current_values)
            else:
                current_values = sections[name]
            current = name
            continue
        if "=" not in line:
            raise ConfigSyntaxError(
                f"expected key = value, got {line!r}", source, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigSyntaxError("empty key", source, lineno)
        if key not in SCHEMA[current].options:
            where = f"[{current}]" if current else "the top level"
            raise UnknownKeyError(f"unknown key {key!r} in {where}",
                                  source, lineno)
        if key in current_values:
            raise ConfigSyntaxError(
                f"duplicate key {key!r} in [{current}]", source, lineno)
        current_values[key] = (value, lineno)
    return sections


def _assemble(spec: SectionSpec, raw: dict, path: str, source: str):
    """Apply defaults and parse raw strings into typed values."""
    values = {}
    lines = {}
    for key, opt in spec.options.items():
        if key in raw:
            text, lineno = raw[key]
            try:
                values[key] = _parse_scalar(opt.kind, text)
            except ValueError as exc:
                raise ConfigTypeError(
                    f"{path}{key}: {text!r} is not a valid {opt.kind.rstrip('?')}"
                    f" ({exc})", source, lineno) from None
            lines[key] = lineno
        elif opt.default is MISSING:
            raise MissingKeyError(f"{path}{key} is required", source)
        else:
            values[key] = opt.default
            lines[key] = None
    return values, lines


# Cross-key rules: each gets the section's values and require(key, ok,
# message), which raises InvariantError at the key's line unless ok.

def _check_material(v, require):
    require("valid_hi_um", v["valid_hi_um"] > v["valid_lo_um"],
            "must exceed valid_lo_um")


def _check_family(v, require):
    both = (v["anchor_wavelength_nm"] is None) == (v["anchor_m"] is None)
    require("anchor_m", both,
            "and anchor_wavelength_nm must be given together")
    if v["target_fsr_nm"] is not None:
        require("target_fsr_nm", v["anchor_wavelength_nm"] is not None,
                "needs an anchor to calibrate against")


def _check_spectrum(v, require):
    require("band_hi_nm", v["band_hi_nm"] > v["band_lo_nm"],
            "must exceed band_lo_nm")


def _check_sweep(v, require):
    require("powers_uw", list(v["powers_uw"]) == sorted(v["powers_uw"]),
            "must be ascending")


def _check_umi(v, require):
    # franson.peak_areas centres its three windows one arm delay apart, the
    # delay rounded to whole ps, so narrower windows cannot overlap
    delay_ps = v["arm_delay_ns"] * 1e3
    require("postselect_window_ps", math.isinf(delay_ps)
            or v["postselect_window_ps"] < round(delay_ps),
            "must be narrower than the arm delay in whole ps, so the three "
            "peak windows cannot overlap")


_CHECKS = {
    "material": _check_material,
    "resonator.family": _check_family,
    "spectrum": _check_spectrum,
    "sweep": _check_sweep,
    "umi": _check_umi,
}


def _build(cls, name: str, raw: dict, path: str, sections: dict,
           source: str):
    """Parse and check one section, then build it with the ones it holds."""
    spec = SCHEMA[name]
    values, lines = _assemble(spec, raw, path, source)

    def require(key, ok, message):
        if not ok:
            raise InvariantError(f"{path}{key} {message} "
                                 f"(got {values[key]!r})", source, lines[key])

    for key, opt in spec.options.items():
        if opt.rule is not None and values[key] is not None:
            require(key, opt.rule.test(values[key]), opt.rule.message)
    if name in _CHECKS:
        _CHECKS[name](values, require)
    values = {k: tuple(v) if isinstance(v, list) else v
              for k, v in values.items()}
    for f, sub_name, list_path in _subsections(cls, name):
        sub = f.metadata["section"]
        if list_path is None:
            values[f.name] = _build(sub, sub_name, sections[sub_name],
                                    sub_name + ".", sections, source)
        elif sections[sub_name]:
            values[f.name] = tuple(
                _build(sub, sub_name, entry, f"{list_path}[{i}].", sections,
                       source)
                for i, entry in enumerate(sections[sub_name]))
    return cls(**values)


def _check_references(cfg: RunConfig, source: str):
    ids = [f.id for f in cfg.resonator.families]
    dup = {x for x in ids if ids.count(x) > 1}
    if dup:
        raise InvariantError(
            f"resonator.families: duplicate id {sorted(dup)[0]!r}", source)
    known = set(ids)
    pump = cfg.matching.pump_family
    if pump not in known:
        raise InvariantError(
            f"matching.pump_family: no family with id {pump!r}", source)
    for i, p in enumerate(cfg.matching.pairs):
        for side in ("signal", "idler"):
            if getattr(p, side) not in known:
                raise InvariantError(
                    f"matching.pairs[{i}].{side}: no family with id "
                    f"{getattr(p, side)!r}", source)


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text, apply defaults, validate, and build a RunConfig."""
    sections = _parse_lines(text, source)
    cfg = _build(RunConfig, "", sections[""], "", sections, source)
    _check_references(cfg, source)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config: {exc}") from None
    return parse_config(text, source=path)


def default_config() -> RunConfig:
    return parse_config("", source="<defaults>")


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig to config text that parses back to an equal value."""
    out = []

    def emit(name, obj):
        if name:
            out.append(f"[{name}]")
        for key in SCHEMA[name].options:
            out.append(f"{key} = {_format_value(getattr(obj, key))}")
        out.append("")
        for f, sub_name, list_path in _subsections(type(obj), name):
            value = getattr(obj, f.name)
            for entry in (value if list_path else (value,)):
                emit(sub_name, entry)

    emit("", cfg)
    return "\n".join(out)


def config_reference() -> str:
    """Human-readable listing of every key, its type, and its default."""
    out = ["configuration reference", "-----------------------"]
    for name, spec in SCHEMA.items():
        header = f"[{name}]" if name else "top level"
        if spec.repeated:
            header += " (repeatable)"
        out.append(header)
        out.append(f"  {spec.help}")
        for key, opt in spec.options.items():
            if opt.default is MISSING:
                default = "required"
            else:
                default = f"default {_format_value(opt.default)}"
            out.append(f"  {key} ({opt.kind}, {default})")
            out.append(f"      {opt.help}")
        out.append("")
    return "\n".join(out)
