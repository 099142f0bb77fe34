"""Run-configuration files: INI-style sections with unit-suffixed values.

Sections: [cavity], [decoherence] (optional) and one or more
[scheme.<name>] blocks (scattering, simple_exchange, raman); unknown
sections are ignored. Exact keys are documented in the cli module.

A value is "<number> [unit]" or "unit: <number>" ("596 hz" or "hz: 596").
This module is the package's one unit converter; its units are

    rates      rad_s      x 1 (the unit of a bare number)
               hz         x 2 pi
               per_gamma  x gamma
               per_kappa  x kappa
    durations  s          / 1 (the unit of a bare number)
               inv_gamma  / gamma

and dimensionless keys take no unit. per_gamma, per_kappa and inv_gamma
need that cavity rate read first: [cavity] reads gamma, then g and kappa,
so gamma itself takes neither, and g and kappa take no per_kappa.

The grammar, read in one pass over the lines (split at "\n" only, so a
trailing "\r" is whitespace):

- a line whose first non-blank character is "#" or ";" is a comment, and
  so is the rest of any line from a "#" or ";" that follows whitespace;
- "[name]" starts a section; names are case-sensitive;
- "key = value" or "key: value" splits at the first "=" or ":" (so
  "gamma = hz: 596" works); keys are stripped and lowercased, values
  stripped, and "%" is read as it stands;
- blank lines are ignored.

A duplicate section, a duplicate key in one section, a key line before
the first section and a "[" line that is not a whole "[name]" are config
errors naming the line. So are three constructs of Python's configparser
that the format does not have: an indented continuation line, a [DEFAULT]
section and a line with no "=" or ":" or with an empty key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .exchange import ExchangeConfig, ExchangeMode, optimal_detuning
from .params import CavitySystem, DecoherenceSpec, Scheme
from .raman import RamanConfig, optimal_two_photon
from .scattering import PhotonPulse, ScatteringConfig

_SCHEME_PREFIX = "scheme."


def _strip_comment(line: str) -> str:
    """The line up to its first "#" or ";" that starts it or follows whitespace."""
    for prefix in "#;":
        i = line.find(prefix)
        while i > 0 and not line[i - 1].isspace():
            i = line.find(prefix, i + 1)
        if i >= 0:
            line = line[:i]
    return line


def _read_ini(text: str) -> dict:
    """Parse config text into {section: {key: value}} (grammar in the
    module docstring). Every text it accepts reads as with configparser."""
    sections = {}
    section = None
    key_indent = None  # indent of the section's last key line, None before one
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line or ";" in line:
            line = _strip_comment(line)
        if not (content := line.strip()):
            continue
        indent = len(line) - len(line.lstrip()) if line[0].isspace() else 0
        if key_indent is not None and indent > key_indent:
            raise ConfigError(f"config line {lineno}: indented continuation line "
                              f"{content!r}; a value must fit on its key's line")
        if content[0] == "[":
            name = content[1:-1]
            if content[-1] != "]" or not name:
                raise ConfigError(f"config line {lineno}: malformed section header {content!r}")
            if name == "DEFAULT":
                raise ConfigError(f"config line {lineno}: the format has no [DEFAULT] section")
            if name in sections:
                raise ConfigError(f"config line {lineno}: duplicate section [{name}]")
            section = sections[name] = {}
            key_indent = None
            continue
        if section is None:
            raise ConfigError(f"config line {lineno}: {content!r} comes before the first "
                              "[section] header")
        key, split, value = content.partition("=")
        if ":" in key:   # the first ":" comes before the first "="
            key, split, value = content.partition(":")
        if not split or not (key := key.rstrip().lower()):
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {content!r}")
        if key in section:
            raise ConfigError(f"config line {lineno}: duplicate key {name}.{key}")
        section[key] = value.strip()
        key_indent = indent
    return sections


def _split_quantity(raw: str):
    """Parse '596 hz', 'hz: 596' or a bare finite number into (value,
    unit|None); ValueError saying what is wrong."""
    if ":" in raw:
        unit, _, number = raw.partition(":")
        unit, number = unit.strip(), number.strip()
    else:
        parts = raw.split()
        if len(parts) == 1:
            unit, number = None, parts[0]
        elif len(parts) == 2:
            number, unit = parts
        else:
            raise ValueError(f"expected '<value> [unit]', got {raw!r}")
    try:
        value = float(number)
    except ValueError:
        raise ValueError(f"{number!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{number!r} is not a finite number")
    return value, unit


_REQUIRED = object()

#: unit -> scale of a rate: the value times the scale is the angular rate.
#: A scale named "gamma" or "kappa" is that cavity rate, once it is known.
#: In both tables the first unit is that of a bare number, of scale 1.
_RATE_UNITS = {"rad_s": 1.0, "hz": 2.0 * math.pi, "per_gamma": "gamma", "per_kappa": "kappa"}
#: unit -> scale of a duration: the value divided by the scale is the time
_TIME_UNITS = {"s": 1.0, "inv_gamma": "gamma"}


class _Section:
    def __init__(self, name, mapping, gamma=None, kappa=None):
        self.name = name
        self.raw = mapping
        self.gamma = gamma
        self.kappa = kappa
        self.used = set()

    def key(self, option):
        return f"{self.name}.{option}"

    def _quantity(self, option, default, units, kind):
        """(value, scale) of a quantity in the table `units` ({} for a
        number), marked read, or (default, None) when it is absent; a bare
        number is in the table's first unit, of scale 1: its scale is None."""
        if (text := self.raw.get(option)) is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.key(option)} is required")
            return default, None
        self.used.add(option)
        try:
            value, unit = _split_quantity(text)
        except ValueError as exc:
            raise ConfigError(f"{self.key(option)}: {exc}") from None
        if unit is None or units and not unit:   # ": 596" has no unit either
            return value, None
        if unit not in units:
            raise ConfigError(f"{self.key(option)} must be dimensionless" if not units else
                              f"{self.key(option)}: unknown {kind} unit {unit!r}; expected one "
                              f"of {sorted(units)}")
        scale = units[unit]
        if isinstance(scale, str):   # the section's gamma or kappa
            name, scale = scale, getattr(self, scale)
            if scale is None:
                raise ConfigError(f"{self.key(option)}: {unit} unit requires {name}")
        return value, scale

    def rate(self, option, default=_REQUIRED):
        value, scale = self._quantity(option, default, _RATE_UNITS, "rate")
        return value if scale is None else value * scale

    def duration(self, option, default=None):
        value, scale = self._quantity(option, default, _TIME_UNITS, "time")
        return value if scale is None else value / scale

    def number(self, option, default=None):
        return self._quantity(option, default, {}, "")[0]

    def word(self, option, default=None):
        if (text := self.raw.get(option)) is None:
            return default
        self.used.add(option)
        return text.strip().lower()


@dataclass
class RunConfig:
    cavity: CavitySystem
    decoherence: DecoherenceSpec
    schemes: dict  # scheme name -> _Section
    common: tuple  # the [cavity] and [decoherence] _Sections, which every scheme reads

    def scheme_section(self, name: str) -> _Section:
        if name not in self.schemes:
            raise ConfigError(f"config has no [scheme.{name}] section")
        return self.schemes[name]

    def check_all_read(self, name: str):
        """After the scheme is built: raise ConfigError naming the first key
        of [cavity], [decoherence] or [scheme.<name>] that nothing read."""
        for section in (*self.common, self.scheme_section(name)):
            if not section.used.issuperset(section.raw):
                unread = next(option for option in section.raw if option not in section.used)
                raise ConfigError(f"{section.key(unread)} is never read (misspelled?)")


def _build_cavity(section: _Section) -> CavitySystem:
    gamma = section.rate("gamma")
    section.gamma = gamma
    if "cooperativity" in section.raw:
        c = section.number("cooperativity")
        gok = section.number("g_over_kappa")
        if gok is None:
            raise ConfigError("cavity.g_over_kappa is required with cavity.cooperativity")
        try:
            return CavitySystem.from_cooperativity(c, gok, gamma)
        except ValueError as exc:
            raise ConfigError(f"cavity: {exc}")
    g = section.rate("g", None)
    kappa = section.rate("kappa", None)
    if g is None or kappa is None:
        raise ConfigError(f"{section.key('g' if g is None else 'kappa')} is required: the "
                          "cavity needs either cooperativity+g_over_kappa or g+kappa")
    try:
        return CavitySystem(g=g, kappa=kappa, gamma=gamma)
    except ValueError as exc:
        raise ConfigError(f"cavity: {exc}")


def _build_decoherence(section: _Section) -> DecoherenceSpec:
    try:
        return DecoherenceSpec(
            qubit_relaxation=section.rate("qubit_relaxation", 0.0),
            qubit_pure_dephasing=section.rate("qubit_pure_dephasing", 0.0),
            optical_pure_dephasing=section.rate("optical_pure_dephasing", 0.0),
            shelving_decay=section.rate("shelving_decay", 0.0),
            qubit_t2=section.duration("qubit_t2"),
        )
    except ValueError as exc:
        raise ConfigError(f"decoherence: {exc}")


def load_config_text(text: str) -> RunConfig:
    sections = _read_ini(text)
    if "cavity" not in sections:
        raise ConfigError("missing [cavity] section")
    cavity_section = _Section("cavity", sections["cavity"])
    cavity = _build_cavity(cavity_section)
    # an absent [decoherence] section reads as an empty one: every rate 0
    deco_section = _Section("decoherence", sections.get("decoherence", {}),
                            gamma=cavity.gamma, kappa=cavity.kappa)
    decoherence = _build_decoherence(deco_section)
    schemes = {}
    for section_name, mapping in sections.items():
        if section_name.startswith(_SCHEME_PREFIX):
            name = section_name[len(_SCHEME_PREFIX):]
            schemes[name] = _Section(section_name, mapping,
                                     gamma=cavity.gamma, kappa=cavity.kappa)
    return RunConfig(cavity=cavity, decoherence=decoherence, schemes=schemes,
                     common=(cavity_section, deco_section))


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return load_config_text(text)


def build_scattering(run: RunConfig) -> ScatteringConfig:
    sec = run.scheme_section("scattering")
    gamma_eff = run.decoherence.effective_rate(Scheme.SCATTERING)
    sigma_p = sec.rate("sigma_p", 0.0)
    gate_time = sec.duration("gate_time")
    if (sigma_p > 0.0) == (gate_time is not None):
        raise ConfigError("scheme.scattering needs exactly one of sigma_p or gate_time")
    delta_p = sec.rate("delta_p", 0.0)
    try:
        if gate_time is not None:
            pulse = PhotonPulse.from_gate_time(gate_time, delta_p=delta_p)
        else:
            pulse = PhotonPulse(sigma_p=sigma_p, delta_p=delta_p)
        return ScatteringConfig(
            cavity=run.cavity, pulse=pulse,
            delta_eps_a=sec.rate("delta_eps_a", 0.0),
            delta_eps_b=sec.rate("delta_eps_b", 0.0),
            gamma_eff=gamma_eff,
        )
    except ValueError as exc:
        raise ConfigError(f"scheme.scattering: {exc}")


def build_exchange(run: RunConfig) -> ExchangeConfig:
    sec = run.scheme_section("simple_exchange")
    cavity = run.cavity
    if sec.word("detuning") == "optimal":
        detuning = optimal_detuning(cavity.kappa, cavity.cooperativity)
    else:
        detuning = sec.rate("detuning")
    if sec.word("splitting_eg", "ideal") == "ideal":
        splitting = math.inf
    else:
        splitting = sec.rate("splitting_eg")
    mode_word = sec.word("mode", "opposite")
    try:
        mode = {"opposite": ExchangeMode.OPPOSITE_RESONANT,
                "equal": ExchangeMode.EQUAL_RESONANT}[mode_word]
    except KeyError:
        raise ConfigError(f"scheme.simple_exchange.mode must be opposite or equal, "
                          f"got {mode_word!r}")
    try:
        return ExchangeConfig(
            cavity=cavity, detuning=detuning, splitting_eg=splitting,
            detuning_error=sec.rate("detuning_error", 0.0),
            gamma_eff=run.decoherence.effective_rate(Scheme.SIMPLE_EXCHANGE),
            mode=mode,
        )
    except ValueError as exc:
        raise ConfigError(f"scheme.simple_exchange: {exc}")


def build_raman(run: RunConfig) -> RamanConfig:
    sec = run.scheme_section("raman")
    cavity = run.cavity
    if sec.word("two_photon") == "optimal":
        two_photon = optimal_two_photon(cavity.kappa, cavity.cooperativity)
    else:
        two_photon = sec.rate("two_photon")
    laser = sec.rate("laser_detuning")
    gamma_eff = run.decoherence.effective_rate(Scheme.RAMAN)
    two_eps = sec.rate("two_photon_error", 0.0)
    laser_eps = sec.rate("laser_detuning_error", 0.0)
    rabi_over = sec.number("rabi_over_detuning")
    rabi_a = sec.rate("rabi_a", 0.0)
    if (rabi_over is None) == (rabi_a == 0.0):
        raise ConfigError("scheme.raman needs exactly one of rabi_over_detuning or rabi_a")
    # a zero drive has no finite gate time
    if rabi_over is not None and not rabi_over > 0:
        raise ConfigError(f"{sec.key('rabi_over_detuning')} must be > 0, got {rabi_over!r}")
    kwargs = {}
    rabi_b_word = sec.word("rabi_b", "matched")
    if rabi_b_word != "matched":
        kwargs["rabi_b"] = sec.rate("rabi_b")
        if not kwargs["rabi_b"] > 0:
            raise ConfigError(f"{sec.key('rabi_b')} must be > 0 or matched, got "
                              f"{kwargs['rabi_b']!r}")
    try:
        det_a = laser + 0.5 * laser_eps
        det_b = laser - 0.5 * laser_eps
        if rabi_over is not None:
            rabi_a = rabi_over * det_a
        return RamanConfig(
            cavity=cavity,
            laser_detuning_a=det_a, laser_detuning_b=det_b,
            two_photon_a=two_photon + 0.5 * two_eps,
            two_photon_b=two_photon - 0.5 * two_eps,
            rabi_a=rabi_a, gamma_eff=gamma_eff, **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"scheme.raman: {exc}")


SCHEME_BUILDERS = {
    "scattering": build_scattering,
    "simple_exchange": build_exchange,
    "raman": build_raman,
}
