import configparser
import json
import math
import os
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import cavity_gates
from cavity_gates import cli, config as cfg_mod, exchange, lindblad, raman, scattering
from cavity_gates.cli import main
from cavity_gates.errors import ConfigError
from cavity_gates.params import GateResults, config_shape

YB_CONFIG = """
[cavity]
cooperativity = 50000
g_over_kappa = 0.1
gamma = 596 hz

[decoherence]
qubit_t2 = 6.6e-3 s
optical_pure_dephasing = 9e3 rad_s

[scheme.scattering]
delta_p = 30 per_gamma
gate_time = 1 inv_gamma

[scheme.simple_exchange]
detuning = optimal
splitting_eg = 0.2e9 hz

[scheme.raman]
two_photon = optimal
laser_detuning = 2 per_kappa
rabi_over_detuning = 0.1
"""


@pytest.fixture
def yb_path(tmp_path):
    path = tmp_path / "yb.ini"
    path.write_text(YB_CONFIG)
    return str(path)


def test_load_config_units():
    run = cfg_mod.load_config_text(YB_CONFIG)
    assert run.cavity.gamma == pytest.approx(2 * math.pi * 596.0)
    assert run.cavity.cooperativity == pytest.approx(50_000.0, rel=1e-12)
    assert run.decoherence.qubit_t2 == 6.6e-3
    sc = cfg_mod.build_scattering(run)
    assert sc.pulse.delta_p == pytest.approx(30.0 * run.cavity.gamma)
    assert sc.pulse.gate_time == pytest.approx(1.0 / run.cavity.gamma)
    assert sc.gamma_eff == pytest.approx(0.5 / 6.6e-3)


def _config_error(text):
    with pytest.raises(ConfigError) as excinfo:
        cfg_mod.load_config_text(text)
    return str(excinfo.value)


def test_rate_units():
    """Each rate unit scales exactly as the table of `config` says, and a
    bare number is rad_s. An unknown unit, and a per_gamma or per_kappa read
    before that cavity rate is known, are config errors naming the key."""
    run = cfg_mod.load_config_text(
        "[cavity]\ngamma = 4\ng = 0.5 per_gamma\nkappa = 3 hz\n"
        "[decoherence]\nqubit_relaxation = 2 rad_s\nqubit_pure_dephasing = 0.25 per_kappa\n"
        "optical_pure_dephasing = 1.5 per_gamma\n")
    kappa = 3.0 * (2.0 * math.pi)
    assert (run.cavity.gamma, run.cavity.g, run.cavity.kappa) == (4.0, 2.0, kappa)
    deco = run.decoherence
    assert (deco.qubit_relaxation, deco.qubit_pure_dephasing, deco.optical_pure_dephasing) == (
        2.0, 0.25 * kappa, 6.0)
    assert _config_error("[cavity]\ngamma = 1 thz\n") == (
        "cavity.gamma: unknown rate unit 'thz'; expected one of "
        "['hz', 'per_gamma', 'per_kappa', 'rad_s']")
    assert _config_error("[cavity]\ngamma = 1 per_gamma\n") == (
        "cavity.gamma: per_gamma unit requires gamma")
    assert _config_error("[cavity]\ngamma = 1\ng = 1 per_kappa\nkappa = 1\n") == (
        "cavity.g: per_kappa unit requires kappa")


def test_time_units():
    """Each duration unit scales exactly as the table of `config` says, and
    a bare number is s; an unknown unit, a rate unit among them, is a config
    error naming the key."""
    def t2(value):
        return f"[cavity]\ngamma = 4\ng = 1\nkappa = 1\n[decoherence]\nqubit_t2 = {value}\n"

    for value, seconds in (("3", 3.0), ("3 s", 3.0), ("s: 3", 3.0), ("2 inv_gamma", 0.5)):
        assert cfg_mod.load_config_text(t2(value)).decoherence.qubit_t2 == seconds
    for unit in ("fortnight", "hz"):
        assert _config_error(t2(f"1 {unit}")) == (
            f"decoherence.qubit_t2: unknown time unit '{unit}'; expected one of ['inv_gamma', 's']")


def test_prefix_unit_form_equivalent():
    a = cfg_mod.load_config_text(YB_CONFIG)
    b = cfg_mod.load_config_text(YB_CONFIG.replace("gamma = 596 hz", "gamma = hz: 596"))
    assert a.cavity.gamma == b.cavity.gamma


def test_exchange_and_raman_builders():
    run = cfg_mod.load_config_text(YB_CONFIG)
    ex = cfg_mod.build_exchange(run)
    assert ex.detuning == pytest.approx(0.5 * run.cavity.kappa * math.sqrt(50_000.0))
    assert ex.splitting_eg == pytest.approx(2 * math.pi * 0.2e9)
    assert ex.gamma_eff == pytest.approx(0.5 / 6.6e-3 + 4.5e3)
    rm = cfg_mod.build_raman(run)
    assert rm.two_photon == pytest.approx(ex.detuning)
    assert rm.laser_detuning == pytest.approx(2 * run.cavity.kappa)
    assert rm.rabi_a == pytest.approx(0.2 * run.cavity.kappa)
    assert rm.gamma_eff == pytest.approx(0.5 / 6.6e-3)  # no shelving decay given


def test_config_errors_name_keys():
    with pytest.raises(ConfigError) as err:
        cfg_mod.load_config_text("[cavity]\ngamma = abc hz\n")
    assert "cavity.gamma" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cfg_mod.load_config_text("[cavity]\ngamma = 1 rad_s\ncooperativity = 10\n")
    assert "g_over_kappa" in str(err.value)
    # without a cooperativity the cavity needs both g and kappa
    for cavity, key in (("", "cavity.g"), ("g = 2 rad_s\n", "cavity.kappa")):
        with pytest.raises(ConfigError) as err:
            cfg_mod.load_config_text("[cavity]\ngamma = 1 rad_s\n" + cavity)
        assert str(err.value) == (f"{key} is required: the cavity needs either "
                                  "cooperativity+g_over_kappa or g+kappa")
    run = cfg_mod.load_config_text("[cavity]\ngamma = 1 rad_s\n"
                                   "cooperativity = 10\ng_over_kappa = 0.1\n")
    with pytest.raises(ConfigError) as err:
        cfg_mod.build_raman(run)
    assert "scheme.raman" in str(err.value)


def test_dimensionless_gamma_mode():
    run = cfg_mod.load_config_text(
        "[cavity]\ngamma = 1 rad_s\ncooperativity = 4000\ng_over_kappa = 0.5\n"
        "[scheme.scattering]\nsigma_p = 2 per_gamma\ndelta_p = 0\n")
    sc = cfg_mod.build_scattering(run)
    assert sc.pulse.sigma_p == 2.0


def test_scattering_requires_exactly_one_duration():
    base = ("[cavity]\ngamma = 1 rad_s\ncooperativity = 4000\ng_over_kappa = 0.5\n"
            "[scheme.scattering]\ndelta_p = 0\n")
    with pytest.raises(ConfigError):
        cfg_mod.build_scattering(cfg_mod.load_config_text(base))
    both = base + "sigma_p = 2 per_gamma\ngate_time = 1 inv_gamma\n"
    with pytest.raises(ConfigError):
        cfg_mod.build_scattering(cfg_mod.load_config_text(both))


def test_cli_evaluate_json(yb_path):
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "scattering", yb_path, "--method", "analytic"])
    assert result.exit_code == 0
    record = json.loads(result.stdout)
    assert record["schema_version"] == 1
    assert record["fidelity"] == pytest.approx(0.98, abs=3e-3)
    assert record["gate_time"] == pytest.approx(2.67e-4, rel=1e-2)
    assert result.stderr == ""


def test_cli_evaluate_exchange_case(yb_path):
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "simple_exchange", yb_path])
    record = json.loads(result.stdout)
    assert record["fidelity"] == pytest.approx(0.952, abs=3e-3)
    assert record["gate_time"] == pytest.approx(7.5e-6, rel=0.01)


def test_cli_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[cavity]\ngamma = oops hz\ncooperativity = 10\ng_over_kappa = 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "scattering", str(bad)])
    assert result.exit_code == 2
    assert "cavity.gamma" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("scheme, old, new, method", [
    ("raman", "two_photon = optimal", "two_photon = nan rad_s", "analytic"),
    ("simple_exchange", "detuning = optimal", "detuning = inf rad_s", "lindblad"),
    ("scattering", "delta_p = 30 per_gamma", "delta_p = inf rad_s", "analytic"),
    ("scattering", "gate_time = 1 inv_gamma", "gate_time = -1 inv_gamma", "analytic"),
    *(("simple_exchange", "splitting_eg = 0.2e9 hz", "splitting_eg = 0 per_kappa", method)
      for method in ("analytic", "numeric", "lindblad")),
    *(("raman", "rabi_over_detuning = 0.1", new, method)
      for new in ("rabi_over_detuning = 0.1\nrabi_b = -1 rad_s", "rabi_over_detuning = 0")
      for method in ("analytic", "numeric", "lindblad")),
    # the format has no interpolation, so a "%" is part of the value
    ("simple_exchange", "detuning = optimal", "detuning = 5% per_kappa", "numeric"),
], ids=["raman-nan", "exchange-inf", "scattering-inf", "scattering-negative-time",
        "zero-splitting-analytic", "zero-splitting-numeric", "zero-splitting-lindblad",
        *(f"raman-{case}-{method}" for case in ("negative-rabi-b", "zero-rabi-over-detuning")
          for method in ("analytic", "numeric", "lindblad")), "exchange-percent"])
def test_cli_bad_number_is_config_error(tmp_path, scheme, old, new, method):
    assert old in YB_CONFIG
    path = tmp_path / "bad.ini"
    path.write_text(YB_CONFIG.replace(old, new))
    result = CliRunner().invoke(main, ["evaluate", scheme, str(path), "--method", method])
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)   # no traceback
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


OVERFLOW = "error: fidelity is nan: the evaluation overflowed"
RAMAN_TIME = "error: Raman gate time leaves the double range"


# C = 1000, where each of these numbers used to end in a traceback (exit 1),
# or in an infinite gate time printed as a valid result (exit 0); stderr is
# the warnings the evaluation raised, then the error line
@pytest.mark.parametrize("scheme, edits, method, code, stderr", [
    ("scattering", {"g_over_kappa = 0.1": "g_over_kappa = 1e-200"}, "analytic", 2,
     ["error: cavity: g_over_kappa = 1e-200 puts kappa = C*gamma/(4*(g/kappa)^2) out of "
      "the double range"]),
    ("simple_exchange", {"gamma = 596 hz": "gamma = 1e300 hz"}, "analytic", 2,
     ["error: cavity: CavitySystem cooperativity 4 g^2/(kappa gamma) must be finite, got inf"]),
    ("simple_exchange", {"detuning = optimal": "detuning = 1e-300 rad_s"}, "analytic", 3,
     [OVERFLOW]),
    ("raman", {"two_photon = optimal": "two_photon = 1e300 rad_s"}, "analytic", 3,
     [RAMAN_TIME]),
    ("scattering", {"delta_p = 30 per_gamma": "delta_p = 1e160 rad_s"}, "analytic", 3,
     ["warning: inputs outside the closed-form validity domain (C >> 1, detunings small "
      "against gamma*C)",
      "error: closed-form scattering fidelity overflows: (34, 'Numerical result out of range')"]),
    ("simple_exchange", {"detuning = optimal": "detuning = 1e300 rad_s"}, "lindblad", 3,
     ["error: propagation overflows: ||H|| t is past the double range"]),
    # T = pi Delta/g^2 overflows at g = 0.1 rad/s
    ("simple_exchange", {"cooperativity = 1000\ng_over_kappa = 0.1\ngamma = 596 hz":
                         "g = 0.1 rad_s\nkappa = 1 rad_s\ngamma = 1 rad_s",
                         "qubit_t2 = 6.6e-3 s\noptical_pure_dephasing = 9e3 rad_s":
                         "qubit_pure_dephasing = 0.01 rad_s",
                         "detuning = optimal": "detuning = 1e308 rad_s"}, "analytic", 3,
     ["error: gate_time is not finite: the evaluation overflowed"]),
    # T = pi (... + delta Delta_A Delta_B)/(...) overflows on every Raman method
    *(("raman", {"two_photon = optimal": "two_photon = 10 rad_s",
                 "laser_detuning = 2 per_kappa": "laser_detuning = 1e300 rad_s"}, method, 3,
       [RAMAN_TIME])
      for method in ("analytic", "numeric", "lindblad")),
    # T = 3e-299 is finite, but Omega_A Omega_B overflows in the closed form
    ("raman", {"cooperativity = 1000\ng_over_kappa = 0.1\ngamma = 596 hz":
               "g = 1e-10 rad_s\nkappa = 1 rad_s\ngamma = 1 rad_s",
               "two_photon = optimal": "two_photon = 10 rad_s",
               "laser_detuning = 2 per_kappa": "laser_detuning = 1 rad_s",
               "rabi_over_detuning = 0.1": "rabi_a = 1e160 rad_s"}, "analytic", 3,
     ["warning: drive is not weak against its detuning (Omega/Delta > 0.5); adiabatic "
      "elimination is unreliable",
      "warning: inputs are at the edge of the adiabatic regime (cavity Rabi or drive Rabi "
      "limit)",
      OVERFLOW]),
    # T = pi Delta/g^2 underflows to 0: a refused row, not a traceback
    *(("simple_exchange", {"detuning = optimal": "detuning = 5e-324 rad_s"}, method, 3,
       ["error: gate_time must be > 0"]) for method in ("numeric", "lindblad")),
    # kappa gamma underflows to 0, so C = 4 g^2/(kappa gamma) is not finite
    ("scattering", {"gamma = 596 hz": "gamma = hz: 1e-300"}, "analytic", 2,
     ["error: cavity: CavitySystem cooperativity 4 g^2/(kappa gamma) must be finite, got inf"]),
    # sigma_p = 8 pi sqrt(2 ln 2)/T overflows: the pulse refuses it
    ("scattering", {"gate_time = 1 inv_gamma": "gate_time = 1e-320 s"}, "numeric", 2,
     ["error: scheme.scattering: PhotonPulse.sigma_p must be finite and > 0, got inf"]),
    # Omega_A = (Omega/Delta) Delta underflows to 0: no finite gate time
    ("raman", {"laser_detuning = 2 per_kappa": "laser_detuning = 1e-300 rad_s",
               "rabi_over_detuning = 0.1": "rabi_over_detuning = 1e-300"}, "numeric", 3,
     [RAMAN_TIME]),
], ids=["kappa-underflow", "cooperativity-overflow", "exchange-nan-fidelity",
        "raman-nan-fidelity", "scattering-overflow", "lindblad-overflow",
        "infinite-gate-time",
        *(f"raman-gate-time-overflow-{method}" for method in ("analytic", "numeric", "lindblad")),
        "raman-drive-overflow", "gate-time-underflow-numeric", "gate-time-underflow-lindblad",
        "kappa-gamma-underflow", "pulse-width-overflow", "raman-drive-underflow"])
def test_cli_extreme_number_is_not_a_traceback(tmp_path, scheme, edits, method, code, stderr):
    """Finite numbers past what the double range can carry through an
    evaluation: cavity rates are config errors, the rest evaluator errors.
    The warnings that explain an error are printed before it, and no
    numpy RuntimeWarning is among them."""
    text = YB_CONFIG.replace("cooperativity = 50000", "cooperativity = 1000")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "extreme.ini"
    path.write_text(text)
    result = CliRunner().invoke(main, ["evaluate", scheme, str(path), "--method", method])
    assert result.exit_code == code, result.exception
    assert isinstance(result.exception, SystemExit)   # no traceback
    assert result.stdout == ""
    assert result.stderr.splitlines() == stderr


def test_cli_far_detuned_emitter_warns_of_nothing(tmp_path):
    """An emitter detuned to 1e300 rad/s takes the scattering gate's
    matrix-function fallback: `evaluate` prints the result with that note,
    and no numpy RuntimeWarning reaches stderr (it used to print 13
    "invalid value" lines from pole terms the fallback replaces)."""
    path = tmp_path / "far.ini"
    path.write_text(YB_CONFIG.replace("gate_time = 1 inv_gamma",
                                      "gate_time = 1 inv_gamma\ndelta_eps_a = 1e300 rad_s"))
    result = CliRunner().invoke(main, ["evaluate", "scattering", str(path), "--method", "numeric"])
    assert result.exit_code == 0, result.stderr
    assert result.stderr == ""
    assert json.loads(result.stdout)["notes"] == ["matrix-function fallback"]


def test_cli_vanishing_kappa_takes_the_fallback(tmp_path):
    """kappa = 1e-301 rad/s (g = 1e-150 rad/s, C = 40) is below the 1e-300
    guard of the reflection denominators: the scattering row takes the
    matrix-function fallback and `evaluate` exits 0 with that note (it
    exited 3, "reflection denominator vanished")."""
    path = tmp_path / "tiny-kappa.ini"
    path.write_text(YB_CONFIG.replace("cooperativity = 50000\ng_over_kappa = 0.1\ngamma = 596 hz",
                                      "g = 1e-150 rad_s\nkappa = 1e-301 rad_s\ngamma = 1 rad_s"))
    result = CliRunner().invoke(main, ["evaluate", "scattering", str(path), "--method", "numeric"])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["notes"] == ["matrix-function fallback"]


@pytest.mark.parametrize("method", ["analytic", "numeric", "lindblad"])
def test_cli_config_warnings_are_echoed(tmp_path, method):
    """A warning raised while the scheme config is built (a strong Raman
    drive) reaches `evaluate`'s stderr as a `warning: <message>` line, like
    the evaluator's own, and `sweep` ignores it at every point."""
    path = tmp_path / "strong-drive.ini"
    path.write_text(YB_CONFIG.replace("rabi_over_detuning = 0.1", "rabi_over_detuning = 0.6"))
    result = CliRunner().invoke(main, ["evaluate", "raman", str(path), "--method", method])
    assert result.exit_code == 0, result.exception
    assert json.loads(result.stdout)["scheme"] == "raman"
    lines = result.stderr.splitlines()
    assert "warning: drive is not weak against its detuning (Omega/Delta > 0.5); " \
        "adiabatic elimination is unreliable" in lines
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), lines
    with warnings.catch_warnings(record=True) as caught:   # what would reach stderr
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, ["sweep", "raman", str(path), "--method", method,
                                           "--param", "laser_detuning", "--minimum", "1",
                                           "--maximum", "3", "--points", "3",
                                           "--unit", "per_kappa"])
    assert result.exit_code == 0, result.exception
    assert len(_sweep_rows(result.stdout)) == 3
    assert caught == [] and "ValidityWarning" not in result.stderr


def test_cli_cooperativity_underflow_is_config_error(tmp_path):
    """g and kappa that are finite and > 0 but give C = 0 in doubles, which
    every scheme divides by (the scattering closed form used to raise
    ZeroDivisionError)."""
    path = tmp_path / "tiny-g.ini"
    path.write_text(YB_CONFIG.replace("cooperativity = 50000\ng_over_kappa = 0.1",
                                      "g = 1e-200 rad_s\nkappa = 1 rad_s"))
    result = CliRunner().invoke(main, ["evaluate", "scattering", str(path)])
    assert result.exit_code == 2, result.exception
    assert result.stderr == "error: cavity: cooperativity 4 g^2/(kappa gamma) underflows to 0\n"


@pytest.mark.parametrize("scheme, old, key", [
    ("simple_exchange", "splitting_eg = 0.2e9 hz", "scheme.simple_exchange.detuning_eror"),
    ("raman", "qubit_t2 = 6.6e-3 s", "decoherence.qubit_t3"),
    ("scattering", "gamma = 596 hz", "cavity.kappa"),   # g + kappa are read without C only
])
@pytest.mark.parametrize("method", ["analytic", "numeric"])
def test_cli_unread_key_is_config_error(tmp_path, scheme, old, key, method):
    """A key that nothing reads (a misspelling, say) exits 2 naming it,
    where it used to be ignored; keys of other schemes' sections are not
    read and are no error (every YB_CONFIG evaluation above)."""
    option = key.rsplit(".", 1)[1]
    path = tmp_path / "unread.ini"
    path.write_text(YB_CONFIG.replace(old, f"{old}\n{option} = 5 per_gamma"))
    result = CliRunner().invoke(main, ["evaluate", scheme, str(path), "--method", method])
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert result.stderr == f"error: {key} is never read (misspelled?)\n"


@pytest.mark.parametrize("scheme, method, evaluator", [
    ("scattering", "analytic", scattering.fidelity_analytic),
    ("scattering", "numeric", scattering.fidelity_numeric),
    ("simple_exchange", "analytic", exchange.fidelity_analytic_exchange),
    ("simple_exchange", "numeric", exchange.fidelity_numeric_exchange),
    ("simple_exchange", "lindblad", lindblad.gate_fidelity_lindblad),
    ("raman", "analytic", raman.fidelity_analytic_raman),
    ("raman", "numeric", raman.fidelity_numeric_raman),
    ("raman", "lindblad", lindblad.gate_fidelity_lindblad),
])
def test_cli_evaluate_dispatches_to_the_library(yb_path, scheme, method, evaluator):
    """Each (scheme, method) of `evaluate` is the library evaluator of that
    pair: its record carries that evaluator's GateResult exactly."""
    result = CliRunner().invoke(main, ["evaluate", scheme, yb_path, "--method", method])
    assert result.exit_code == 0, result.stderr
    record = json.loads(result.stdout)
    run = cfg_mod.load_config_text(YB_CONFIG)
    expected = evaluator(cfg_mod.SCHEME_BUILDERS[scheme](run)).single()
    assert (record["method"], record["fidelity"], record["gate_time"],
            record["success_probability"], record["notes"]) == (
        expected.method.value, expected.fidelity, expected.gate_time,
        expected.success_probability, list(expected.notes))
    assert record["gate_time_gamma"] == expected.gate_time * run.cavity.gamma


def test_cli_evaluators_are_the_package_evaluators():
    """Every (scheme, method) of the CLI maps to the package-level evaluator
    of that name, which returns GateResults."""
    run = cfg_mod.load_config_text(YB_CONFIG)
    for (scheme, method), evaluator in cli._EVALUATORS.items():
        assert getattr(cavity_gates, evaluator.__name__) is evaluator, (scheme, method)
        result = evaluator(cfg_mod.SCHEME_BUILDERS[scheme](run))
        assert isinstance(result, GateResults), (scheme, method)


def test_cli_exit_code_evaluator_error(yb_path):
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "scattering", yb_path,
                                  "--method", "lindblad"])
    assert result.exit_code == 3
    assert result.stdout == ""


def test_cli_warning_goes_to_stderr(tmp_path):
    text = YB_CONFIG.replace("delta_p = 30 per_gamma", "delta_p = 40000 per_gamma")
    path = tmp_path / "warn.ini"
    path.write_text(text)
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "scattering", str(path)])
    assert result.exit_code == 0
    assert "warning" in result.stderr
    json.loads(result.stdout)  # stdout still clean JSON


def test_cli_figure_writes_files(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["figure", "fig7", "--out", str(tmp_path)])
    assert result.exit_code == 0
    csv_path = tmp_path / "fig7.csv"
    manifest_path = tmp_path / "fig7.manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"] == ["fig7.csv"]
    assert manifest["tool_version"]
    # identical rebuild gives identical CSV bytes and config hash
    second = tmp_path / "again"
    runner.invoke(main, ["figure", "fig7", "--out", str(second)])
    assert (second / "fig7.csv").read_bytes() == csv_path.read_bytes()
    assert json.loads((second / "fig7.manifest.json").read_text())["config_hash"] == \
        manifest["config_hash"]


def test_cli_figure_unwritable(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    runner = CliRunner()
    result = runner.invoke(main, ["figure", "fig7", "--out", str(target)])
    assert result.exit_code == 4


def test_cli_casestudy_defaults_and_overrides(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["casestudy", "--out", str(tmp_path)])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["scattering"]["fidelity"] == pytest.approx(0.98, abs=3e-3)
    assert report["simple_exchange"]["fidelity"] == pytest.approx(0.952, abs=3e-3)
    assert report["raman"]["fidelity"] == pytest.approx(0.93, abs=5e-3)
    assert (tmp_path / "casestudy.json").exists()
    assert (tmp_path / "casestudy.manifest.json").exists()

    better = json.loads(runner.invoke(main, ["casestudy", "--t2-ms", "30"]).stdout)
    for scheme in ("scattering", "simple_exchange", "raman"):
        assert better[scheme]["fidelity"] > report[scheme]["fidelity"]

    low = json.loads(runner.invoke(main, ["casestudy", "--cooperativity", "1"]).stdout)
    for scheme in ("scattering", "simple_exchange", "raman"):
        assert low[scheme]["fidelity"] < 0.7


@pytest.mark.parametrize("option, value", [("--cooperativity", "nan"),
                                           ("--g-over-kappa", "inf"), ("--t2-ms", "-1")])
def test_cli_casestudy_bad_option_is_config_error(option, value):
    result = CliRunner().invoke(main, ["casestudy", option, value])
    assert result.exit_code == 2, result.exception
    assert isinstance(result.exception, SystemExit)   # no traceback
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {option}") and result.stderr.count("\n") == 1


def test_cli_casestudy_refused_input_is_evaluator_error():
    """A finite option value whose cavity leaves the double range is refused
    by the scheme with a ValueError, which the case study reports as an
    evaluator error: exit 3, one `error:` line and no traceback."""
    result = CliRunner().invoke(main, ["casestudy", "--g-over-kappa", "1e200"])
    assert result.exit_code == 3, result.exception
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert result.stderr.endswith("out of the double range\n")


def test_cli_casestudy_warnings_on_stderr():
    # warnings are echoed as `warning: <message>` lines, as by evaluate,
    # without source locations, and stdout stays the JSON report
    result = CliRunner().invoke(main, ["casestudy", "--cooperativity", "5"])
    assert result.exit_code == 0
    lines = result.stderr.splitlines()
    assert lines == ["warning: inputs outside the closed-form validity domain "
                     "(C >> 1, detunings small against gamma*C)",
                     "warning: expansion assumes C >> 1",
                     "warning: expansion assumes C >> 1"]
    assert json.loads(result.stdout)["parameters"]["cooperativity"] == 5.0


def test_cli_casestudy_at_tiny_cooperativity():
    """Far below C ~ 4.9e-6 the exchange ceiling no longer overflows cosh:
    both exchange maxima are the 1/2 of a gate that imprints no phase, with
    no overflow warning."""
    result = CliRunner().invoke(main, ["casestudy", "--cooperativity", "1e-7"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["simple_exchange"]["fidelity"] == report["raman"]["fidelity"] == 0.5
    assert "overflow" not in result.stderr and "cosh" not in result.stderr
    assert exchange.cooperativity_limited_max_exchange(1e-7) == 0.5


def test_cli_sweep_roundtrip(yb_path, tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, [
        "sweep", "simple_exchange", yb_path, "--param", "detuning",
        "--minimum", "50", "--maximum", "200", "--points", "3", "--log",
        "--unit", "per_kappa", "--method", "analytic"])
    assert result.exit_code == 0
    lines = [l for l in result.stdout.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "detuning,fidelity,gate_time_gamma"
    assert len(lines) == 4


def test_cli_sweep_writes_files(yb_path, tmp_path):
    """`sweep --out` writes the table and its run manifest, prints both paths
    as `figure --out` does, and leaves stdout without the table."""
    result = CliRunner().invoke(main, [
        "sweep", "simple_exchange", yb_path, "--param", "detuning",
        "--minimum", "50", "--maximum", "200", "--points", "3", "--log",
        "--unit", "per_kappa", "--method", "analytic", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.stderr
    csv_path, manifest_path = tmp_path / "sweep.csv", tmp_path / "sweep.manifest.json"
    assert json.loads(result.stdout) == {"outputs": [str(csv_path), str(manifest_path)]}
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "detuning,fidelity,gate_time_gamma" and len(lines) == 5
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"] == ["sweep.csv"]
    assert manifest["command"] == "sweep simple_exchange detuning"


def _sweep_detuning(path, param="detuning", minimum="50", maximum="200", points="3",
                    scale="--log", unit="per_kappa"):
    return CliRunner().invoke(main, [
        "sweep", "simple_exchange", path, "--param", param, "--minimum", minimum,
        "--maximum", maximum, "--points", points, scale, "--unit", unit,
        "--method", "analytic"])


def _sweep_rows(stdout):
    return [[float(x) for x in line.split(",")] for line in stdout.splitlines()[2:]]


def test_cli_sweep_rows_match_evaluate(yb_path, tmp_path):
    """Each sweep row equals `evaluate` on a config file with the swept key
    rewritten to that row's value."""
    rows = _sweep_rows(_sweep_detuning(yb_path).stdout)
    assert len(rows) == 3
    runner = CliRunner()
    for value, fidelity, gate_time_gamma in rows:
        path = tmp_path / "point.ini"
        path.write_text(YB_CONFIG.replace("detuning = optimal",
                                          f"detuning = {value!r} per_kappa"))
        record = json.loads(runner.invoke(
            main, ["evaluate", "simple_exchange", str(path)]).stdout)
        assert fidelity == pytest.approx(record["fidelity"], rel=1e-10)
        assert gate_time_gamma == pytest.approx(record["gate_time_gamma"], rel=1e-10)


def test_cli_sweep_key_is_case_insensitive(yb_path):
    lower = _sweep_detuning(yb_path)
    upper = _sweep_detuning(yb_path, param="DETUNING")
    assert upper.exit_code == 0
    assert _sweep_rows(upper.stdout) == _sweep_rows(lower.stdout)
    fidelities = [row[1] for row in _sweep_rows(upper.stdout)]
    assert len(set(fidelities)) == 3


def test_cli_sweep_rejects_unread_key(yb_path):
    result = _sweep_detuning(yb_path, param="detunin")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "scheme.simple_exchange.detunin" in result.stderr


@pytest.mark.parametrize("grid", [
    {"points": "0"}, {"points": "1"},
    {"minimum": "200", "maximum": "200"}, {"minimum": "200", "maximum": "50"},
    {"minimum": "0", "maximum": "50"}, {"minimum": "-5", "maximum": "50"},
    {"minimum": "50", "maximum": "inf"},
])
def test_cli_sweep_rejects_bad_grid(yb_path, grid):
    result = _sweep_detuning(yb_path, **grid)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "sweep grid" in result.stderr


def test_cli_sweep_nan_row_on_point_error(yb_path):
    """A point whose config is invalid becomes a NaN row with a warning;
    the sweep still completes."""
    result = _sweep_detuning(yb_path, minimum="-100", maximum="100", scale="--linear")
    assert result.exit_code == 0
    rows = _sweep_rows(result.stdout)
    assert [math.isnan(row[1]) for row in rows] == [True, True, False]
    assert 0.0 < rows[2][1] < 1.0
    assert result.stderr.count("warning: detuning=") == 2


def _spy_evaluator(monkeypatch, scheme, method):
    """Record the shape of the config of every evaluator call that the CLI
    makes for (scheme, method)."""
    shapes = []
    evaluator = cli._EVALUATORS[(scheme, method)]

    def spy(config):
        shapes.append(config_shape(config))
        return evaluator(config)
    monkeypatch.setitem(cli._EVALUATORS, (scheme, method), spy)
    return shapes


@pytest.mark.parametrize("scheme, method", [
    (scheme, method) for scheme, method in cli._EVALUATORS])
def test_cli_sweep_is_one_evaluator_call(yb_path, monkeypatch, scheme, method):
    """A sweep whose points all evaluate makes one evaluator call, on the
    stacked config of its grid."""
    param = {"scattering": "delta_p", "simple_exchange": "detuning",
             "raman": "laser_detuning"}[scheme]
    lo, hi, unit = ("0", "40", "per_gamma") if scheme == "scattering" else ("5", "50", "per_kappa")
    shapes = _spy_evaluator(monkeypatch, scheme, method)
    result = CliRunner().invoke(main, [
        "sweep", scheme, yb_path, "--param", param, "--minimum", lo, "--maximum", hi,
        "--points", "5", "--unit", unit, "--method", method])
    assert result.exit_code == 0, result.stderr
    assert shapes == [(5,)]
    assert not any(math.isnan(row[1]) for row in _sweep_rows(result.stdout))


def test_cli_sweep_refused_batch_keeps_point_rows(yb_path, monkeypatch, tmp_path):
    """A point that builds but fails to evaluate (the closed form overflows
    far below kappa) is a refused row of the one batch call: that point
    gets its nan,nan row and its warning, with the error that `evaluate`
    gives it, and the other rows are those of `evaluate`."""
    shapes = _spy_evaluator(monkeypatch, "simple_exchange", "analytic")
    result = _sweep_detuning(yb_path, minimum="1e-4", maximum="100")
    assert result.exit_code == 0
    assert shapes == [(3,)]
    assert result.stdout.splitlines()[2] == "1.00000000000e-04,nan,nan"
    assert result.stderr == ("warning: detuning=0.0001: fidelity is nan: the evaluation "
                             "overflowed\n")
    for value, fidelity, gate_time_gamma in _sweep_rows(result.stdout)[1:]:
        path = tmp_path / "point.ini"
        path.write_text(YB_CONFIG.replace("detuning = optimal",
                                          f"detuning = {value!r} per_kappa"))
        record = json.loads(CliRunner().invoke(
            main, ["evaluate", "simple_exchange", str(path)]).stdout)
        assert fidelity == pytest.approx(record["fidelity"], rel=1e-10)
        assert gate_time_gamma == pytest.approx(record["gate_time_gamma"], rel=1e-10)


@pytest.mark.parametrize("unit", ["per_kapa", "s"])
def test_cli_sweep_fails_when_no_point_evaluates(yb_path, unit):
    """A misspelled unit, or a duration unit on a rate key, fails at every
    point: no table, and the config-error exit code."""
    result = _sweep_detuning(yb_path, unit=unit)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "no grid point evaluated" in result.stderr
    assert f"unknown rate unit '{unit}'" in result.stderr


@pytest.mark.parametrize("scheme, param, minimum, maximum", [
    ("scattering", "gate_time", "1e-4", "1e-3"),          # a duration: s
    ("raman", "rabi_over_detuning", "0.05", "0.2"),       # dimensionless
    ("simple_exchange", "detuning", "1e11", "1e12"),      # a rate: rad_s
])
def test_cli_sweep_without_unit_uses_the_key_unit(yb_path, scheme, param, minimum, maximum):
    """Without --unit the swept values are bare numbers, in the key's own
    unit: every point evaluates, and a rate key's rows are those of
    --unit rad_s."""
    argv = ["sweep", scheme, yb_path, "--param", param, "--minimum", minimum,
            "--maximum", maximum, "--points", "3", "--method", "analytic"]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.stderr
    rows = _sweep_rows(result.stdout)
    assert len(rows) == 3 and not any(math.isnan(row[1]) for row in rows)
    if param == "detuning":
        assert rows == _sweep_rows(CliRunner().invoke(main, argv + ["--unit", "rad_s"]).stdout)


def test_cli_sweep_evaluator_error_at_every_point(yb_path):
    result = CliRunner().invoke(main, [
        "sweep", "scattering", yb_path, "--param", "delta_p", "--minimum", "1",
        "--maximum", "5", "--points", "3", "--unit", "per_gamma", "--method", "lindblad"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "no Lindblad path" in result.stderr


def test_figure_csv_roundtrip_through_evaluate(tmp_path):
    """Rebuilding a row's config from the CSV parameter block reproduces the
    numeric column through the evaluate command."""
    from cavity_gates import figures

    data = figures.build_figure("fig2b")
    # reconstruct the config with the swept value of a middle row
    row = data.rows[17]
    delta_p = row[0]
    numeric_weak = row[1]  # g/kappa = 0.01 column
    config_text = "\n".join(data.comments).replace("SWEEP", repr(float(delta_p)))
    path = tmp_path / "row.ini"
    path.write_text(config_text + "\n")
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "scattering", str(path),
                                  "--method", "numeric"])
    assert result.exit_code == 0
    record = json.loads(result.stdout)
    assert record["fidelity"] == pytest.approx(numeric_weak, abs=1e-9)


def test_fig4_csv_roundtrip_through_evaluate(tmp_path):
    from cavity_gates import figures

    data = figures.build_figure("fig4")
    row = data.rows[100]
    config_text = "\n".join(data.comments).replace("SWEEP", repr(float(row[0])))
    path = tmp_path / "row.ini"
    path.write_text(config_text + "\n")
    runner = CliRunner()
    record = json.loads(runner.invoke(
        main, ["evaluate", "simple_exchange", str(path), "--method", "numeric"]).stdout)
    assert record["fidelity"] == pytest.approx(row[1], abs=1e-9)
    record = json.loads(runner.invoke(
        main, ["evaluate", "simple_exchange", str(path), "--method", "analytic"]).stdout)
    assert record["fidelity"] == pytest.approx(row[3], abs=1e-9)


# --- the INI reader ---------------------------------------------------------

def _configparser_sections(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read_string(text)
    return [(name, list(parser[name].items())) for name in parser.sections()]


_INDENTS = st.sampled_from(["", "", "", "", "", " ", "\t", "\xa0"])
_COMMENTS = st.sampled_from(["", "", "", " # note", "\t; note", "#x", ";x", " ;"])
_VALUES = st.text(alphabet=" \t\r\xa0\x0b\x85\u2028#;:=%[]aZ9.-\u0130", max_size=6)
_SECTION_NAMES = st.sampled_from(["cavity", "scheme.raman", "Cavity", "default", " x ", "a]b",
                                  "a\x85b", "a\u2028b", "decoherence", "other", "DEFAULT", ""])
_KEYS = st.builds("{}{}".format, st.sampled_from(["gamma", "Gamma", "a b", "\u0130", "k\x0b", ""]),
                  st.text(alphabet="aZ9_ \u0130", max_size=3))
_DELIMITERS = st.sampled_from(["=", ":", " = ", " : ", "\t=", "\xa0:", "=", ":", " =", ""])
_BLANK_LINES = st.sampled_from(["", "  ", "\r", "# comment", "; comment", "  # c"])


@st.composite
def _ini_texts(draw):
    """Mostly well-formed INI text, with each refused construct now and then."""
    lines = draw(st.lists(_BLANK_LINES, max_size=2))
    for name in draw(st.lists(_SECTION_NAMES, max_size=3, unique=True)):
        lines.append(draw(_INDENTS) + f"[{name}]" + draw(st.sampled_from(["", " # note", "\t;"])))
        indent = draw(_INDENTS)
        for i, key in enumerate(draw(st.lists(_KEYS, max_size=4,
                                              unique_by=lambda k: k.strip().lower()))):
            # a line indented past the key line before it is a continuation
            deeper = draw(st.sampled_from(["", "", "", "", "", "", " "])) if i else ""
            lines.append(indent + deeper + key + draw(_DELIMITERS) + draw(_VALUES)
                         + draw(_COMMENTS))
            lines += draw(st.lists(_BLANK_LINES, max_size=1))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_ini_texts())
def test_read_ini_matches_configparser(text):
    """Every text the reader accepts reads as it does with configparser
    (inline comments on, interpolation off), sections and keys in order."""
    try:
        sections = cfg_mod._read_ini(text)
    except ConfigError:
        return
    assert [(name, list(keys.items())) for name, keys in sections.items()] == \
        _configparser_sections(text)


def test_read_ini_grammar():
    # a key line indented no deeper than the one before it starts a new key
    text = ("; leading comment\r\n[cavity]\r\n  Gamma = hz: 596 # inline\r\n"
            "\r\nG:2;not a comment ; a comment\r\n[Cavity]\r\n\tx = 5% per_kappa\r\n"
            "\ty = 1\r\n[other]\r\nempty =\r\n")
    expected = {"cavity": {"gamma": "hz: 596", "g": "2;not a comment"},
                "Cavity": {"x": "5% per_kappa", "y": "1"}, "other": {"empty": ""}}
    assert cfg_mod._read_ini(text) == expected
    assert dict((name, dict(keys)) for name, keys in _configparser_sections(text)) == expected


@pytest.mark.parametrize("text, line, message", [
    ("[cavity]\ndetuning = 5\n  per_kappa\n", 3, "continuation"),
    ("[cavity]\ngamma = 1\n\n# note\n\tx = 2\n", 5, "continuation"),
    ("[cavity]\n  gamma = 1\n   g = 2\n", 3, "continuation"),
    ("[DEFAULT]\ngamma = 1\n[cavity]\n", 1, "DEFAULT"),
    ("[cavity]\ngamma 1 rad_s\n", 2, "expected 'key = value'"),
    ("[cavity]\n = 1 rad_s\n", 2, "expected 'key = value'"),
    ("[cavity]\ngamma = 1\n[cavity]\n", 3, "duplicate section [cavity]"),
    ("[cavity]\ngamma = 1\nGAMMA = 2\n", 3, "duplicate key cavity.gamma"),
    ("gamma = 1\n[cavity]\n", 1, "before the first [section]"),
    ("[cavity\ngamma = 1\n", 1, "malformed section header"),
])
def test_read_ini_refusals_name_the_line(text, line, message):
    with pytest.raises(ConfigError) as err:
        cfg_mod._read_ini(text)
    assert str(err.value).startswith(f"config line {line}: ")
    assert message in str(err.value)


# --- no traceback from any CLI input ----------------------------------------

#: every documented key: its value in a config that evaluates, or None to leave it out
_FUZZ_BASE = {
    "cavity": {"cooperativity": "1000", "g_over_kappa": "0.1", "gamma": "596 hz",
               "g": None, "kappa": None},
    "decoherence": {"qubit_t2": "6.6e-3 s", "optical_pure_dephasing": "9e3 rad_s",
                    "qubit_relaxation": None, "qubit_pure_dephasing": None,
                    "shelving_decay": None},
    "scheme.scattering": {"delta_p": "30 per_gamma", "gate_time": "1 inv_gamma",
                          "sigma_p": None, "delta_eps_a": None, "delta_eps_b": None},
    "scheme.simple_exchange": {"detuning": "optimal", "splitting_eg": "0.2e9 hz",
                               "detuning_error": None, "mode": None},
    "scheme.raman": {"two_photon": "optimal", "laser_detuning": "2 per_kappa",
                     "rabi_over_detuning": "0.1", "two_photon_error": None,
                     "laser_detuning_error": None, "rabi_a": None, "rabi_b": None},
}
_FUZZ_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300",
                                 "5e-324", "1e160", "5%", "", "2", "0.5", "40", "1e4"])
_FUZZ_UNITS = st.sampled_from(["", " rad_s", " hz", " per_gamma", " per_kappa", " s",
                               " inv_gamma", " bogus"])
_FUZZ_VALUES = (st.builds("{}{}".format, _FUZZ_NUMBERS, _FUZZ_UNITS)
                | st.builds("hz: {}".format, _FUZZ_NUMBERS)
                | st.sampled_from(["optimal", "ideal", "matched", "equal", "opposite", "% x"]))
_FUZZ_EXTRAS = st.sampled_from(["[scheme.raman]\nrabi_a = 1 rad_s", "[DEFAULT]\ngamma = 1 rad_s",
                                "[unknown]\nfoo = 1", "[cavity]\ngamma = 1 rad_s",
                                "  per_kappa", "gamma = 1 rad_s", "x"])
_FUZZ_OPTIONS = st.sampled_from(["nan", "inf", "0", "-1", "1e300", "1e-300", "5e-324", "5", "3000",
                                 "0.1"])


_FUZZ_KEYS = [(section, key) for section, keys in _FUZZ_BASE.items() for key in keys]


@st.composite
def _fuzz_config(draw):
    """INI text from the documented keys: up to three keys dropped, added or
    given a random value, plus now and then a construct the format refuses
    or ignores, inline comments and CRLF line endings."""
    changed = draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=3, unique=True))
    lines = []
    for section, keys in _FUZZ_BASE.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if (section, key) in changed:
                value = draw(st.none() | _FUZZ_VALUES)
            if value is not None:
                comment = draw(st.sampled_from(["", "", "", " # note", " ;note"]))
                lines.append(f"{key} = {value}{comment}")
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(_FUZZ_EXTRAS))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


_FUZZ_COMMANDS = st.one_of(
    st.tuples(st.just("evaluate"), st.sampled_from([
        (scheme, method) for scheme in ("scattering", "simple_exchange", "raman")
        for method in ("analytic", "numeric", "lindblad")])),
    st.tuples(st.just("sweep"), st.sampled_from([
        ("scattering", "delta_p"), ("simple_exchange", "detuning"),
        ("raman", "laser_detuning"), ("raman", "two_photon"), ("simple_exchange", "mode")]),
        st.sampled_from(["1", "0.5"]) | _FUZZ_OPTIONS, st.sampled_from(["5", "50"]) | _FUZZ_OPTIONS, st.sampled_from(["--log", "--linear"]),
        st.sampled_from(["per_kappa", "per_gamma", "rad_s", "s", "none", "bogus"])),
    st.tuples(st.just("casestudy"), st.sampled_from(["--t2-ms", "--cooperativity",
                                                     "--g-over-kappa"]), _FUZZ_OPTIONS),
)


def _outcomes(command, stdout):
    """(fidelity, gate times) of each result a successful command printed."""
    if command == "evaluate":
        record = json.loads(stdout)
        return [(record["fidelity"], (record["gate_time"], record["gate_time_gamma"]))]
    if command == "casestudy":
        report = json.loads(stdout)
        return [(report[s]["fidelity"], (report[s]["gate_time_s"],))
                for s in ("scattering", "simple_exchange", "raman")]
    # a sweep point that failed is a nan row
    rows = [line.split(",") for line in stdout.splitlines()[2:]]
    outcomes = [(float(row[1]), (float(row[2]),)) for row in rows if row[1] != "nan"]
    assert outcomes, "a sweep that exits 0 evaluates at least one point"
    return outcomes


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_fuzz_config(), _FUZZ_COMMANDS)
def test_cli_fuzz_never_tracebacks(tmp_path_factory, text, command):
    """Whatever the config text and options, evaluate, sweep and casestudy
    exit 0, 2 or 3, never with a Python exception, and a success reports
    finite fidelities in [0, 1] and finite gate times."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.ini"
    path.write_bytes(text.encode())
    kind = command[0]
    if kind == "evaluate":
        argv = ["evaluate", command[1][0], str(path), "--method", command[1][1]]
    elif kind == "sweep":
        (scheme, param), lo, hi, scale, unit = command[1:]
        argv = ["sweep", scheme, str(path), "--param", param, "--minimum", lo, "--maximum", hi,
                "--points", "3", scale, "--unit", unit, "--method", "analytic"]
    else:
        argv = ["casestudy", command[1], command[2]]
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (argv, text, result.exc_info)
    assert result.exit_code in (0, 2, 3), (argv, text, result.stderr)
    if result.exit_code == 0:
        for fidelity, gate_times in _outcomes(kind, result.stdout):
            assert math.isfinite(fidelity) and 0.0 <= fidelity <= 1.0, (argv, text)
            assert all(math.isfinite(t) for t in gate_times), (argv, text, result.stdout)
    else:
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("error: ")
