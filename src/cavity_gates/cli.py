"""Command-line front end: `cavity-gate <evaluate|figure|casestudy|sweep>`.

Config files are INI-style; the `config` module gives their grammar and
units. The keys, with example values:

    [cavity]
    cooperativity = 50000            # with g_over_kappa, or give g + kappa
    g_over_kappa  = 0.1
    gamma         = 596 hz

    [decoherence]                    # all optional
    qubit_t2               = 6.6e-3 s
    qubit_relaxation       = 0 rad_s
    qubit_pure_dephasing   = 0 rad_s
    optical_pure_dephasing = 9e3 rad_s
    shelving_decay         = 0 rad_s

    [scheme.scattering]
    delta_p     = 30 per_gamma
    gate_time   = 1 inv_gamma        # exactly one of gate_time / sigma_p
    delta_eps_a = 0 per_gamma
    delta_eps_b = 0 per_gamma

    [scheme.simple_exchange]
    detuning       = optimal         # or a rate, e.g. 44.7 per_kappa
    splitting_eg   = 0.2e9 hz        # > 0, or "ideal"
    detuning_error = 0 rad_s
    mode           = opposite        # or "equal"

    [scheme.raman]
    two_photon           = optimal   # or a rate
    two_photon_error     = 0 rad_s
    laser_detuning       = 2 per_kappa
    laser_detuning_error = 0 rad_s
    rabi_over_detuning   = 0.1       # exactly one of this / rabi_a
    rabi_b               = matched   # or a rate

A key that nothing reads in [cavity], [decoherence] or the evaluated
[scheme.<name>] section (a misspelling, say) is a config error.

`sweep --param KEY` overwrites one key of the parsed [scheme.<name>]
section at each grid point (keys are case-insensitive, as in the file).
The values take the `--unit` suffix; without one they are bare numbers,
which `config` reads in the key's own unit. The points whose configs build
are evaluated in one batch call. A key the scheme never reads, and a grid
with fewer than 2 points, a non-finite or unordered range or a
non-positive log range, are config errors. A point that fails becomes a
`nan,nan` row with a warning: one whose config fails, and one the
evaluator refuses (its closed form overflows, say), with the error that
`evaluate` gives it. When every point fails (say, an unknown `--unit`), no
table is printed and the exit code is that of the first point's error; an
evaluator error of the whole batch (the scattering gate has no Lindblad
path) ends the sweep as it ends `evaluate`.

Every number must be finite: `nan` and `inf` are config errors, as are
values the scheme's inputs reject (a `splitting_eg`, a `gate_time`, a
`rabi_over_detuning` or a `rabi_b` <= 0, a negative decoherence rate), and
`casestudy` option values that are not finite and > 0. Use `ideal` for an
infinite splitting. Finite numbers whose cavity rates leave the double range
(a kappa, g or C that is not finite and > 0) are config errors too; an
evaluation that overflows is an evaluator error.

Exit codes: 0 success, 2 config error, 3 evaluator error, 4 unwritable
output. Results go to stdout, warnings and errors to stderr. Every command
prints the warnings it raised, as `warning: <message>` lines, when it ends,
so a command that fails prints them before its `error: <message>` line
(`sweep` ignores the warnings of its grid points).
"""
from __future__ import annotations

import datetime
import functools
import hashlib
import json
import math
import os
import sys
import warnings

import click

from . import __version__, casestudy, config as config_mod, figures
from .errors import CavityGateError, ConfigError
from .exchange import fidelity_analytic_exchange, fidelity_numeric_exchange
from .lindblad import gate_fidelity_lindblad
from .raman import fidelity_analytic_raman, fidelity_numeric_raman
from .params import stack_configs
from .scattering import fidelity_analytic, fidelity_numeric
from .sweep import Axis

EXIT_CONFIG = 2
EXIT_EVALUATOR = 3
EXIT_OUTPUT = 4

#: (scheme, method) -> the library's evaluator, which takes an array-valued config
_EVALUATORS = {
    ("scattering", "analytic"): fidelity_analytic,
    ("scattering", "numeric"): fidelity_numeric,
    ("simple_exchange", "analytic"): fidelity_analytic_exchange,
    ("simple_exchange", "numeric"): fidelity_numeric_exchange,
    ("simple_exchange", "lindblad"): gate_fidelity_lindblad,
    ("raman", "analytic"): fidelity_analytic_raman,
    ("raman", "numeric"): fidelity_numeric_raman,
    ("raman", "lindblad"): gate_fidelity_lindblad,
}
SCHEMES = tuple(dict.fromkeys(scheme for scheme, _ in _EVALUATORS))
METHODS = tuple(dict.fromkeys(method for _, method in _EVALUATORS))


class _Unwritable(Exception):
    """An output file could not be written."""


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _boundary(command):
    """The one error boundary of every command: the warnings it raises are
    echoed as `warning: <message>` lines when it ends, then a ConfigError
    exits with the config-error code, any other CavityGateError with the
    evaluator-error code and an unwritable output with the output code."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return command(*args, **kwargs)
                finally:
                    for w in caught:
                        click.echo(f"warning: {w.message}", err=True)
        except ConfigError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except CavityGateError as exc:
            _fail(EXIT_EVALUATOR, str(exc))
        except _Unwritable as exc:
            _fail(EXIT_OUTPUT, str(exc))
    return run


def _evaluate(scheme, cfg, method):
    evaluator = _EVALUATORS.get((scheme, method))
    if evaluator is None:   # the scattering gate with --method lindblad
        raise CavityGateError(
            "the scattering gate has no Lindblad path; its numeric route is the "
            "exact amplitude integral (use --method numeric)")
    return evaluator(cfg)


@click.group()
@click.version_option(version=__version__, prog_name="cavity-gate")
def main():
    """Fidelity and gate-time analysis for cavity-mediated phase-flip gates."""


@main.command()
@click.argument("scheme", type=click.Choice(SCHEMES))
@click.argument("config_file", type=click.Path())
@click.option("--method", type=click.Choice(METHODS), default="analytic", show_default=True)
@_boundary
def evaluate(scheme, config_file, method):
    """Evaluate one gate configuration; emit a JSON record on stdout."""
    run = config_mod.load_config(config_file)
    cfg = config_mod.SCHEME_BUILDERS[scheme](run)
    run.check_all_read(scheme)
    result = _evaluate(scheme, cfg, method).single()
    record = {"schema_version": 1, "scheme": scheme, "method": result.method.value,
              "fidelity": result.fidelity, "gate_time": result.gate_time,
              "gate_time_gamma": result.gate_time * run.cavity.gamma,
              "success_probability": result.success_probability,
              "notes": list(result.notes)}
    click.echo(json.dumps(record))


def _write_run(directory, filename, text, command, hashed):
    """Write `text` to `filename` in `directory`, and beside it the run
    manifest `<stem>.manifest.json`, whose config_hash is a sha256 prefix of
    the string `hashed`. Returns both paths."""
    manifest = {"schema_version": 1, "command": command,
                "config_hash": hashlib.sha256(hashed.encode()).hexdigest()[:16],
                "tool_version": __version__,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "outputs": [filename]}
    files = {filename: text, f"{os.path.splitext(filename)[0]}.manifest.json":
             json.dumps(manifest, indent=2) + "\n"}
    paths = []
    for name, content in files.items():
        try:
            os.makedirs(directory, exist_ok=True)
            paths.append(os.path.join(directory, name))
            with open(paths[-1], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
        except OSError as exc:
            raise _Unwritable(f"cannot write {name}: {exc}") from None
    return paths


@main.command()
@click.argument("name", type=click.Choice(figures.FIGURE_NAMES))
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@_boundary
def figure(name, out_dir):
    """Emit the CSV data behind one survey figure plus a run manifest."""
    data = figures.build_figure(name)
    paths = _write_run(out_dir, f"{name}.csv", figures.format_csv(data), f"figure {name}",
                       "\n".join(data.comments))
    click.echo(json.dumps({"outputs": paths}))


@main.command("casestudy")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--t2-ms", type=float, default=None, help="Qubit T2 in milliseconds.")
@click.option("--cooperativity", type=float, default=None)
@click.option("--g-over-kappa", type=float, default=None)
@_boundary
def casestudy_cmd(out_dir, t2_ms, cooperativity, g_over_kappa):
    """Three-scheme gate comparison for the default narrow-line emitter."""
    overrides = {}
    for option, key, value, scale in (("--t2-ms", "qubit_t2", t2_ms, 1e-3),
                                      ("--cooperativity", "cooperativity", cooperativity, 1.0),
                                      ("--g-over-kappa", "g_over_kappa", g_over_kappa, 1.0)):
        if value is not None:
            if not 0 < value < math.inf:
                raise ConfigError(f"{option} must be finite and > 0, got {value!r}")
            overrides[key] = value * scale
    try:
        report = casestudy.run_case_study(**overrides)
    except ValueError as exc:   # inputs the schemes refuse: an evaluator error
        raise CavityGateError(str(exc)) from None
    text = json.dumps(report, indent=2) + "\n"
    if out_dir is not None:
        _write_run(out_dir, "casestudy.json", text, "casestudy",
                   json.dumps(report, sort_keys=True))
    click.echo(text, nl=False)


@main.command("sweep")
@click.argument("scheme", type=click.Choice(SCHEMES))
@click.argument("config_file", type=click.Path())
@click.option("--param", required=True,
              help="Scheme-section key to sweep (e.g. detuning).")
@click.option("--minimum", "vmin", type=float, required=True)
@click.option("--maximum", "vmax", type=float, required=True)
@click.option("--points", type=int, default=41, show_default=True)
@click.option("--log/--linear", "log_scale", default=False, show_default=True)
@click.option("--unit", default=None, show_default="the key's own unit",
              help="Unit suffix applied to the swept values.")
@click.option("--method", type=click.Choice(METHODS), default="numeric", show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Write CSV here instead of stdout.")
@_boundary
def sweep_cmd(scheme, config_file, param, vmin, vmax, points, log_scale, unit, method,
              out_dir):
    """Sweep one scheme parameter of a config and tabulate the fidelity."""
    run = config_mod.load_config(config_file)
    section = run.scheme_section(scheme)
    try:
        axis = Axis(param, vmin, vmax, points, "log" if log_scale else "linear")
    except ValueError as exc:
        raise ConfigError(f"sweep grid: {exc}") from None
    key = param.lower()  # the config reader lowercases keys
    suffix = "" if unit in (None, "", "none") else f" {unit}"
    lines = [f"# sweep {scheme}.{param} [{unit or 'default unit'}] method={method}",
             f"{param},fidelity,gate_time_gamma"]
    values = [float(value) for value in axis.values()]
    grid = {}   # point index -> its config, then its (fidelity, gate time), or its error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, value in enumerate(values):
            section.raw[key] = f"{value:.17g}{suffix}"
            try:
                grid[i] = config_mod.SCHEME_BUILDERS[scheme](run)
            except CavityGateError as exc:
                grid[i] = exc
        built = [i for i, cfg in grid.items() if not isinstance(cfg, CavityGateError)]
        if built:   # one batch call, whose refused rows hold their errors
            batch = _evaluate(scheme, stack_configs([grid[i] for i in built]), method)
            for row, i in enumerate(built):
                row = row if batch.shape else ()   # equal configs stack to one
                grid[i] = batch.refusal(row) or (batch.fidelity[row], batch.gate_time[row])
    errors = []
    for value, point in zip(values, grid.values()):
        if isinstance(point, CavityGateError):
            errors.append(point)
            lines.append(f"{value:.11e},nan,nan")
            click.echo(f"warning: {param}={value:g}: {point}", err=True)
        else:
            lines.append(f"{value:.11e},{point[0]:.11e},{point[1] * run.cavity.gamma:.11e}")
    if len(errors) == axis.points:
        error = ConfigError if isinstance(errors[0], ConfigError) else CavityGateError
        raise error(f"no grid point evaluated; the first failed with: {errors[0]}")
    run.check_all_read(scheme)
    out_text = "\n".join(lines) + "\n"
    if out_dir is not None:
        paths = _write_run(out_dir, "sweep.csv", out_text, f"sweep {scheme} {param}", out_text)
        click.echo(json.dumps({"outputs": paths}))
    else:
        click.echo(out_text, nl=False)


if __name__ == "__main__":
    main()
