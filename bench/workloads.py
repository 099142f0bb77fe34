"""The benchmark's three workloads, driven through the public API of
`cavity_gates` from outside the package.

scatter_figs   fig2a, fig2b, fig2c: the scattering frequency quadrature.
exchange_figs  fig4, fig6a, fig6b, fig7, fig8a, fig8b: scalar non-Hermitian
               propagation and the fig8 golden-section optimisation.
cli_requests   a closed loop of one client sending in-process
               `click.testing.CliRunner` requests (evaluate, sweep,
               casestudy) on INI configs drawn from the seed.

A workload is built by `setup(name, seed, workdir)`, which imports the
package, builds the inputs and makes one warm-up call to each entry point
the workload uses. `run_pass()` makes one timed pass and returns the
per-request latencies and the outputs; `check(outputs)` compares the
outputs against the committed references.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import random
import time
import warnings
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: relative tolerance of every reference comparison; reference cells that are
#: exactly 0.0 (clamped analytic fidelities) must come back exactly 0.0
REL_TOL = 1e-10

#: the seed whose cli_requests responses are committed as references
REFERENCE_SEED = 0

SCATTER_FIGS = ("fig2a", "fig2b", "fig2c")
EXCHANGE_FIGS = ("fig4", "fig6a", "fig6b", "fig7", "fig8a", "fig8b")


def close(value, ref):
    """Reference comparison for one number (NaN matches only NaN)."""
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(value, float) and math.isnan(value)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    if ref == 0.0:
        return value == 0.0
    return abs(value - ref) <= REL_TOL * abs(ref)


class PassResult:
    """One pass: its wall time, the latency of every request in order, which
    of them count towards the latency metrics, and the outputs."""

    def __init__(self, seconds, latencies_ms, counted, outputs):
        self.seconds = seconds
        self.latencies_ms = latencies_ms
        self.counted = counted
        self.outputs = outputs


# -- figure workloads -----------------------------------------------------

class FigureWorkload:
    """One pass builds each figure of the workload once; a request is one
    builder call and an operation is one figure cell."""

    check_mode = "every figure cell compared with the committed reference"

    def __init__(self, name, figure_names):
        import cavity_gates
        import cavity_gates.cli  # noqa: F401  (imported by every workload's set-up)
        from cavity_gates import figures

        self.name = name
        self.figure_names = figure_names
        self.api = cavity_gates
        self.figures = figures
        self.reference = None

    def warm_up(self):
        """One call to each public evaluator the builders use."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self._warm_up()

    def _warm_up(self):
        cg = self.api
        if self.name == "scatter_figs":
            cav = cg.CavitySystem.from_cooperativity(4000.0, 0.01, 1.0)
            pulse = cg.PhotonPulse.from_gate_time(0.05, delta_p=30.0)
            cfg = cg.ScatteringConfig(cav, pulse, gamma_eff=1e-5)
            cg.fidelity_numeric(cfg)
            cg.fidelity_analytic(cfg)
            return
        cav = cg.CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
        ex = cg.ExchangeConfig(cav, detuning=cav.kappa)
        cg.fidelity_numeric_exchange(ex)
        cg.fidelity_analytic_exchange(ex)
        ram = cg.symmetric_raman_config(cav, 0.1 * cav.kappa, 0.1 * cav.kappa, 0.05)
        cg.fidelity_numeric_raman(ram)
        cg.fidelity_analytic_raman(ram)
        cg.cooperativity_scaling([10.0])
        cg.golden_section_max(lambda x: -x * x, -1.0, 1.0, tol=1e-6)

    def run_pass(self, between=None):
        """One pass; `between(i)` runs untimed before the i-th request."""
        latencies, outputs = [], {}
        clock = time.perf_counter
        start = clock()
        for i, name in enumerate(self.figure_names):
            if between is not None:
                between(i)
            t0 = clock()
            try:
                outputs[name] = self.figures.build_figure(name)
            except Exception as exc:  # the cells of a failed builder count as failed
                outputs[name] = exc
            latencies.append((clock() - t0) * 1e3)
        return PassResult(clock() - start, latencies, [True] * len(latencies), outputs)

    def load_reference(self):
        with gzip.open(REFERENCE_DIR / "figures.json.gz", "rt", encoding="utf-8") as fh:
            table = json.load(fh)
        self.reference = {name: table[name] for name in self.figure_names}

    def check(self, outputs):
        """(attempted, failed, problems): one operation per reference cell."""
        import numpy as np

        attempted = failed = 0
        problems = []
        for name in self.figure_names:
            ref = self.reference[name]
            ref_rows = np.array(ref["rows"], dtype=float)
            attempted += ref_rows.size
            data = outputs[name]
            if isinstance(data, Exception):
                failed += ref_rows.size
                problems.append(f"{name}: {type(data).__name__}: {data}")
                continue
            rows = np.asarray(data.rows, dtype=float)
            if tuple(data.header) != tuple(ref["header"]) or rows.shape != ref_rows.shape:
                failed += ref_rows.size
                problems.append(f"{name}: header or shape {rows.shape} differs from the "
                                f"reference {ref_rows.shape}")
                continue
            zero = ref_rows == 0.0
            ok = np.isfinite(rows) & np.where(
                zero, rows == 0.0, np.abs(rows - ref_rows) <= REL_TOL * np.abs(ref_rows))
            bad = int(ok.size - np.count_nonzero(ok))
            if bad:
                failed += bad
                problems.append(f"{name}: {bad} cells differ from the reference")
        return attempted, failed, problems


# -- cli_requests ---------------------------------------------------------

#: evaluate requests cycle through every scheme x method pair
PAIRS = (("scattering", "analytic"), ("scattering", "numeric"),
         ("simple_exchange", "analytic"), ("simple_exchange", "numeric"),
         ("simple_exchange", "lindblad"), ("raman", "analytic"),
         ("raman", "numeric"), ("raman", "lindblad"))

#: evaluate requests per pass; 1200 leaves 12 samples beyond the 99th percentile
EVALUATES_PER_PASS = 1200
#: one sweep and one casestudy request per this many evaluate requests
OTHER_EVERY = 100
SWEEP_POINTS = 21


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def make_config(rng):
    """One INI config holding all three scheme sections.

    C and g/kappa span weak to strong coupling, which changes the
    scattering resonance structure; the other ranges are ones where every
    scheme and method evaluates without an error.
    """
    c = _log_uniform(rng, 1e2, 1e5)
    g_over_kappa = _log_uniform(rng, 1e-2, 10.0)
    detuning = "optimal" if rng.random() < 0.25 else \
        f"{_log_uniform(rng, 0.5, 10.0) * 0.5 * math.sqrt(c):.6g} per_kappa"
    splitting = "ideal" if rng.random() < 0.5 else f"{_log_uniform(rng, 1e2, 1e5):.6g} per_kappa"
    two_photon = "optimal" if rng.random() < 0.25 else \
        f"{_log_uniform(rng, 0.5, 10.0) * 0.5 * math.sqrt(c):.6g} per_kappa"
    return "\n".join([
        "[cavity]",
        f"cooperativity = {c:.6g}",
        f"g_over_kappa = {g_over_kappa:.6g}",
        "gamma = 596 hz",
        "",
        "[decoherence]",
        f"qubit_pure_dephasing = {_log_uniform(rng, 1e-7, 1e-3):.6g} per_gamma",
        f"optical_pure_dephasing = {_log_uniform(rng, 1e-5, 1e-2):.6g} per_gamma",
        "",
        "[scheme.scattering]",
        f"delta_p = {rng.uniform(0.0, 50.0):.6g} per_gamma",
        f"gate_time = {_log_uniform(rng, 0.1, 20.0):.6g} inv_gamma",
        f"delta_eps_a = {rng.uniform(-0.5, 0.5):.6g} per_gamma",
        f"delta_eps_b = {rng.uniform(-0.5, 0.5):.6g} per_gamma",
        "",
        "[scheme.simple_exchange]",
        f"detuning = {detuning}",
        f"splitting_eg = {splitting}",
        f"detuning_error = {rng.uniform(-0.05, 0.05):.6g} per_gamma",
        f"mode = {rng.choice(('opposite', 'equal'))}",
        "",
        "[scheme.raman]",
        f"two_photon = {two_photon}",
        f"two_photon_error = {rng.uniform(-0.05, 0.05):.6g} per_gamma",
        f"laser_detuning = {_log_uniform(rng, 0.5, 50.0):.6g} per_kappa",
        f"laser_detuning_error = {rng.uniform(-0.05, 0.05):.6g} per_gamma",
        f"rabi_over_detuning = {_log_uniform(rng, 0.02, 0.3):.6g}",
        "",
    ])


#: (scheme, param, minimum, maximum, log, unit) of the sweep requests
SWEEPS = (("simple_exchange", "detuning", 5.0, 500.0, True, "per_kappa"),
          ("raman", "laser_detuning", 0.5, 50.0, True, "per_kappa"),
          ("scattering", "delta_p", 0.0, 40.0, False, "per_gamma"))


def make_requests(seed, workdir, write_configs=True):
    """The request sequence of one pass, each request (kind, argv). Every
    evaluate and sweep request gets its own config file in `workdir`,
    written unless `write_configs` is false (the files already exist)."""
    rng = random.Random(seed)
    requests = []
    n_configs = 0

    def new_config():
        nonlocal n_configs
        path = os.path.join(workdir, f"config{n_configs:05d}.ini")
        text = make_config(rng)
        if write_configs:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        n_configs += 1
        return path

    for i in range(EVALUATES_PER_PASS):
        scheme, method = PAIRS[i % len(PAIRS)]
        requests.append(("evaluate", ["evaluate", scheme, new_config(), "--method", method]))
        if i % OTHER_EVERY == OTHER_EVERY // 2:
            scheme, param, lo, hi, log, unit = SWEEPS[(i // OTHER_EVERY) % len(SWEEPS)]
            requests.append(("sweep", [
                "sweep", scheme, new_config(), "--param", param, "--minimum", repr(lo),
                "--maximum", repr(hi), "--points", str(SWEEP_POINTS),
                "--log" if log else "--linear", "--unit", unit, "--method", "numeric"]))
        elif i % OTHER_EVERY == OTHER_EVERY - 1:
            requests.append(("casestudy", [
                "casestudy", "--cooperativity", f"{_log_uniform(rng, 1e3, 1e5):.6g}",
                "--g-over-kappa", f"{_log_uniform(rng, 0.03, 3.0):.6g}",
                "--t2-ms", f"{_log_uniform(rng, 1.0, 100.0):.6g}"]))
    return requests


def parse_response(kind, stdout):
    """The numbers of one response: a dict for evaluate and casestudy, a list
    of [value, fidelity, gate_time_gamma] rows for sweep."""
    if kind == "sweep":
        lines = stdout.strip().splitlines()
        if len(lines) != SWEEP_POINTS + 2:
            raise ValueError(f"sweep returned {len(lines)} lines")
        return [[float(x) for x in line.split(",")] for line in lines[2:]]
    return json.loads(stdout)


def _fidelities(kind, response):
    if kind == "evaluate":
        return [response["fidelity"]]
    if kind == "casestudy":
        return [response[s]["fidelity"] for s in ("scattering", "simple_exchange", "raman")]
    return [row[1] for row in response]


def _numbers_match(value, ref):
    if isinstance(ref, dict):
        return (isinstance(value, dict) and value.keys() == ref.keys()
                and all(_numbers_match(value[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(value, list) and len(value) == len(ref)
                and all(_numbers_match(v, r) for v, r in zip(value, ref)))
    if isinstance(ref, float):
        return close(value, ref)
    return value == ref


class CliWorkload:
    """One pass sends every request of the seed's sequence once, in order,
    each after the previous one completed. Latencies are those of the
    evaluate requests; an operation is one request."""

    def __init__(self, seed, workdir, write_configs=True):
        import cavity_gates  # noqa: F401
        import cavity_gates.figures  # noqa: F401  (imported by every workload's set-up)
        from cavity_gates.cli import main
        from click.testing import CliRunner

        self.name = "cli_requests"
        self.seed = seed
        self.main = main
        self.runner = CliRunner()
        self.requests = make_requests(seed, workdir, write_configs)
        self.reference = None

    def warm_up(self):
        """The first request of each scheme x method pair, the first sweep and
        the first casestudy."""
        first = {}
        for kind, argv in self.requests:
            first.setdefault((kind, argv[1], argv[-1]) if kind == "evaluate" else kind, argv)
        for argv in first.values():
            self.runner.invoke(self.main, argv)

    def run_pass(self, between=None):
        """One pass; `between(i)` runs untimed before the i-th request."""
        latencies, outputs = [], []
        clock = time.perf_counter
        invoke = self.runner.invoke
        main = self.main
        start = clock()
        for i, (kind, argv) in enumerate(self.requests):
            if between is not None:
                between(i)
            t0 = clock()
            result = invoke(main, argv)
            latencies.append((clock() - t0) * 1e3)
            outputs.append((result.exit_code, result.stdout))
        counted = [kind == "evaluate" for kind, _ in self.requests]
        return PassResult(clock() - start, latencies, counted, outputs)

    def load_reference(self):
        if self.seed != REFERENCE_SEED:
            return
        with gzip.open(REFERENCE_DIR / "cli_requests_seed0.json.gz", "rt",
                       encoding="utf-8") as fh:
            self.reference = json.load(fh)

    @property
    def check_mode(self):
        if self.reference is not None:
            return f"every response compared with the committed seed-{REFERENCE_SEED} reference"
        return (f"no committed reference for seed {self.seed}: checked exit code 0, valid "
                "output and finite fidelities in [0, 1] only")

    def check(self, outputs):
        attempted = failed = 0
        problems = []
        for i, ((kind, argv), (code, stdout)) in enumerate(zip(self.requests, outputs)):
            attempted += 1
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                response = parse_response(kind, stdout)
                for f in _fidelities(kind, response):
                    if not (math.isfinite(f) and 0.0 <= f <= 1.0):
                        raise ValueError(f"fidelity {f!r} outside [0, 1]")
                if self.reference is not None and not _numbers_match(
                        response, self.reference[i]):
                    raise ValueError("response differs from the reference")
            except (ValueError, KeyError, TypeError) as exc:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"request {i} ({' '.join(argv[:2])}): {exc}")
        return attempted, failed, problems


WORKLOADS = ("scatter_figs", "exchange_figs", "cli_requests")


def setup(name, seed, workdir, write_configs=True):
    """Import the package, build the workload's inputs and warm it up."""
    if name == "scatter_figs":
        workload = FigureWorkload(name, SCATTER_FIGS)
    elif name == "exchange_figs":
        workload = FigureWorkload(name, EXCHANGE_FIGS)
    else:
        workload = CliWorkload(seed, workdir, write_configs)
    workload.warm_up()
    return workload
