"""Per-layer tracing of `cavity_gates` from outside the package.

Every public function of each layer module is replaced by a timing wrapper,
together with the numpy kernels the layers call (`leggauss`, `roots`,
`eig`). A function is rebound under every name that holds it: module
attributes and module-level dict values (such as `figures.BUILDERS` or
`config.SCHEME_BUILDERS`) in every loaded `cavity_gates` module, plus the
kernel's home module. A call that still gets past a wrapper shows up as a
call-count mismatch in the self-check, not as a silently low number.

Each wrapper records calls, total time, self time (duration minus the time
its wrapped children cover) and errors, plus a work count for a few
functions (frequency nodes, eigendecomposed matrices, objective
evaluations). Spans (name, start, end, parent, request id) are kept in
compact arrays while `record_spans` is set and written out at the end of
a run.
"""
from __future__ import annotations

import array
import functools
import gzip
import inspect
import math
import statistics
import sys
import time

LAYER_MODULES = ("linalg", "scattering", "exchange", "raman", "lindblad", "sweep",
                 "figures", "config", "cli", "casestudy")

#: click commands of `cli`, traced through their callbacks
CLI_COMMANDS = {"evaluate": "cli.evaluate", "sweep_cmd": "cli.sweep",
                "casestudy_cmd": "cli.casestudy", "figure": "cli.figure"}

#: (layer metric prefix, fields) reported by a traced run, in output order
PER_LAYER = (
    ("scattering.fidelity_numeric", ("calls", "total_s", "errors")),
    ("scattering.reduced_density_matrix", ("self_s",)),
    ("scattering.spin_amplitudes", ("calls", "nodes", "self_s")),
    ("kernel.leggauss", ("calls", "self_s")),
    ("kernel.roots", ("calls", "self_s")),
    ("linalg.propagate", ("calls", "self_s")),
    ("linalg.return_amplitude", ("calls",)),
    ("kernel.eig", ("calls", "matrices", "self_s")),
    ("exchange.fidelity_numeric_exchange", ("calls", "total_s")),
    ("exchange.build_hamiltonians", ("self_s",)),
    ("exchange.ridge_f_pi", ("calls",)),
    ("raman.fidelity_numeric_raman", ("calls", "total_s")),
    ("raman.build_raman_hamiltonians", ("self_s",)),
    ("raman.fidelity_analytic_raman", ("calls", "self_s")),
    ("sweep.golden_section_max", ("calls", "f_evals", "self_s")),
    ("sweep.cooperativity_scaling", ("total_s",)),
    *((f"figures.build_{name}", ("total_s",)) for name in
      ("fig2a", "fig2b", "fig2c", "fig4", "fig6a", "fig6b", "fig7", "fig8a", "fig8b")),
    ("lindblad.gate_fidelity_lindblad", ("calls", "total_s")),
    ("lindblad.propagate_exact", ("calls", "self_s")),
    ("lindblad.exchange_open_system", ("self_s",)),
    ("lindblad.raman_open_system", ("self_s",)),
    ("config.load_config_text", ("calls", "self_s")),
    ("config.build_scheme", ("self_s",)),
    ("cli.evaluate", ("calls", "self_s", "errors")),
    ("cli.sweep", ("calls", "self_s", "total_s")),
    ("cli.casestudy", ("total_s",)),
    ("casestudy.run_case_study", ("total_s",)),
)

COUNT_FIELDS = ("calls", "errors", "nodes", "matrices", "f_evals")
TIME_FIELDS = ("total_s", "self_s")

#: per-pass call counts the seed code makes; a mismatch means calls got past
#: a wrapper (or the program's call structure changed)
SELF_CHECK = {
    "scatter_figs": {"scattering.fidelity_numeric.calls": 787},
    "exchange_figs": {"linalg.propagate.calls": 30890},
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_matrices(stat, args, kwargs):
    shape = getattr(_arg(args, kwargs, 0, "a"), "shape", ())
    stat["matrices"] += math.prod(shape[:-2]) if len(shape) > 2 else 1
    return args, kwargs


def _count_nodes(stat, args, kwargs):
    omega = _arg(args, kwargs, 1, "omega")
    stat["nodes"] += getattr(omega, "size", 1)
    return args, kwargs


def _count_objective(stat, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(*a, **k):
        stat["f_evals"] += 1
        return f(*a, **k)

    if "f" in kwargs:
        kwargs = dict(kwargs, f=counted)
    else:
        args = (counted,) + tuple(args[1:])
    return args, kwargs


EXTRA_COUNTERS = {
    "kernel.eig": _count_matrices,
    "scattering.spin_amplitudes": _count_nodes,
    "sweep.golden_section_max": _count_objective,
}


def _new_stat():
    return dict.fromkeys(COUNT_FIELDS + TIME_FIELDS, 0)


def _failed(exc):
    """SystemExit(0) is a normal click return; everything else is an error."""
    return not (isinstance(exc, SystemExit) and exc.code in (0, None))


class Tracer:
    """Timing wrappers around the layer functions, installed in place."""

    def __init__(self):
        self.stats = {}
        self.names = []
        # one column per span field, appended when the span ends
        self.spans = {"id": array.array("q"), "name": array.array("i"),
                      "parent": array.array("q"), "request": array.array("q"),
                      "start": array.array("d"), "end": array.array("d")}
        self.record_spans = False
        self.origin = time.perf_counter()
        self.request = -1
        self._stack = []         # [span id, child seconds] per open call
        self._next_id = 0
        self._patches = []       # (container, key, original) for uninstall

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name, fn):
        stat = self.stats.setdefault(name, _new_stat())
        name_index = len(self.names)
        self.names.append(name)
        extra = EXTRA_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans
        ids, names, parents = spans["id"].append, spans["name"].append, spans["parent"].append
        requests, starts, ends = (spans["request"].append, spans["start"].append,
                                  spans["end"].append)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra is not None:
                args, kwargs = extra(stat, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if _failed(exc):
                    stat["errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.record_spans:
                    ids(span_id)
                    names(name_index)
                    parents(parent)
                    requests(self.request)
                    starts(start)
                    ends(end)

        return traced

    def _rebind(self, original, wrapper, containers):
        """Point every reference to `original` in `containers` at `wrapper`."""
        for container in containers:
            namespace = vars(container)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(container, key, wrapper)
                    self._patches.append((container, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._patches.append((value, dkey, original))

    def install(self):
        """Wrap the layer functions and kernels of the loaded package."""
        import numpy
        import numpy.linalg
        import numpy.polynomial.legendre

        package = [m for n, m in sorted(sys.modules.items())
                   if n == "cavity_gates" or n.startswith("cavity_gates.")]
        targets = {}   # id(original) -> (name, original, extra containers)

        def add(name, fn, *homes):
            targets.setdefault(id(fn), (name, fn, homes))

        add("kernel.eig", numpy.linalg.eig, numpy.linalg)
        add("kernel.roots", numpy.roots, numpy)
        add("kernel.leggauss", numpy.polynomial.legendre.leggauss,
            numpy.polynomial.legendre)
        modules = {name: sys.modules[f"cavity_gates.{name}"] for name in LAYER_MODULES}
        for builder in modules["config"].SCHEME_BUILDERS.values():
            add("config.build_scheme", builder)
        for fig, builder in modules["figures"].BUILDERS.items():
            add(f"figures.build_{fig}", builder)
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    add(f"{short}.{attr}", value)

        for name, fn, homes in targets.values():
            self._rebind(fn, self._wrapper(name, fn), package + list(homes))

        cli = modules["cli"]
        for attr, name in CLI_COMMANDS.items():
            command = getattr(cli, attr)
            original = command.callback
            command.callback = self._wrapper(name, original)
            self._patches.append((command, "callback", original))

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat.update(_new_stat())

    def snapshot(self):
        return {name: dict(stat) for name, stat in self.stats.items()}

    def write_spans(self, path):
        """Spans as gzip CSV, one row per span in the order the spans ended:
        id, name, parent id (-1 at the top), request id, and start and end in
        seconds since the tracer was made. Returns the number of spans."""
        cols = self.spans
        rows = zip(cols["id"], cols["name"], cols["parent"], cols["request"],
                   cols["start"], cols["end"])
        n = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,parent,request,start_s,end_s\n")
            for span_id, name, parent, request, start, end in rows:
                fh.write(f"{span_id},{self.names[name]},{parent},{request},"
                         f"{start - self.origin:.9f},{end - self.origin:.9f}\n")
                n += 1
        return n


def layer_metrics(snapshots):
    """Per-layer metrics from per-pass snapshots: counts from the first pass,
    times as the median over passes. Returns (metrics, counts_repeat)."""
    metrics = {}
    repeat = True
    for prefix, fields in PER_LAYER:
        stats = [snap.get(prefix, _new_stat()) for snap in snapshots]
        for field in fields:
            values = [s[field] for s in stats]
            if field in COUNT_FIELDS:
                repeat &= all(v == values[0] for v in values)
                metrics[f"{prefix}.{field}"] = (int(values[0]), "count")
            else:
                metrics[f"{prefix}.{field}"] = (statistics.median(values), "s")
    return metrics, repeat


def self_check(workload, metrics):
    """[(metric, expected, observed)] for every expected count that differs."""
    expected = SELF_CHECK.get(workload, {})
    return [(key, value, metrics[key][0]) for key, value in expected.items()
            if metrics[key][0] != value]

