"""Benchmark of `cavity_gates`: three workloads, end-to-end metrics with
tracing off and per-layer metrics from a traced run.

    python3 bench/run.py --workload scatter_figs --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, and the
spans of the first traced pass are written to `bench/out/`. The first line
holds the details: unscaled times, sample counts, versions and what the
correctness check covered. README.md in this directory defines every metric.
"""
import os

# one BLAS thread, set before anything imports numpy; the fresh set-up probes
# inherit it through the environment
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh processes whose set-up time gives setup_s
SETUP_PROBES = 7
#: a run makes at least this many untraced passes, so every time is a median
MIN_PASSES = 3
#: share of a traced run's time spent on untraced passes (the overhead baseline)
UNTRACED_SHARE = 0.35
#: tail percentiles tried from the highest down; the tail is the highest one
#: with at least TAIL_BEYOND samples beyond it in a pass
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10
#: calibration kernel time that defines the reference machine speed
CALIBRATION_REF_S = 0.015
#: per workload, (requests between calibration samples, kernel runs per
#: sample): samples land 0.1-4 s apart, and the sparse ones average longer
CALIBRATION = {"scatter_figs": (1, 3), "exchange_figs": (1, 3), "cli_requests": (50, 1)}


class SetupError(RuntimeError):
    """The program under test could not be imported or set up."""


class Calibration:
    """Machine speed, from a fixed kernel that never touches the program.

    On a shared machine the speed of a single thread drifts by tens of
    percent within seconds. The kernel (Python arithmetic and small complex
    eigendecompositions, the kind of work the program spends its time in)
    is timed between requests, and every request time is scaled by
    CALIBRATION_REF_S over the mean of the two samples that bracket it. No
    change to the program can move the kernel, so the scaled times compare
    commits; the unscaled ones are reported alongside.
    """

    def __init__(self, every, runs):
        import numpy as np

        rng = np.random.default_rng(12345)
        # bound now, before a traced run wraps numpy.linalg.eig, so the
        # kernel never shows up in the per-layer counts
        self.eig, self.solve = np.linalg.eig, np.linalg.solve
        self.matrices = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                         for _ in range(16)]
        self.every = every
        self.runs = runs
        self.samples = []   # every calibration sample of the run
        self._marks = []    # (request index, kernel time) in the current pass

    def measure(self, runs=None):
        """One sample: the mean time of `runs` kernel runs (default: the
        workload's)."""
        runs = runs or self.runs
        eig, solve = self.eig, self.solve
        start = time.perf_counter()
        for _ in range(12 * runs):
            for m in self.matrices:
                _, vecs = eig(m)
                solve(vecs, m[0])
            total = 0
            for i in range(6000):
                total += i * i % 7
        seconds = (time.perf_counter() - start) / runs
        self.samples.append(seconds)
        return seconds

    def between(self, request):
        if request % self.every == 0:
            self._marks.append((request, self.measure()))

    def request_scales(self, n_requests):
        """Close a pass of n requests: one time scale per request."""
        marks = self._marks + [(n_requests, self.measure())]
        self._marks = []
        scales = []
        for (i0, s0), (i1, s1) in zip(marks, marks[1:]):
            scales.extend([2.0 * CALIBRATION_REF_S / (s0 + s1)] * (i1 - i0))
        return scales

    def scaled(self, run):
        """(unscaled, scaled) seconds of `run()`, which returns seconds."""
        before = self.measure(runs=3)
        seconds = run()
        return seconds, seconds * 2.0 * CALIBRATION_REF_S / (before + self.measure(runs=3))

    @property
    def scale(self):
        """Run-wide scale: reference over the median of all samples."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def import_package():
    """Put the checkout's src/ first on the path (the package is checked to
    come from there after set-up, never from an installed copy)."""
    if not (SRC / "cavity_gates" / "__init__.py").is_file():
        raise SetupError(f"no cavity_gates package under {SRC}")
    sys.path.insert(0, str(SRC))


def timed_setup(name, seed, workdir, write_configs=True):
    """(workload, seconds) for import, inputs and warm-up in this process."""
    start = time.perf_counter()
    workload = workloads.setup(name, seed, workdir, write_configs)
    seconds = time.perf_counter() - start
    import cavity_gates

    if Path(cavity_gates.__file__).resolve().parent != (SRC / "cavity_gates").resolve():
        raise SetupError(f"cavity_gates imported from {cavity_gates.__file__}, not {SRC}")
    return workload, seconds


def probe_setup(name, seed, workdir):
    """Set-up seconds of one fresh process, which pays every import and
    first-call cost. It reuses the config files this process wrote: writing
    them is file-system time, not the program's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--probe-setup", workdir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(ordered, p):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n):
    """Highest ladder percentile with TAIL_BEYOND samples beyond it in n
    samples; 100 (the maximum) when no percentile has that many."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return 100.0


class Pass:
    """Scaled and unscaled times of one checked pass. A pass's time is the
    sum of its request times, which leaves out the calibration samples."""

    def __init__(self, result, scales):
        self.raw_s = sum(result.latencies_ms) / 1e3
        scaled_ms = [ms * s for ms, s in zip(result.latencies_ms, scales)]
        self.scaled_s = sum(scaled_ms) / 1e3
        self.latencies_ms = [ms for ms, c in zip(scaled_ms, result.counted) if c]
        self.raw_latencies_ms = [ms for ms, c in zip(result.latencies_ms, result.counted) if c]


def run_passes(workload, seconds, calibration, min_passes, between=None, after=None):
    """Timed passes until `seconds` is spent (never starting one that would
    overrun it by a whole pass), each checked after it ends. Returns the
    passes and [attempted, failed, problems]."""
    passes, checks = [], [0, 0, []]
    start = time.perf_counter()

    def hook(request):
        calibration.between(request)
        if between is not None:
            between(request)

    while True:
        result = workload.run_pass(hook)
        passes.append(Pass(result, calibration.request_scales(len(result.latencies_ms))))
        if after is not None:
            after(len(passes))
        attempted, failed, problems = workload.check(result.outputs)
        checks[0] += attempted
        checks[1] += failed
        checks[2].extend(problems[:10 - len(checks[2])])
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + result.seconds > seconds:
            return passes, checks


def latency_summary(passes, attr):
    """Median over passes of each pass's p50 and tail latency (nearest rank)."""
    n = len(getattr(passes[0], attr))
    p_tail = tail_percentile(n)
    p50s, tails = [], []
    for p in passes:
        ordered = sorted(getattr(p, attr))
        p50s.append(percentile(ordered, 50.0))
        tails.append(percentile(ordered, p_tail))
    info = {"samples_per_pass": n, "tail_percentile": p_tail,
            "samples_beyond_tail_per_pass": n - math.ceil(p_tail / 100.0 * n)}
    return statistics.median(p50s), statistics.median(tails), info


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def untraced_run(workload, args, calibration, workdir):
    setup = [calibration.scaled(lambda: probe_setup(args.workload, args.seed, workdir))
             for _ in range(SETUP_PROBES)]
    workload.load_reference()
    rss_kb = []

    def sample_rss(n_passes):
        # click's CliRunner streams stay reachable from click's text-stream
        # cache, so RSS creeps up with every request; sampling after a fixed
        # number of passes keeps the figure independent of machine speed
        if n_passes == MIN_PASSES:
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    passes, checks = run_passes(workload, args.seconds, calibration, MIN_PASSES,
                                after=sample_rss)
    p50, tail, latency = latency_summary(passes, "latencies_ms")
    raw_p50, raw_tail, _ = latency_summary(passes, "raw_latencies_ms")
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (statistics.median(p.scaled_s for p in passes), "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss_kb[0] / 1024.0, "MB"),
    }
    details = {
        "unscaled": {"setup_s": statistics.median(r for r, _ in setup),
                     "wall_s": statistics.median(p.raw_s for p in passes),
                     "latency_p50_ms": raw_p50, "latency_tail_ms": raw_tail},
        "passes": len(passes), "latency": latency,
        "pass_seconds": [p.raw_s for p in passes],
        "pass_scaled_seconds": [p.scaled_s for p in passes],
        "setup_samples_s": [r for r, _ in setup],
    }
    return metrics, checks, details


def traced_run(workload, args, calibration):
    workload.load_reference()
    untraced_seconds = UNTRACED_SHARE * args.seconds
    base, checks = run_passes(workload, untraced_seconds, calibration, 1)
    tracer = tracing.Tracer()
    tracer.install()
    snapshots = []

    def tag(request):
        tracer.request = request

    def end_pass(_):
        snapshots.append(tracer.snapshot())
        tracer.reset()
        tracer.record_spans = False

    tracer.record_spans = True
    try:
        traced, traced_checks = run_passes(workload, args.seconds - untraced_seconds,
                                           calibration, 2, between=tag, after=end_pass)
    finally:
        tracer.uninstall()
    checks = [checks[0] + traced_checks[0], checks[1] + traced_checks[1],
              (checks[2] + traced_checks[2])[:10]]

    metrics, counts_repeat = tracing.layer_metrics(snapshots)
    mismatches = tracing.self_check(args.workload, metrics)
    # per-layer times are sums over a pass, so they take the run-wide scale
    scale = calibration.scale
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in metrics.items()}
    untraced_wall = statistics.median(p.scaled_s for p in base)
    traced_wall = statistics.median(p.scaled_s for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv.gz"
    n_spans = tracer.write_spans(spans_path)
    details = {
        "unscaled": {"untraced_wall_s": statistics.median(p.raw_s for p in base),
                     "traced_wall_s": statistics.median(p.raw_s for p in traced)},
        "passes": len(base), "traced_passes": len(traced),
        "counts_repeat_across_passes": counts_repeat,
        "self_check": "ok" if not mismatches else [
            {"metric": m, "expected": e, "observed": o} for m, e, o in mismatches],
        "spans_file": str(spans_path.relative_to(ROOT)), "spans": n_spans,
    }
    return metrics, checks, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_package()
        if args.probe_setup:
            _, seconds = timed_setup(args.workload, args.seed, args.probe_setup,
                                     write_configs=False)
            print(json.dumps({"setup_s": seconds}))
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
        try:
            workload, _ = timed_setup(args.workload, args.seed, workdir)
            calibration = Calibration(*CALIBRATION[args.workload])
            if args.trace:
                metrics, checks, details = traced_run(workload, args, calibration)
            else:
                metrics, checks, details = untraced_run(workload, args, calibration, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot set up the program under test: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems = checks
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "time_scale": calibration.scale, "calibration_samples": len(calibration.samples),
        "environment": environment(), "check": workload.check_mode,
        "failed_frac": failed / attempted, "problems": problems,
    })
    print(json.dumps(details))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and details.get("counts_repeat_across_passes", True),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
