"""Regenerate the committed reference outputs in bench/reference/.

    python3 bench/make_reference.py

Writes figures.json.gz (the header and every cell of all nine figure
builders, floats at full precision) and cli_requests_seed0.json.gz (the
parsed response to each request of one cli_requests pass at the reference
seed). Regenerate only when a change really alters a number, and say why in
CHANGES.md.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import gzip  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def write(name, obj):
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the gzip bytes identical across regenerations
    with open(workloads.REFERENCE_DIR / name, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(obj, separators=(",", ":")).encode("utf-8"))


def main():
    from cavity_gates import figures

    table = {}
    for name in figures.FIGURE_NAMES:
        data = figures.build_figure(name)
        table[name] = {"header": list(data.header),
                       "rows": [[float(v) for v in row] for row in data.rows]}
        zeros = sum(v == 0.0 for row in table[name]["rows"] for v in row)
        print(f"{name}: {data.rows.shape[0]} rows, {zeros} cells exactly 0.0")
    write("figures.json.gz", table)

    workdir = tempfile.mkdtemp(dir=BENCH_DIR)
    try:
        workload = workloads.CliWorkload(workloads.REFERENCE_SEED, workdir)
        result = workload.run_pass()
        responses = []
        for (kind, argv), (code, stdout) in zip(workload.requests, result.outputs):
            if code != 0:
                raise SystemExit(f"request {' '.join(argv)} exited with {code}")
            responses.append(workloads.parse_response(kind, stdout))
    finally:
        shutil.rmtree(workdir)
    write(f"cli_requests_seed{workloads.REFERENCE_SEED}.json.gz", responses)
    print(f"cli_requests: {len(responses)} responses at seed {workloads.REFERENCE_SEED}")


if __name__ == "__main__":
    main()
