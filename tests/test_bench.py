"""The benchmark's workloads (`bench/workloads.py`) run on the package as
it stands and match their committed references, so that a rename which
breaks the benchmark, or a change that moves a reference value, fails a
test too. `bench/` is only imported here, never changed."""
import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scatter_figs", "exchange_figs"])
def test_figure_workload_matches_its_reference(name, tmp_path):
    """`setup` imports the package and warms up every evaluator the workload
    uses; one pass then matches every reference cell."""
    workload = load_workloads().setup(name, 0, str(tmp_path))
    workload.load_reference()
    attempted, failed, problems = workload.check(workload.run_pass().outputs)
    assert attempted > 0 and failed == 0, problems


def test_cli_workload_matches_its_seed0_reference(tmp_path):
    """`cli_requests` at the seed whose responses are committed: one pass
    through every evaluate, sweep and casestudy request matches every
    reference response (the benchmark was the only guard of those)."""
    workload = load_workloads().setup("cli_requests", 0, str(tmp_path))
    workload.load_reference()
    assert workload.reference is not None
    attempted, failed, problems = workload.check(workload.run_pass().outputs)
    assert attempted == len(workload.requests) and failed == 0, problems
