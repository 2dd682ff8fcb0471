"""The benchmark's workloads at smoke size, in this process: their own output
checks pass on real results, and a traced job records spans.  A deletion or
rename in ``src/`` of a name that a workload or a span value reads fails here,
not only in the slower ``python -m pytest bench``."""

import importlib.util
from pathlib import Path

import pytest

from lfdrkit import compound

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, spans = _load("workloads"), _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_jobs_pass_the_workload_check(name, tmp_path, monkeypatch):
    # zscale_compound's warm-up wraps compound.clfdr_exact; restore it afterwards
    monkeypatch.setattr(compound, "clfdr_exact", compound.clfdr_exact)
    wl = workloads.make_workload(name, tmp_path, 7, smoke=True)
    wl.make_inputs()
    wl.warm_up()
    tracer = spans.Tracer()
    index = wl.input_index(0)
    jobs = []
    for traced in (False, True):
        inp = wl.prepare(index)
        if traced:
            with tracer.job(len(jobs)):
                result = wl.job(inp)
        else:
            result = wl.job(inp)
        jobs.append({"input": index, "error": None, **wl.record(inp, result)})
    assert wl.check(jobs) == [None, None]
    assert tracer.job_summaries()
