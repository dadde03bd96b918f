"""The benchmark's problem generators still run against `src`.

`perfbench/workloads.py` builds its specs with the library's own
constructors, so a change to `src` that breaks one of its imports or
constructors shows up here rather than only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hopfquiver.problem import load_problem

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.parametrize("tiny", [False, True])
def test_every_workload_builds_and_loads(tiny, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, build in workloads.WORKLOADS.items():
        problems = build(1, tiny=tiny)
        assert problems, name
        for problem in problems:
            load_problem(problem.spec)
