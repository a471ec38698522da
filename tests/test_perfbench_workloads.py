"""The benchmark's workload configs run on the current program.

perfbench/workload.py writes the config files its workloads run, and
checks every output. A config key the program no longer accepts, or an
output it no longer writes, would only show as a failed benchmark run;
here it fails a test. Each workload runs its setup, one round and its
final checks, with every command run in this process.
"""

import importlib
import time
from pathlib import Path

import pytest

from cogflow.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def call(argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


@pytest.mark.parametrize("name", ["Generate", "VertexExperiment"])
def test_workload_round_runs_and_passes_its_checks(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = getattr(importlib.import_module("workload"), name)(0, tmp_path, call)
    workload.prepare()
    codes = [op.run()[0] for op in workload.round()]
    workload.final_checks()
    assert codes and all(code == 0 for code in codes)
    assert workload.problems == []
