"""The benchmark's layer tracer installs on the current program.

perfbench/layertrace.py wraps names of cogflow's modules for the length
of one traced operation. A name it patches that the program no longer
has would only show as a crash of a traced benchmark run; here it fails
a test, and so does a wrapper that breaks a whole traced experiment.
"""

import importlib
import json
from pathlib import Path

from cogflow.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    installed = layertrace.install(layertrace.Tracer())
    patched = list(installed._saved)
    installed.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"


def test_traced_experiment_runs_whole(monkeypatch, tmp_path):
    # a wrapper that broke mid-run would otherwise show only as a crashed
    # traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "semantics": {"effect_magnitudes": 1.5, "position_bias": 0.5, "default_variance": 0.6},
        "flow": {"sample_count": 64, "solver": "rk4", "steps": 10},
        "experiment": {"kind": "vertex_recovery", "output_dir": str(tmp_path / "out")},
        "polarize": {"cache_path": str(tmp_path / "cache.ndjson")},
    }))
    tracer = layertrace.Tracer()
    installed = layertrace.install(tracer)
    try:
        code = main(["experiment", "--config", str(config), "--quiet"])
    finally:
        installed.restore()
    assert code == 0
    # one polarize pass for the vertices, and one per leg's generate
    assert tracer.summary()["polarize.build"]["under_harness"] == 9
