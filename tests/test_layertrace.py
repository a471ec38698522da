"""The benchmark's layer tracer installs on the current program.

perfbench/layertrace.py wraps names of cogflow's modules for the length
of one traced operation. A name it patches that the program no longer
has would only show as a crash of a traced benchmark run; here it fails
a test.
"""

import importlib
from pathlib import Path

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
