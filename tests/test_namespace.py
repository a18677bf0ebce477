"""The package namespace: nothing loads on import, everything on the first read.

Each check runs in a fresh interpreter, since the test session has already
imported every module.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("quivergrass."))

import quivergrass
out = {"after_import": loaded()}
quivergrass.QQ
out["after_read"] = loaded()
ns = {}
exec("from quivergrass import *", ns)
out["star"] = sorted(n for n in ns if n != "__builtins__")
out["all"] = sorted(quivergrass.__all__)
out["foreign"] = [
    n for m, names in quivergrass._EXPORTS.items() for n in names
    if ns[n] is not vars(sys.modules[f"quivergrass.{m}"])[n]
    or getattr(ns[n], "__module__", f"quivergrass.{m}") != f"quivergrass.{m}"
]
try:
    quivergrass.no_such_name
    out["unknown"] = "bound"
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def _tracer_layers() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_import_loads_nothing_and_one_read_loads_every_layer(probe):
    assert probe["after_import"] == []
    # The tracer takes `cli` only when the command line has been imported.
    layers = {f"quivergrass.{n}" for n in _tracer_layers() if n != "cli"}
    assert layers | {"quivergrass.fields"} <= set(probe["after_read"])
    assert "quivergrass.cli" not in probe["after_read"]


def test_star_binds_exactly_the_public_api(probe):
    assert probe["star"] == probe["all"]
    assert len(probe["all"]) == len(set(probe["all"]))
    assert probe["foreign"] == []
    assert probe["unknown"] == "module 'quivergrass' has no attribute 'no_such_name'"
