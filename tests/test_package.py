"""The package surface: names resolve on first use, and a process loads only
the modules its subcommand runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohdet

REPO_ROOT = Path(__file__).resolve().parent.parent
PUBLIC = [name for name in cohdet.__all__ if name != "__version__"]
LAZY = ("cohdet.tripartite", "cohdet.families", "cohdet.gellmann")

# Runs CLI commands in one fresh interpreter and prints, after each, which of
# the LAZY modules are loaded.
SESSION = """
import json, sys
from cohdet import cli
loaded = {}
for label, argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, label
    loaded[label] = sorted(m for m in LAZY if m in sys.modules)
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"cohdet.{cohdet._HOMES[name]}")
    value = getattr(cohdet, name)
    assert value is getattr(home, name)
    namespace = {}
    exec(f"from cohdet import {name}", namespace)
    assert namespace[name] is value
    if callable(value):
        assert value.__module__ == home.__name__


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from cohdet import *", namespace)
    assert set(cohdet.__all__) <= set(namespace)
    assert set(cohdet.__all__) <= set(dir(cohdet))
    assert cohdet.__all__ == sorted(PUBLIC) + ["__version__"]


def test_submodules_are_attributes(monkeypatch):
    import cohdet as package

    assert package.states.validate is importlib.import_module("cohdet.states").validate
    # Without the attribute an import sets, the lookup goes through __getattr__.
    monkeypatch.delattr(package, "linalg")
    assert package.linalg.lambda_min is importlib.import_module("cohdet.linalg").lambda_min


@pytest.mark.parametrize("name", ["nope", "_HOMES_", "__wrapped__"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'cohdet' has no attribute '{name}'"):
        getattr(cohdet, name)
    with pytest.raises(ImportError):
        exec(f"from cohdet import {name}", {})


def test_a_process_loads_only_what_its_subcommand_runs(tmp_path):
    commands = [
        ("analyze", ["analyze", "--state", "fixtures/bell_pair.json"]),
        ("random", ["random", "--kind", "generic", "--dims", "2x2", "--out", str(tmp_path / "r.json")]),
        ("ensemble", ["ensemble", "--file", "fixtures/puremix_p05.json", "--all-bipartitions"]),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"LAZY = {LAZY!r}" + SESSION, json.dumps(commands)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"analyze": [], "random": [], "ensemble": ["cohdet.tripartite"]}
