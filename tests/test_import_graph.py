"""A trial's import graph holds only code a trial calls.

Importing the packages a sweep trial runs must not load networkx (the
graph checks' oracle), the lint engine, the Fig. 2 flow, the side-channel
study, the sweep aggregates, the multiprocessing machinery or the
key-leakage audit engine (the testing attack loads only its lattice):
they load on first use.  Every public name must still resolve from its package.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a sweep trial imports before its first trial runs.
TRIAL_PACKAGES = (
    "repro.obs",
    "repro.sweep",
    "repro.locking",
    "repro.analysis",
    "repro.attacks",
)

OFF_PATH = (
    "networkx",
    "repro.lint",
    "repro.locking.flow",
    "repro.analysis.sidechannel",
    "repro.sweep.aggregate",
    "multiprocessing",
    "repro.dataflow.engine",
    "repro.dataflow.verify",
    "repro.obs.export",
    "repro.lut.lutcell",
    "repro.sweep.backends",
    "socket",
    "repro.sim.seqsim",
)

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.attacks",
    "repro.check",
    "repro.circuits",
    "repro.dataflow",
    "repro.lint",
    "repro.locking",
    "repro.lut",
    "repro.netlist",
    "repro.obs",
    "repro.reporting",
    "repro.sat",
    "repro.sim",
    "repro.sweep",
    "repro.techlib",
)


def _loaded_after(script: str, modules) -> list:
    """The *modules* found in ``sys.modules`` after *script* runs in a
    fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            f"{script}\nimport json, sys\n"
            f"print(json.dumps([m for m in {tuple(modules)!r} "
            "if m in sys.modules]))\n",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_trial_packages_leave_off_path_modules_unloaded():
    script = (
        "import importlib\n"
        f"for name in {TRIAL_PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
    )
    assert _loaded_after(script, OFF_PATH) == []


def test_cli_leaves_lint_engine_and_flow_unloaded():
    """``repro-lock sweep`` builds the whole parser; the lint engine and
    the Fig. 2 flow load only in the commands that run them."""
    deferred = ("repro.lint", "repro.locking.flow")
    assert _loaded_after("import repro.cli", deferred) == []
    assert _loaded_after(
        "from repro.cli import build_parser; build_parser()", deferred
    ) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_lazy_export_is_the_submodule_object():
    from repro.locking import SecurityDrivenFlow
    from repro.locking.flow import SecurityDrivenFlow as direct
    from repro.lut import bitstream

    assert SecurityDrivenFlow is direct
    assert bitstream is importlib.import_module("repro.lut.bitstream")


def test_unknown_name_raises_attribute_error():
    import repro.locking

    with pytest.raises(AttributeError, match="no attribute 'NoSuchFlow'"):
        getattr(repro.locking, "NoSuchFlow")
