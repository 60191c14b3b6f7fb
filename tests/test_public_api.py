"""The public surface: every exported name resolves, and every demo runs."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import setfusion

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(setfusion.__path__)
                    if m.name != "__main__")


def test_package_exports_resolve():
    for name in setfusion.__all__:
        assert hasattr(setfusion, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"setfusion.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"setfusion.{module}.{name}"


@pytest.mark.parametrize("demo", ["01_attention_pooling", "02_gradient_structure",
                                  "03_synthetic_shapes", "04_two_stage_training", "05_timing"])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
