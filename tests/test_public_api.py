"""The public API surface: exports resolve and stay stable."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = ("repro", "repro.des", "repro.btree", "repro.model",
            "repro.simulator", "repro.workload", "repro.experiments")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    importlib.import_module(package_name)


@pytest.mark.parametrize("package_name",
                         ("repro", "repro.des", "repro.btree",
                          "repro.model", "repro.workload"))
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", ()):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_present():
    import repro
    assert repro.__version__


def test_entry_points_import_no_heavy_dependencies():
    """The CLI, the simulator and the report pipeline are pure Python:
    importing them must not pull in scipy, numpy or matplotlib.  A fresh
    interpreter sees only what these imports load themselves."""
    import repro

    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "import repro, repro.experiments.runner, repro.simulator.driver, "
        "repro.report\n"
        "print(' '.join(sorted(name for name in "
        "('scipy', 'numpy', 'matplotlib') if name in sys.modules)))\n")
    loaded = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout.split() == []


def test_console_script_target_exists():
    from repro.experiments.runner import main
    assert callable(main)

