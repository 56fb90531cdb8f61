"""Import hygiene: a light ``repro-ser`` process loads a light module set.

Each check runs in a fresh interpreter, since the test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _modules_after(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _loaded(modules, prefix):
    return sorted(
        m for m in modules if m == prefix or m.startswith(prefix + ".")
    )


def test_version_does_not_import_scipy():
    # what ``python -m repro --version`` runs
    modules = _modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--version']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert "repro.cli" in modules
    assert _loaded(modules, "scipy") == []


def test_client_import_is_light():
    modules = _modules_after("import repro.service.client")
    for heavy in ("scipy", "repro.sram", "repro.circuit", "repro.core.flow"):
        assert _loaded(modules, heavy) == [], heavy


def test_lazy_package_exports_resolve():
    modules = _modules_after(
        "import repro, repro.service\n"
        "for name in repro.__all__:\n"
        "    getattr(repro, name)\n"
        "for name in repro.service.__all__:\n"
        "    getattr(repro.service, name)\n"
        "from repro import SerFlow, PofTable\n"
        "from repro.service import ServiceError, ServiceClient\n"
        "from repro.service.engine import ServiceError as EngineError\n"
        "assert EngineError is ServiceError"
    )
    assert "repro.core.flow" in modules
