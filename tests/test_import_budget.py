"""Import budgets: importing one module loads only what that module imports.

The start-up twin of the hot-path call budgets.  Each case imports one module
in a fresh interpreter and asserts that the named ``repro`` modules stay out
of ``sys.modules`` and that the number of ``repro.*`` modules loaded stays
under a ceiling: the count measured when the subpackage ``__init__``s became
lazy, plus 2.  An ``__init__`` that imports its whole subtree again, or a
module-level import that drags in the fuzzer, the chaos sweep or the
simulator, fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def loaded_by(module):
    code = (
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        check=True, capture_output=True, text=True, timeout=60,
    )
    return set(json.loads(done.stdout))


def assert_budget(module, absent, ceiling):
    loaded = loaded_by(module)
    assert not loaded & set(absent), sorted(loaded & set(absent))
    assert not [m for m in loaded for a in absent if m.startswith(a + ".")]
    assert len(loaded) <= ceiling, (len(loaded), sorted(loaded))


def test_conformance_registry():
    """29 ``repro`` modules measured (48 with eager ``__init__``s)."""
    assert_budget(
        "repro.conformance.registry",
        ["repro.conformance.fuzzer", "repro.faults.chaos", "repro.sim.runner"],
        ceiling=31,
    )


def test_fault_models():
    """23 measured (37 with eager ``__init__``s, the simulator among them)."""
    assert_budget(
        "repro.faults.models", ["repro.faults.chaos", "repro.sim.runner"], ceiling=25
    )


def test_transport():
    """23 measured (66 with eager ``__init__``s)."""
    assert_budget(
        "repro.net.transport",
        ["repro.net.loadgen", "repro.applications", "repro.conformance"],
        ceiling=25,
    )


def test_simulator_package():
    """22 measured (37 with eager ``__init__``s)."""
    assert_budget("repro.sim", ["repro.faults.chaos"], ceiling=24)


def test_fabric_package():
    """22 measured (35 with eager ``__init__``s)."""
    assert_budget("repro.fabric", ["repro.conformance.fuzzer"], ceiling=24)

