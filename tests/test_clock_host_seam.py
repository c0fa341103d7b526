"""Only the clock host drives a clock.

Hosting a clock is a protocol: number each process's events, carry the
payload from send to receive, route the acknowledgement ``record_receive``
returns to ``on_control``, refuse a second copy of a control, drain what
became final.  :class:`~repro.clocks.host.ClockHost` runs it; the simulator,
the live node, the fuzzer and the lower-bound adversaries keep only their
transport and their control-delivery policy.  This test keeps a hand-rolled
loop from coming back: a module of ``src/repro`` that calls another object's
record step or ``on_control``, or reads another object's
``_newly_finalized`` list, must be one of ``DRIVERS``, each with its reason.
A scheme's own steps (``self``, ``super()``) are the scheme, not a host.
Read as code, in the manner of ``tests/test_reach.py``: a docstring or
comment that names a step is not a call.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
STEPS = frozenset({"record_local", "record_send", "record_receive", "on_control"})

#: module (relative to ``src/repro``) → why it may drive a clock itself
DRIVERS = {
    "clocks/host.py": "the host",
    "clocks/replay.py": (
        "its loop calls the Event hooks, which the benchmark's offline workload "
        "rebinds on an instance to time them; it moves onto the host once the "
        "harness times the integer steps instead"
    ),
}


def _own(node):
    """Whether *node* is ``self`` or ``super()``: a scheme's own state."""
    if isinstance(node, ast.Call):
        node = node.func
        return isinstance(node, ast.Name) and node.id == "super"
    return isinstance(node, ast.Name) and node.id == "self"


def drives_a_clock(source):
    """``(line, what)`` of each call of another object's step and each read
    of another object's ``_newly_finalized`` in *source*."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in STEPS and not _own(node.func.value)):
            found.append((node.lineno, f"calls {node.func.attr}"))
        elif (isinstance(node, ast.Attribute) and node.attr == "_newly_finalized"
              and not _own(node.value)):
            found.append((node.lineno, "reads _newly_finalized"))
    return found


def test_only_the_drivers_drive_a_clock():
    offending = [
        f"{rel}:{line} {what}"
        for path in sorted(SRC.rglob("*.py"))
        if (rel := path.relative_to(SRC).as_posix()) not in DRIVERS
        for line, what in drives_a_clock(path.read_text(encoding="utf-8"))
    ]
    assert offending == [], "run the clock through repro.clocks.host.ClockHost"


def test_every_driver_still_drives_a_clock():
    idle = [rel for rel in DRIVERS if not drives_a_clock((SRC / rel).read_text())]
    assert idle == [], "these no longer drive a clock: take them off DRIVERS"


def test_prose_and_a_schemes_own_steps_are_not_a_drive():
    source = (
        '"""clock.record_send(p, k, q) and clock._newly_finalized"""\n'
        "# clock.on_control(src, dst, ack)\n"
        "host.send(p, q, mid)\n"
        "self.clock.record_local(p, k)\n"
        "newly = clock._newly_finalized\n"
        "self._newly_finalized.append((p, k))\n"
        "super().record_send(p, k, q)\n"
    )
    assert drives_a_clock(source) == [
        (4, "calls record_local"), (5, "reads _newly_finalized"),
    ]
