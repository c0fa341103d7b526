"""The one meter behind the tests' call and instruction budgets.

Wall-clock gates flake; what a seeded run executes does not, if it is
counted the same way every time.  The rule: ``factory()`` returns a fresh
instance of the work as a callable of no arguments.  One instance runs
uncounted first, so lazy imports, memo caches and other first-run costs
fall outside the count; a second is counted with the cyclic collector off,
so no collection, nor a ``gc.callbacks`` hook another test installed, runs
inside it; the previous profiler or tracer is restored however the run ends.
A count so taken is the same alone, after other tests and twice in one
process.
"""

import gc
import sys


def calls(factory, c_calls=False):
    """``(calls, result)``: ``call`` profile events (coroutine resumptions
    included) and, with *c_calls*, ``c_call`` events (builtins) too."""
    kinds = ("call", "c_call") if c_calls else ("call",)
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event in kinds:
            count += 1

    factory()()
    run = factory()
    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return count, result


def instructions(factory):
    """``(instructions, result)``: bytecode instructions executed in the
    frames the run opens, by opcode tracing, or on 3.12+ by the
    ``sys.monitoring`` events that is built on (on 3.12.1 a frame whose
    tracer turns opcode events on at its ``call`` event never gets one)."""
    count = 0
    factory()()
    run = factory()
    gc.disable()
    try:
        if hasattr(sys, "monitoring"):
            monitoring, here = sys.monitoring, sys._getframe().f_code
            tool = next(t for t in range(6) if monitoring.get_tool(t) is None)

            def on_instruction(code, _offset):
                nonlocal count
                count += code is not here

            monitoring.use_tool_id(tool, "instruction budget")
            monitoring.register_callback(tool, monitoring.events.INSTRUCTION, on_instruction)
            monitoring.set_events(tool, monitoring.events.INSTRUCTION)
            try:
                result = run()
            finally:
                monitoring.set_events(tool, 0)
                monitoring.free_tool_id(tool)
            return count, result

        def trace(frame, event, _arg):
            nonlocal count
            frame.f_trace_opcodes = True
            count += event == "opcode"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            result = run()
        finally:
            sys.settrace(previous)
        return count, result
    finally:
        gc.enable()
