"""MiniC runtime: addressable memory and the tracing interpreter.

The interpreter executes :class:`repro.ir.cfg.ProgramIR` a basic block
at a time (each block translated into Python code once, by
:mod:`repro.runtime.blockgen`), advancing a timestamp per instruction
and reporting events
(memory reads/writes, procedure entries/exits, branch outcomes, block
entries) to a :class:`repro.runtime.tracing.Tracer`. The Alchemist
profiler is one such tracer; a null tracer gives the baseline run the
paper calls "Orig.".
"""

from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.interpreter import Interpreter, run_source
from repro.runtime.memory import Memory
from repro.runtime.tracing import NullTracer, Tracer

__all__ = [
    "Interpreter",
    "run_source",
    "Memory",
    "Tracer",
    "NullTracer",
    "MiniCRuntimeError",
    "StepLimitExceeded",
]
