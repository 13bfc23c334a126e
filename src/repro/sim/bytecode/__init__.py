"""Bytecode compilation tier for the mini language (the fast interpreter).

A tree-walking interpreter (the differential oracle in
``tests/oracles/ast_interp.py``) visits every node on every execution; at
256+ simulated ranks that walk would dominate every benchmark.  This
package lowers each function **once per program** into a compact
register-based instruction stream:

* locals and globals are resolved to integer slots at compile time;
* the work-unit costs of every straight-line span are constant-folded into
  a single ``CHARGE`` instruction per basic block (exact: the folded costs
  are integer counts of half work units, so grouping cannot change the
  float result — see the accounting note in :mod:`repro.sim.interp`);
* call sites are pre-classified (user function / intrinsic family /
  extern model / indirect funcptr) so the VM never string-matches a name
  in the hot loop.

The read-only :class:`ProgramCode` is shared by all N rank VMs; per-rank
setup is allocation-only.  The VM speaks the rendezvous engine's
generator protocol (yield :class:`~repro.sim.interp.MpiRequest`, receive
the completion time) and is bit-identical to the AST oracle.
"""

from repro.sim.bytecode.compiler import FuncCode, ProgramCode, compile_module
from repro.sim.bytecode.disasm import (
    disassemble,
    disassemble_function,
    fusability_summary,
)
from repro.sim.bytecode.vm import UNDEF, BytecodeInterp

__all__ = [
    "BytecodeInterp",
    "FuncCode",
    "ProgramCode",
    "UNDEF",
    "compile_module",
    "disassemble",
    "disassemble_function",
    "fusability_summary",
]
