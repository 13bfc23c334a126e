"""vSensor reproduction: fixed-workload program snippets as performance-variance sensors.

This package reimplements the full vSensor tool chain (PPoPP 2018) in pure
Python:

* :mod:`repro.frontend` — a mini C-like language (lexer / parser / AST).
* :mod:`repro.ir`, :mod:`repro.cfa`, :mod:`repro.dataflow` — a three-address
  IR with CFG, dominators, natural loops and use-def chains: the compiler
  substrate the identification algorithm runs on.
* :mod:`repro.callgraph`, :mod:`repro.sensors` — the paper's core
  contribution: automatic identification of *v-sensors* (snippets with a
  fixed quantity of work over loop iterations and across MPI ranks).
* :mod:`repro.instrument` — v-sensor selection rules and Tick/Tock source
  instrumentation.
* :mod:`repro.sim` — a deterministic discrete-event cluster simulator
  (nodes, network, OS noise, fault injection, MPI, a bytecode interpreter
  with a virtual clock and simulated PMU) standing in for Tianhe-2.
* :mod:`repro.runtime` — the online detection module: smoothing,
  normalization, history comparison, dynamic rules, analysis server.
* :mod:`repro.workloads`, :mod:`repro.baselines`, :mod:`repro.viz` —
  the evaluation harness: NPB/LULESH/AMG/RAxML analogues, mpiP/ITAC/FWQ
  baselines, and the performance-matrix visualizer.

The one-call entry point is :func:`repro.api.run_vsensor`.
"""

from repro._version import __version__

__all__ = ["__version__"]
