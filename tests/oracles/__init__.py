"""Differential oracles: slow reference implementations the tests compare
production code against.

* :class:`~tests.oracles.ast_interp.AstInterp` — the tree-walking AST
  interpreter, the executable specification of the bytecode and lockstep
  VMs.  :func:`ast_engine` makes every :class:`~repro.sim.Simulator`
  built inside it run its ranks on the oracle.
* :class:`~tests.oracles.reference_store.ReferenceStore` — the
  object-at-a-time summary store, the specification of the columnar
  store.  :func:`reference_store` makes every
  :class:`~repro.runtime.server.AnalysisServer` built inside it hold one.

Both helpers patch one module attribute for the duration of a ``with``
block; no code under ``src/`` imports them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.runtime import server as server_module
from repro.sim.engine import Simulator
from tests.oracles.ast_interp import AstInterp
from tests.oracles.reference_store import ReferenceStore

__all__ = [
    "AstInterp",
    "ReferenceStore",
    "ast_engine",
    "make_server",
    "reference_store",
    "tier",
]


def _build_ast_interps(sim: Simulator, hooks) -> list[AstInterp]:
    sim._lockstep_runner = None
    has_call_memo: dict[int, bool] = {}
    return [
        AstInterp(
            module=sim.module,
            rank=rank,
            n_ranks=sim.machine.n_ranks,
            machine=sim.machine,
            faults=sim.faults,
            hooks=hooks,
            sensors=sim.sensors,
            entry=sim.entry,
            externs=sim.externs,
            probe_control=sim.probe_control,
            has_call_memo=has_call_memo,
        )
        for rank in range(sim.machine.n_ranks)
    ]


def ast_engine():
    """Context manager: Simulators run their ranks on :class:`AstInterp`
    whatever ``engine`` they were built with."""
    return mock.patch.object(Simulator, "_build_interps", _build_ast_interps)


def reference_store():
    """Context manager: AnalysisServers built inside hold a
    :class:`ReferenceStore` instead of a columnar store."""
    return mock.patch.object(server_module, "ColumnarStore", ReferenceStore)


@contextmanager
def tier(name: str):
    """Run Simulators on interpreter tier ``name``; yields the ``engine=``
    value to pass.  ``"ast"`` installs the oracle under ``"bytecode"``;
    production tiers pass through."""
    with ast_engine() if name == "ast" else nullcontext():
        yield "bytecode" if name == "ast" else name


def make_server(engine: str = "columnar", **kwargs) -> server_module.AnalysisServer:
    """An AnalysisServer on the columnar store or, for ``"reference"``,
    on the oracle store."""
    with reference_store() if engine == "reference" else nullcontext():
        return server_module.AnalysisServer(**kwargs)
