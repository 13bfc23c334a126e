"""Seeded generator of kLoC-sized mini-language programs for static-kloc.

The repo's workload analogues are 50-130 lines; the paper's real inputs
are thousands.  This generator builds a program of a stated size out of
kernel templates, each a function called once per iteration of ``main``'s
outer loop:

========  ==========================================  ==========  ========
template  shape                                       identified  selected
========  ==========================================  ==========  ========
sweep     fixed-trip loop over a global array         2           1
grid      two nested fixed-trip loops                 3           1
relax     ``while`` loop bounded by ``rand()``        1           0
chain     two constant-argument calls of a leaf       3           1
          whose loop runs to its parameter
reduce    fixed loop then ``MPI_Allreduce``           3           1
halo      rank/size/``MPI_Sendrecv`` ring exchange    4           1
========  ==========================================  ==========  ========

The expected counts follow from the paper's rules (§3), not from running
the compiler under test:

* every loop and every call is a snippet candidate; ``compute_units`` is
  the cost model, not a call site;
* a loop with constant bounds and a fixed body is a v-sensor, and so is a
  call to a function whose work is fixed (sweep/grid loops, the leaf
  calls, every call site in ``main`` except relax's);
* a loop whose trip count is a parameter is fixed only per call, so the
  leaf loop is not a sensor of its own — its constant-argument call sites
  are;
* extern calls with fixed cost are sensors (``rand``, the MPI calls), but
  ``rand`` is too small to probe and is dropped at selection;
* a loop bounded by ``rand()`` is not fixed, and neither is anything that
  contains or calls it: relax's call site and ``main``'s outer loop;
* selection keeps the outermost sensor only, so exactly the fixed call
  sites in ``main`` are instrumented.

Every generated program holds at least one relax kernel so the outer loop
is never a sensor itself (which would make it the one selected sensor).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: (identified, selected) v-sensors each template contributes by construction
EXPECTED = {
    "sweep": (2, 1),
    "grid": (3, 1),
    "relax": (1, 0),
    "chain": (3, 1),
    "reduce": (3, 1),
    "halo": (4, 1),
}

#: kernel mix; every program keeps these proportions, so equal-size
#: programs cost the compiler about the same whatever the seed
MIX = ("sweep", "sweep", "grid", "relax", "chain", "reduce", "halo", "sweep")


@dataclass(frozen=True, slots=True)
class GeneratedProgram:
    source: str
    #: non-blank source lines / 1000, the figure the compile rate uses
    kloc: float
    expected_identified: int
    expected_selected: int
    #: functions whose call site in ``main`` must be instrumented
    expected_calls: tuple[str, ...]


def _kernel(kind: str, k: int, rng: random.Random) -> tuple[list[str], list[str]]:
    """(global declarations, function lines) of kernel number ``k``."""
    units = rng.randint(1, 9)
    trip = rng.randint(4, 24)
    if kind == "sweep":
        return [f"global float a{k}[{trip}];"], [
            f"void sweep{k}() {{",
            "    int i;",
            f"    for (i = 0; i < {trip}; i = i + 1) {{",
            f"        compute_units({units});",
            f"        a{k}[i] = a{k}[i] * 0.5 + {rng.randint(1, 9)}.0;",
            "    }",
            "}",
        ]
    if kind == "grid":
        return [], [
            f"void grid{k}() {{",
            "    int i; int j;",
            f"    for (i = 0; i < {rng.randint(2, 6)}; i = i + 1) {{",
            f"        for (j = 0; j < {trip}; j = j + 1) {{",
            f"            compute_units({units});",
            "        }",
            "    }",
            "}",
        ]
    if kind == "relax":
        return [], [
            f"void relax{k}() {{",
            "    int trials; int budget;",
            f"    budget = {rng.randint(4, 20)} + rand() % {rng.randint(8, 40)};",
            "    trials = 0;",
            "    while (trials < budget) {",
            f"        compute_units({units});",
            "        trials = trials + 1;",
            "    }",
            "}",
        ]
    if kind == "chain":
        return [], [
            f"void leaf{k}(int n) {{",
            "    int i;",
            f"    for (i = 0; i < n; i = i + 1) compute_units({units});",
            "}",
            f"void chain{k}() {{",
            f"    leaf{k}({rng.randint(2, 12)});",
            f"    leaf{k}({rng.randint(2, 12)});",
            "}",
        ]
    if kind == "reduce":
        return [], [
            f"void reduce{k}() {{",
            "    int i;",
            f"    for (i = 0; i < {trip}; i = i + 1) compute_units({units});",
            f"    MPI_Allreduce({rng.randint(1, 8)});",
            "}",
        ]
    if kind == "halo":
        return [], [
            f"void halo{k}() {{",
            "    int rank; int size; int peer;",
            "    rank = MPI_Comm_rank();",
            "    size = MPI_Comm_size();",
            "    peer = rank + 1;",
            "    if (peer >= size) peer = 0;",
            f"    MPI_Sendrecv(peer, {rng.randint(4, 64)});",
            "}",
        ]
    raise ValueError(f"unknown kernel template {kind!r}")


def generate(kloc: float, seed: int) -> GeneratedProgram:
    """A program of about ``kloc`` non-blank kLoC whose kernels, constants
    and order are drawn from ``seed``."""
    if kloc <= 0:
        raise ValueError("kloc must be positive")
    rng = random.Random(seed)
    # ~8 function lines + 1 call line + part of a global per kernel
    n_kernels = max(len(MIX), round(kloc * 1000 / 8.8))
    kinds = [MIX[i % len(MIX)] for i in range(n_kernels)]
    rng.shuffle(kinds)
    globals_: list[str] = [f"global int NITER = {rng.randint(2, 6)};"]
    functions: list[str] = []
    calls: list[str] = []
    for k, kind in enumerate(kinds):
        decls, lines = _kernel(kind, k, rng)
        globals_.extend(decls)
        functions.extend(lines)
        calls.append(f"        {kind}{k}();")
    main = [
        "int main() {",
        "    int it;",
        "    for (it = 0; it < NITER; it = it + 1) {",
        *calls,
        "    }",
        '    printf("done");',
        "    return 0;",
        "}",
    ]
    lines = globals_ + functions + main
    identified = sum(EXPECTED[kind][0] for kind in kinds)
    selected = sum(EXPECTED[kind][1] for kind in kinds)
    return GeneratedProgram(
        source="\n".join(lines) + "\n",
        kloc=sum(1 for line in lines if line.strip()) / 1000.0,
        expected_identified=identified,
        expected_selected=selected,
        expected_calls=tuple(
            f"{kind}{k}" for k, kind in enumerate(kinds) if EXPECTED[kind][1]
        ),
    )
