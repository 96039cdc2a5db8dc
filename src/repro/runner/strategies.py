"""Named I/O strategies.

Maps the paper's scheme names onto engine factories:

- ``vanilla``        -- vanilla MPI-IO (Strategy 1, the baseline);
- ``collective``     -- ROMIO two-phase collective I/O;
- ``prefetch``       -- Strategy 2: pre-execution prefetching with
  immediate issue, computation sliced away;
- ``dualpar``        -- full DualPar under EMC control (opportunistic);
- ``dualpar-forced`` -- DualPar pinned in data-driven mode (how SV-B
  runs single-application comparisons: "programs stay in the
  data-driven mode").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mpiio.collective import CollectiveEngine
from repro.mpiio.engine import IndependentEngine
from repro.mpiio.prefetch import PreexecPrefetchEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import DualParSystem

__all__ = ["STRATEGY_DESCRIPTIONS", "STRATEGY_NAMES", "resolve_strategy"]

#: name -> one-line description, in display order.
STRATEGY_DESCRIPTIONS = {
    "vanilla": "independent synchronous MPI-IO (Strategy 1)",
    "collective": "ROMIO-style two-phase collective I/O",
    "prefetch": "speculative pre-execution prefetching (Strategy 2)",
    "dualpar": "DualPar, mode chosen opportunistically by EMC",
    "dualpar-forced": "DualPar pinned in data-driven mode",
}

STRATEGY_NAMES = tuple(STRATEGY_DESCRIPTIONS)


def resolve_strategy(
    name: str,
    dualpar_system: Optional["DualParSystem"] = None,
    **engine_kwargs,
) -> Callable:
    """Return an engine factory for ``MpiRuntime.launch``."""
    if name == "vanilla":
        return lambda rt, job: IndependentEngine(rt, job, **engine_kwargs)
    if name == "collective":
        return lambda rt, job: CollectiveEngine(rt, job, **engine_kwargs)
    if name == "prefetch":
        return lambda rt, job: PreexecPrefetchEngine(rt, job, **engine_kwargs)
    if name in ("dualpar", "dualpar-forced"):
        if dualpar_system is None:
            raise ValueError(f"strategy {name!r} needs a DualParSystem")
        overrides = dict(engine_kwargs)
        if name == "dualpar-forced":
            overrides.setdefault("force_mode", "datadriven")
        return dualpar_system.engine_factory(**overrides)
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
