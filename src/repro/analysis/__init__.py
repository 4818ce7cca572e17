"""Code analyses used by the CARAT compiler pipeline.

* :mod:`repro.analysis.cfg` — reverse post-order, reachability
* :mod:`repro.analysis.dominators` — dominator tree and frontiers
* :mod:`repro.analysis.loops` — natural loops and preheader creation
* :mod:`repro.analysis.dataflow` — forward GEN/KILL framework; available
  values (AC/DC's core)
* :mod:`repro.analysis.alias` — BasicAA, TBAA, Steensgaard, chained AA
* :mod:`repro.analysis.points_to` — the Steensgaard solver
* :mod:`repro.analysis.scev` — scalar evolution and trip counts
"""

from repro.analysis.alias import (
    AliasAnalysis,
    AliasResult,
    BasicAliasAnalysis,
    ChainedAliasAnalysis,
    PointsToAliasAnalysis,
    TypeBasedAliasAnalysis,
    underlying_object,
)
from repro.analysis.cfg import (
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_post_order,
)
from repro.analysis.dataflow import AvailableValues, DataflowProblem
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import Loop, LoopInfo
from repro.analysis.points_to import SteensgaardSolver
from repro.analysis.scev import (
    SCEV,
    SCEVAddRec,
    SCEVConstant,
    SCEVExpander,
    SCEVUnknown,
    ScalarEvolution,
    TripCount,
)

__all__ = [
    "AliasAnalysis",
    "AliasResult",
    "BasicAliasAnalysis",
    "ChainedAliasAnalysis",
    "PointsToAliasAnalysis",
    "TypeBasedAliasAnalysis",
    "underlying_object",
    "reachable_blocks",
    "remove_unreachable_blocks",
    "reverse_post_order",
    "AvailableValues",
    "DataflowProblem",
    "DominatorTree",
    "Loop",
    "LoopInfo",
    "SteensgaardSolver",
    "SCEV",
    "SCEVAddRec",
    "SCEVConstant",
    "SCEVExpander",
    "SCEVUnknown",
    "ScalarEvolution",
    "TripCount",
]
