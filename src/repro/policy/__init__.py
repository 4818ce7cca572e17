"""The memory-policy engine: heat-tracked compaction and tiered placement.

CARAT's argument (Sections 1-2) is that cheap software address
translation unlocks the kernel memory services hardware paging makes
awkward — defragmentation, hot/cold placement, migration.  The kernel in
this repo has the *mechanism* (:meth:`repro.kernel.kernel.Kernel.request_page_move`);
this package supplies the *policies* that drive it:

* :mod:`repro.policy.heat` — per-page access-heat tracking with decay,
  fed by every load and store through the interpreter's heat window;
* :mod:`repro.policy.fragmentation` — scoring of the frame allocator's
  bitmap (free-run histogram, external-fragmentation index);
* :mod:`repro.policy.compaction` — a budgeted defragmentation daemon
  that packs movable CARAT pages downward via page moves;
* :mod:`repro.policy.tiering` — a fast/slow tier balancer that promotes
  hot pages into near memory and demotes cold ones;
* :mod:`repro.policy.engine` — the :class:`PolicyEngine` facade wiring
  all of it into :meth:`Kernel.advance_clock` epochs.
"""

from repro.policy.compaction import CompactionDaemon, scatter_capsule
from repro.policy.engine import EpochBudget, PolicyEngine, PolicyStats
from repro.policy.fragmentation import FragmentationReport, assess_fragmentation
from repro.policy.heat import HeatTracker
from repro.policy.tiering import TieringBalancer

__all__ = [
    "CompactionDaemon",
    "EpochBudget",
    "FragmentationReport",
    "HeatTracker",
    "PolicyEngine",
    "PolicyStats",
    "TieringBalancer",
    "assess_fragmentation",
    "scatter_capsule",
]
