"""The evaluation framework (the paper's primary contribution).

Everything below this package is a substrate (ISA, assembler, simulators,
accelerator, decimal library, kernels).  :class:`EvaluationFramework` wires
them together into the paper's flow (Fig. 2):

1. the test-program generator builds a RISC-V binary for a co-design solution,
2. the Rocket-like emulator with the RoCC decimal accelerator measures cycles
   (split into software part and hardware part, as in Table IV), and the
   result words of that measured run are checked against the golden decimal
   library and the verification database (the paper checks on Spike because
   its Rocket is RTL; this Rocket runs Spike's tier-1 machine plus timing),
3. differential campaigns also run the SPIKE-like functional simulator and
   diff its words against Rocket's and gem5's,
4. the Gem5 AtomicSimpleCPU model and host wall-clock runs provide the
   cross-checks of Tables V and VI,
5. the reporting module renders the paper's tables from the measurements, and
6. the Pareto module relates performance to hardware overhead across
   accelerator configurations.
"""

from repro.core.solution import CoDesignSolution, standard_solutions
from repro.core.results import (
    ShardCycleReport,
    SolutionCycleReport,
    TableIVReport,
    TableVReport,
    TableVIReport,
    merge_shard_reports,
)
from repro.core.evaluation import EvaluationFramework, run_solution_shard
from repro.core.campaign import (
    CampaignCell,
    CampaignResult,
    grid_cells,
    plan_shards,
    run_campaign,
    table_iv_cells,
)
from repro.core.method1 import Method1HostModel, DummyHardware, FunctionalHardware
from repro.core.software_baseline import SoftwareBaseline
from repro.core.host_eval import HostEvaluator
from repro.core.pareto import ParetoAnalyzer, ParetoPoint
from repro.core import reporting

__all__ = [
    "CoDesignSolution",
    "standard_solutions",
    "CampaignCell",
    "CampaignResult",
    "plan_shards",
    "grid_cells",
    "run_campaign",
    "table_iv_cells",
    "run_solution_shard",
    "merge_shard_reports",
    "ShardCycleReport",
    "SolutionCycleReport",
    "TableIVReport",
    "TableVReport",
    "TableVIReport",
    "EvaluationFramework",
    "Method1HostModel",
    "DummyHardware",
    "FunctionalHardware",
    "SoftwareBaseline",
    "HostEvaluator",
    "ParetoAnalyzer",
    "ParetoPoint",
    "reporting",
]
