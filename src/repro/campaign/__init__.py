"""repro.campaign: deterministic scenario-space sweeps with a violation
oracle, coverage maps, triage, and minimal-repro shrinking.

The observability stack's flywheel (ROADMAP item 5): where every other
``repro.obs`` tool watches *one* hand-picked run, the campaign driver
enumerates or samples the joint (adversary × corrupt set × scheduler
seed × fault chain × field × n,t × runtime) space, judges every cell
with the composed auditors, and accounts for which cells have ever been
exercised.  See DESIGN.md §14 for the architecture and the determinism
contract.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job (`repro campaign run|report|replay`, including the known-bad
negative control); that covers every module of this package.
"""

from repro.campaign.adversaries import KINDS, AdversaryKind, kind_for
from repro.campaign.coverage import CoverageMap, universe
from repro.campaign.driver import CampaignResult, run_campaign, run_cell
from repro.campaign.ledger import (
    LEDGER_SCHEMA,
    CampaignLedger,
    read_ledger,
    violated_rows,
)
from repro.campaign.oracle import (
    CellArtifacts,
    CellOutcome,
    Violation,
    evaluate,
)
from repro.campaign.shrink import (
    ShrinkResult,
    check_artifact,
    load_artifact,
    shrink,
    write_artifact,
)
from repro.campaign.space import (
    Scenario,
    ScenarioSpace,
    default_space,
    known_bad_scenarios,
)
from repro.campaign.triage import (
    TriageCluster,
    triage,
    triage_table,
    triage_to_json,
)

__all__ = [
    "KINDS", "LEDGER_SCHEMA",
    "AdversaryKind", "CampaignLedger", "CampaignResult", "CellArtifacts",
    "CellOutcome", "CoverageMap", "Scenario", "ScenarioSpace",
    "ShrinkResult", "TriageCluster", "Violation",
    "check_artifact", "default_space", "evaluate", "kind_for",
    "known_bad_scenarios", "load_artifact", "read_ledger", "run_campaign",
    "run_cell", "shrink", "triage", "triage_table", "triage_to_json",
    "universe", "violated_rows", "write_artifact",
]
