"""Chaos engineering for the simulator: fault axes, seeded adversarial
campaigns, an invariant judge, and failure-to-regression promotion.

The loop: :mod:`~repro.chaos.axes` defines hostile-world mutations,
the :mod:`~repro.chaos.strategist` composes them into seeded,
bitwise-reproducible scenario populations, the
:mod:`~repro.chaos.campaign` runner sweeps every registered policy
over them under the :mod:`~repro.chaos.judge`'s ledger, and
:mod:`~repro.chaos.report` promotes the most interesting failures to
permanent regression scenarios under ``scenarios/regressions/``.
"""

from repro.chaos.axes import AXES, ScenarioDraft, axis_names, register_axis
from repro.chaos.campaign import (
    CampaignResult,
    ChaosRunner,
    PartialCampaignResult,
    RunRecord,
    default_policies,
    load_campaign_result,
)
from repro.chaos.judge import (
    VERDICTS,
    LedgerBattery,
    RunJudgement,
    Violation,
    check_invariants,
    judge_scenario,
    judge_simulation,
)
from repro.chaos.report import (
    format_report,
    interesting_failures,
    promote_failures,
    promotion_name,
)
from repro.chaos.spec import (
    ChaosAxisSpec,
    ChaosSpec,
    JudgeRulesSpec,
    load_chaos_file,
)
from repro.chaos.strategist import (
    case_name,
    chaos_case,
    chaos_cases,
    generate_payload,
)

__all__ = [
    "AXES",
    "ScenarioDraft",
    "axis_names",
    "register_axis",
    "CampaignResult",
    "ChaosRunner",
    "PartialCampaignResult",
    "RunRecord",
    "default_policies",
    "load_campaign_result",
    "VERDICTS",
    "LedgerBattery",
    "RunJudgement",
    "Violation",
    "check_invariants",
    "judge_scenario",
    "judge_simulation",
    "format_report",
    "interesting_failures",
    "promote_failures",
    "promotion_name",
    "ChaosAxisSpec",
    "ChaosSpec",
    "JudgeRulesSpec",
    "load_chaos_file",
    "case_name",
    "chaos_case",
    "chaos_cases",
    "generate_payload",
]
