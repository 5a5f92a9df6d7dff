"""Round-based simulator for clustering protocols in multi-level
heterogeneous wireless sensor networks: prediction clustering (EEPCA) with
LEACH and SEP baselines."""

from .baselines import PolicyKind
from .engine import RunTrace, run
from .metrics import MetricsSummary, summarize
from .model import (ConfigError, ContractViolation, RadioParams, ScenarioConfig,
                    deploy, load_scenario, table1_scenario)
from .planner import IdealPlan, make_plan

__all__ = [
    "PolicyKind", "RunTrace", "run", "MetricsSummary", "summarize",
    "ConfigError", "ContractViolation", "RadioParams", "ScenarioConfig",
    "deploy", "load_scenario", "table1_scenario",
    "IdealPlan", "make_plan",
]
