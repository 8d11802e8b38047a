"""Scenario engine: adversarial and operational replays against live serving.

The paper evaluates the adaptive fingerprinter under padding defences,
content drift, open-world traffic and operational churn — each in its own
experiment.  This package replays those conditions *against a running
front-end* instead: a :class:`~repro.scenarios.engine.ScenarioSpec`
declares the condition, the :class:`~repro.scenarios.engine.ScenarioRunner`
drives it over the real wire protocol with one isolated tenant per corpus,
and the resulting :class:`~repro.scenarios.engine.ScenarioReport` carries
recall, tail latency, defence overhead, update cost and an isolation
verdict.  ``repro scenario run`` is the CLI entry point.
"""

from repro.scenarios.corpus import GENERATOR_KINDS, ScenarioCorpus, TraceEmbedder
from repro.scenarios.engine import (
    FAULT_KINDS,
    ScenarioReport,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioSpecError,
    ServedScenarioHost,
    TenantReport,
)
from repro.scenarios.builtin import builtin_scenarios, get_scenario

__all__ = [
    "GENERATOR_KINDS",
    "ScenarioCorpus",
    "TraceEmbedder",
    "FAULT_KINDS",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScenarioSpecError",
    "ServedScenarioHost",
    "TenantReport",
    "builtin_scenarios",
    "get_scenario",
]
