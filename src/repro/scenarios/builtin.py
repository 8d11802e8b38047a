"""The built-in scenario catalogue.

Each scenario is one :class:`~repro.scenarios.engine.ScenarioSpec` probing
a distinct claim from the paper against a live deployment: the padding
scenarios measure how much recall each defence family buys at what
bandwidth overhead (Section VI-D), ``drift-gradual`` exercises the
retraining-free adaptation loop under accumulated page updates
(Section III-C.2), ``openworld-surge`` floods the stream with unmonitored
pages, ``churn-storm`` batters one tenant's corpus with
add/remove/replace while bystanders replay, and ``replica-flap`` kills a
read replica mid-replay and expects zero failed queries.  ``baseline`` is
the undefended control every other row is read against.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from repro.scenarios.engine import ScenarioSpec

_BUILTIN: List[ScenarioSpec] = [
    ScenarioSpec(
        name="baseline",
        description="Undefended traffic, static pages; the control row.",
        seed=11,
    ),
    ScenarioSpec(
        name="padding-adaptive",
        description="Victim deploys adaptive padding (decoy bursts in idle gaps).",
        defence={"kind": "adaptive", "fill_probability": 0.5, "burst_scale": 0.6},
        seed=13,
    ),
    ScenarioSpec(
        name="padding-fixed",
        description="Victim pads every sequence to corpus-max totals.",
        defence={"kind": "fixed-length"},
        seed=17,
    ),
    ScenarioSpec(
        name="padding-random",
        description="Victim appends random padding bursts per trace.",
        defence={"kind": "random", "max_fraction": 0.4},
        seed=19,
    ),
    ScenarioSpec(
        name="drift-gradual",
        description=(
            "Monitored pages accumulate small edits mid-replay; the adversary "
            "recrawls and replaces references without retraining."
        ),
        drift={"kind": "gradual", "steps": 6, "per_step_change": 0.12, "fraction": 0.5},
        seed=23,
    ),
    ScenarioSpec(
        name="openworld-surge",
        description="A third of the stream is unmonitored-page traffic.",
        open_world={"fraction": 0.3, "outlier_shift": 25.0},
        seed=29,
    ),
    ScenarioSpec(
        name="churn-storm",
        description="Mid-replay add/remove/replace storm against the victim tenant.",
        churn={"replace": 2, "add": 1, "remove": 1},
        seed=31,
    ),
    ScenarioSpec(
        name="replica-flap",
        description="A read replica dies mid-replay and is restored afterwards.",
        faults=("replica-flap",),
        replica_position=1,
        seed=37,
    ),
]


def builtin_scenarios() -> Dict[str, ScenarioSpec]:
    """The built-in scenarios keyed by name (insertion order preserved).

    Every call returns fresh deep copies, so a caller that edits a spec
    (``--queries``/``--seed`` overrides, a test shrinking it) never changes
    what the next caller gets.
    """
    return {spec.name: copy.deepcopy(spec) for spec in _BUILTIN}


def get_scenario(name: str) -> ScenarioSpec:
    """A copy of one built-in scenario; raises ``KeyError`` with the catalogue."""
    scenarios = builtin_scenarios()
    if name not in scenarios:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenarios)}"
        )
    return scenarios[name]
