"""Reinforcement-learning-driven synthetic sample selection for spatial
reasoning judges: a placement environment over simulated tabletop scenes, a
SAC agent that proposes object arrangements, angle-based caption generation,
lightweight generative/contrastive judges, and the closed loop that feeds
judge feedback back into the agent's reward.

The exported names and the submodules load on first access (PEP 562), so a
process that needs one module, such as `python -m rls3.external_stub`, does
not import numpy or the rest of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "RandomAgent": "agent",
    "SacAgent": "agent",
    "Transition": "agent",
    "SampleRecord": "datasets",
    "ContrastiveJudge": "judges",
    "ExternalJudge": "judges",
    "GenerativeJudge": "judges",
    "RunConfig": "orchestrator",
    "desk_config": "orchestrator",
    "run_loop": "orchestrator",
    "build_caption_set": "prompts",
    "PlacementEnv": "scene",
    "SceneSuite": "scene",
    "builtin_suite": "scene",
    "load_suite": "scene",
}

_SUBMODULES = frozenset(
    {"agent", "cli", "datasets", "external_stub", "judges", "nets", "orchestrator", "prompts",
     "scene", "wire"}
)

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it on the package
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
