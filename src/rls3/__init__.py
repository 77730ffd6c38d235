"""Reinforcement-learning-driven synthetic sample selection for spatial
reasoning judges: a placement environment over simulated tabletop scenes, a
SAC agent that proposes object arrangements, angle-based caption generation,
lightweight generative/contrastive judges, and the closed loop that feeds
judge feedback back into the agent's reward.
"""

from .agent import RandomAgent, SacAgent, Transition
from .datasets import SampleRecord
from .judges import ContrastiveJudge, ExternalJudge, GenerativeJudge
from .orchestrator import RunConfig, desk_config, run_loop
from .prompts import build_caption_set
from .scene import PlacementEnv, SceneSuite, builtin_suite, load_suite

__version__ = "0.1.0"

__all__ = [
    "ContrastiveJudge",
    "ExternalJudge",
    "GenerativeJudge",
    "PlacementEnv",
    "RandomAgent",
    "RunConfig",
    "SacAgent",
    "SampleRecord",
    "SceneSuite",
    "Transition",
    "build_caption_set",
    "builtin_suite",
    "desk_config",
    "load_suite",
    "run_loop",
    "__version__",
]
