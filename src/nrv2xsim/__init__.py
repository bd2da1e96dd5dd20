"""System-level Monte Carlo simulator for NR V2X sidelink broadcast on a highway."""

__version__ = "0.1.0"

from .config import (
    CampaignSpec,
    ConfigError,
    SimConfig,
    expand_campaign,
    parse_campaign,
    parse_config,
)
from .engine import execute_run

__all__ = [
    "CampaignSpec",
    "ConfigError",
    "SimConfig",
    "execute_run",
    "expand_campaign",
    "parse_campaign",
    "parse_config",
]
