"""Shared utilities: deterministic seeding, lightweight logging and
``REPRO_*`` environment-flag parsing.

Time code with :func:`repro.obs.tracing.span`.
"""

from repro.utils.seeding import SeedSequence, seeded_rng, set_global_seed
from repro.utils.logging import get_logger
from repro.utils.envflags import (
    env_bool,
    env_choice,
    env_int,
    env_raw,
    env_set,
    env_str,
)

__all__ = [
    "SeedSequence",
    "seeded_rng",
    "set_global_seed",
    "get_logger",
    "env_bool",
    "env_choice",
    "env_int",
    "env_raw",
    "env_set",
    "env_str",
]
