"""One parser for every ``REPRO_*`` environment flag.

The flags carry only paths and diagnostics; everything that shapes a
result is a config field or constructor argument.  A typo'd flag that
silently falls back to the default is worse than a crash — the run
*looks* configured but is not — so the contract is uniform across flags:

* **unset or empty/whitespace** → the documented default (an empty
  string is indistinguishable from unset, matching shell ``VAR= cmd``
  usage);
* **a valid value** → that value, normalised (paths stripped, booleans
  mapped from ``1/true/yes/on`` / ``0/false/no/off``);
* **anything else** → :class:`ValueError` naming the flag, the raw
  value, and what would have been accepted.  Never a silent default.
"""

from __future__ import annotations

import os

#: Accepted spellings for boolean flags (case-insensitive).
TRUE_VALUES = ("1", "true", "yes", "on")
FALSE_VALUES = ("0", "false", "no", "off")


def env_raw(name: str) -> str | None:
    """The stripped value of ``name``, or ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw if raw else None


def env_bool(name: str, default: bool = False) -> bool:
    """Boolean flag; raises on anything outside the accepted spellings."""
    raw = env_raw(name)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in TRUE_VALUES:
        return True
    if lowered in FALSE_VALUES:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; use one of "
        f"{TRUE_VALUES + FALSE_VALUES}")


def env_str(name: str, default: str = "") -> str:
    """Free-form string flag (paths, directories); stripped."""
    raw = env_raw(name)
    return default if raw is None else raw


def env_choice(name: str, choices: tuple[str, ...], default: str) -> str:
    """One of ``choices``, matched case-insensitively, spelled as listed."""
    raw = env_raw(name)
    if raw is None:
        return default
    for choice in choices:
        if raw.lower() == choice.lower():
            return choice
    raise ValueError(f"{name}={raw!r} is not one of {choices}")


__all__ = [
    "TRUE_VALUES",
    "FALSE_VALUES",
    "env_raw",
    "env_bool",
    "env_choice",
    "env_str",
]
