"""Lightweight logging scoped to the ``repro`` logger hierarchy.

A library must not call ``logging.basicConfig``: that reconfigures the
*root* logger for the whole host process.  Instead we attach a single
handler to the ``repro`` parent logger (with ``propagate = False`` so
records do not also bubble to the root) and leave every other logger
alone.  The level comes from ``REPRO_LOG_LEVEL`` (parsed by
:mod:`repro.utils.envflags`) and is re-read on every :func:`get_logger`
call, so tests and experiment runners can override it at runtime with
``monkeypatch.setenv`` / ``os.environ``.
"""

from __future__ import annotations

import logging

from repro.utils.envflags import env_choice

_FORMAT = "%(asctime)s %(name)s %(levelname)s: %(message)s"
#: The ``logging`` level names ``REPRO_LOG_LEVEL`` accepts (any case).
LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
_HANDLER: logging.Handler | None = None


def _repro_root() -> logging.Logger:
    """Return the ``repro`` parent logger, attaching our handler once."""
    global _HANDLER
    root = logging.getLogger("repro")
    if _HANDLER is None or _HANDLER not in root.handlers:
        _HANDLER = logging.StreamHandler()
        _HANDLER.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(_HANDLER)
        root.propagate = False
    return root


def get_logger(name: str) -> logging.Logger:
    """Return a namespaced logger under the ``repro`` hierarchy.

    Log level is controlled by the ``REPRO_LOG_LEVEL`` environment
    variable (default ``WARNING`` so test runs stay quiet), re-read on
    every call; a value outside :data:`LEVELS` raises ``ValueError``.
    """
    level = env_choice("REPRO_LOG_LEVEL", LEVELS, "WARNING")
    root = _repro_root()
    root.setLevel(level)
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
