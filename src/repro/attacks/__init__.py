"""Adversarial-example attacks on video retrieval systems.

Every attack is a registered {sampler × basis × feedback} composition
(see :mod:`repro.attacks.strategy` and :mod:`repro.attacks.registry`),
built with :func:`build_attack` and run by one driver,
:class:`~repro.attacks.strategy.ComposedAttack`:

* ``"duo"`` — the paper's DUO: SparseTransfer (Eq. 1 / Algorithm 1) +
  SparseQuery (Eq. 2–4 / Algorithm 2), looped ``iter_numH`` times
  (``AttackConfig.rounds``); ``"duo-query"`` is the query stage alone
  over fixed :class:`TransferPriors`.
* ``"vanilla"`` — random pixel selection + SimBA-style queries [53].
* ``"timi"`` — momentum + translation-invariant dense transfer [25].
* ``"heu-nes"`` / ``"heu-sim"`` — heuristic frame/pixel selection with
  NES or SimBA optimization [16].

>>> from repro.attacks import AttackConfig, build_attack
>>> attack = build_attack(AttackConfig(strategy="duo", k=48),
...                       service=service, surrogate=surrogate)
>>> report = attack.run(original, target)   # targeted
>>> report = attack.run(original, None)     # untargeted DUO
"""

from repro.attacks.base import Attack, project_linf, project_l2
from repro.attacks.config import AttackConfig
from repro.attacks.objective import RetrievalObjective
from repro.attacks.report import AttackReport
from repro.attacks.timi import timi_transfer
from repro.attacks.heu import motion_saliency
from repro.attacks.duo import SparseTransfer, TransferPriors

# Registry/strategy exports resolve lazily so `python -m
# repro.attacks.registry` does not re-import the module it is executing.
_LAZY_EXPORTS = {
    "ATTACK_STRATEGIES": "repro.attacks.registry",
    "build_attack": "repro.attacks.registry",
    "resolve_strategy": "repro.attacks.registry",
    "ComposedAttack": "repro.attacks.strategy",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ATTACK_STRATEGIES",
    "Attack",
    "AttackConfig",
    "AttackReport",
    "ComposedAttack",
    "build_attack",
    "project_linf",
    "project_l2",
    "resolve_strategy",
    "RetrievalObjective",
    "timi_transfer",
    "motion_saliency",
    "SparseTransfer",
    "TransferPriors",
]
