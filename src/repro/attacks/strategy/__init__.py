"""Composable attack strategies: {sampler × basis × feedback}.

See :mod:`repro.attacks.strategy.protocols` for the component contracts,
:mod:`repro.attacks.registry` for the named compositions, and DESIGN.md
§15 for the composition table mapping each paper attack onto the three
axes.
"""

from repro.attacks.strategy.bases import LowRankBasis, PixelBasis
from repro.attacks.strategy.composed import ComposedAttack
from repro.attacks.strategy.feedback import (
    NesFeedback,
    QairFeedback,
    SimbaFeedback,
    TransferFeedback,
)
from repro.attacks.strategy.protocols import (
    AttackContext,
    BasisState,
    FeedbackModel,
    PerturbationBasis,
    SupportPlan,
    SupportSampler,
)
from repro.attacks.strategy.samplers import (
    DenseSampler,
    PriorSampler,
    RandomSampler,
    RLFrameSampler,
    SaliencySampler,
    TransferSampler,
)

__all__ = [
    "AttackContext",
    "BasisState",
    "ComposedAttack",
    "DenseSampler",
    "FeedbackModel",
    "LowRankBasis",
    "NesFeedback",
    "PerturbationBasis",
    "PixelBasis",
    "PriorSampler",
    "QairFeedback",
    "RLFrameSampler",
    "RandomSampler",
    "SaliencySampler",
    "SimbaFeedback",
    "SupportPlan",
    "SupportSampler",
    "TransferFeedback",
    "TransferSampler",
]
