"""The DUO attack's building blocks: dual search over frames and pixels.

:class:`SparseTransfer` is the surrogate-side sparse perturbation
synthesis (Eq. 1 / Algorithm 1) that produces :class:`TransferPriors`.
The full attack — SparseTransfer and the SparseQuery rectification
(Eq. 2–4 / Algorithm 2) looped ``iter_numH`` times — is the ``"duo"``
registry composition; ``"duo-query"`` runs the query stage over fixed
priors (see :mod:`repro.attacks.registry`).
"""

from repro.attacks.duo.masks import lp_box_admm_select, select_top_frames
from repro.attacks.duo.priors import TransferPriors
from repro.attacks.duo.sparse_transfer import SparseTransfer

__all__ = [
    "lp_box_admm_select",
    "select_top_frames",
    "TransferPriors",
    "SparseTransfer",
]
