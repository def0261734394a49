"""repro — a reproduction of DUO (ICDCS 2023).

DUO is a stealthy, targeted, black-box adversarial-example attack on
DNN-based video retrieval systems that sparsifies perturbations over both
frames and pixels.  This package implements the full system described in
the paper: the retrieval substrate, victim/surrogate models, the
SparseTransfer + SparseQuery attack pipeline, the baseline attacks, the
defenses, and the evaluation harness.

Subpackages
-----------
``repro.nn``          numpy autograd engine and layers (PyTorch stand-in)
``repro.video``       video container + synthetic UCF101/HMDB51 stand-ins
``repro.models``      I3D / TPN / SlowFast / ResNet / C3D backbones
``repro.losses``      ArcFace / Lifted / Angular / ranked-triplet losses
``repro.retrieval``   distributed sharded gallery + black-box service
``repro.training``    victim training and system assembly
``repro.surrogate``   model stealing and surrogate training
``repro.attacks``     DUO, Vanilla, TIMI, HEU as registry compositions
``repro.defenses``    feature squeezing, Noise2Self
``repro.metrics``     mAP, AP@m, Spa, PScore, NDCG-style list similarity
``repro.experiments`` one runner per paper table/figure
"""

import os as _os

# The reproduction targets small tensors on few-core machines, where BLAS
# thread pools cost far more than they save (20× slowdowns observed).
# Respect explicit user settings; otherwise default to single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "1.0.0"
