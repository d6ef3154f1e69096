"""Signal-domain analysis: event segmentation and SER.

The paper's pipeline *starts* from raw current, and stored current is a
first-class pipeline input; this package supplies the analysis layer
that makes raw current self-sufficient -- no ground-truth side channels
required:

* :mod:`repro.signal.segmentation` -- dwell/jump-detection event
  segmentation, recovering a chunk grid for container signal written
  without a ``base_starts`` track (real FAST5/SLOW5 never has one);
* :mod:`repro.signal.rejection` -- signal-domain early rejection (SER):
  the :class:`SignalRejectionPolicy` screens a read's raw-current
  prefix by subsequence DTW against reference templates and stops junk
  *before any basecalling* -- the paper's "ideally even before they go
  through basecalling" (Sec. 2.3), one stage earlier than QSR/CMR.

Containers hold picoampere samples, the units the pore model and the
decoders use, so current is screened and decoded as stored.

The pipeline takes a :class:`SignalRejectionPolicy` as its
``ser_policy`` field; it is the one SER implementation.
"""

from repro.signal.rejection import SERDecision, SignalRejectionPolicy
from repro.signal.segmentation import (
    SegmentationConfig,
    detect_events,
    jump_scores,
    robust_noise_scale,
    segment_read,
    segment_signal,
)

__all__ = [
    "SERDecision",
    "SegmentationConfig",
    "SignalRejectionPolicy",
    "detect_events",
    "jump_scores",
    "robust_noise_scale",
    "segment_read",
    "segment_signal",
]
