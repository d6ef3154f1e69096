"""Signal-domain early rejection (SER): reject before any basecalling.

GenPIP's ER stops a useless read after a few basecalled chunks; the
paper's stated ideal (Sec. 2.3) is to stop it "even before [reads] go
through basecalling". SER is that stage: the pipeline's
``ser_policy`` examines a signal-native read's *raw current prefix* and decides
reject/continue before the pipeline basecalls a single chunk. A
rejected read terminates with
:attr:`~repro.core.pipeline.ReadStatus.REJECTED_SIGNAL` and zero
basecalling work -- the earliest possible exit in the system.

The policy here is the squiggle-matching screen (cf.
SquiggleFilter): the read's current prefix, averaged in sample pairs to
roughly one value per base dwell, is matched by subsequence DTW
(:func:`repro.kernels.sdtw.sdtw_cost`) against the expected pore-model
signal of reference segments. It is a *screening* filter: a read is
accepted when its prefix matches any template below the cost threshold,
so genuine coverage requires templates over the regions reads may come
from (whole-genome tiling for small references, targeted segments for
adaptive-sampling use). Uncovered genomic reads are indistinguishable
from junk in signal space -- callers choose the template set with that
in mind.

Policies travel to pooled workers as fields of the
:class:`~repro.core.pipeline.GenPIPPipeline`, so they must be picklable
and deterministic per read -- the same contract as basecaller engines,
and the invariant behind the serial == pooled byte-identity of SER
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import require_finite, require_integer
from repro.kernels.sdtw import sdtw_cost, znormalise
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal_read import SignalRead


@dataclass(frozen=True)
class SERDecision:
    """Outcome of the signal-domain rejection check for one read.

    Attributes
    ----------
    reject:
        Whether the read is stopped before basecalling.
    best_cost:
        The cheapest sDTW cost over the policy's templates (``inf``
        when the read had no usable prefix).
    threshold:
        The accept threshold the cost was compared against.
    prefix_bases:
        Base-grid positions actually screened (the prefix length, in
        events/bases -- what the perf model charges the filter for).
    """

    reject: bool
    best_cost: float
    threshold: float
    prefix_bases: int


class SignalRejectionPolicy:
    """The SER policy: subsequence-DTW screening of the signal prefix.

    Holds the expected-signal ``templates`` (z-normalised once here,
    since every read brings a new query but the templates never change);
    the pipeline calls :meth:`decide` once per signal-native read.
    ``prefix_bases`` bounds the work per read: only the first that-many base-grid positions of current are
    matched, mirroring Read-Until's decide-from-the-prefix regime.
    """

    def __init__(
        self,
        templates: "list[np.ndarray]",
        threshold: float = 0.17,
        prefix_bases: int = 120,
    ):
        # A NaN threshold would reject every read after scanning every
        # template.
        require_finite("threshold", threshold, gt=0)
        require_integer("prefix_bases", prefix_bases, ge=1)
        if not templates:
            raise ValueError("at least one template is required")
        self._templates = [znormalise(template) for template in templates]
        self._threshold = threshold
        self._prefix_bases = prefix_bases

    @property
    def n_templates(self) -> int:
        return len(self._templates)

    @property
    def prefix_bases(self) -> int:
        return self._prefix_bases

    @classmethod
    def from_reference(
        cls,
        pore_model: PoreModel,
        reference_codes: np.ndarray,
        n_templates: int = 6,
        segment_bases: int = 250,
        threshold: float = 0.17,
        prefix_bases: int = 120,
        segment_starts: "list[int] | None" = None,
    ) -> "SignalRejectionPolicy":
        """Build the policy from reference segments' expected signals.

        ``segment_starts`` pins the templates to known regions (the
        targeted/adaptive-sampling use); when omitted, ``n_templates``
        segments are sampled evenly across the reference -- a sparse
        screen whose acceptances are meaningful but whose rejections
        include uncovered genomic reads (see the module docstring).
        """
        reference_codes = np.asarray(reference_codes)
        if segment_starts is None:
            require_integer("n_templates", n_templates, ge=1)
            span = max(int(reference_codes.size) - segment_bases, 0)
            segment_starts = [
                int(round(position))
                for position in np.linspace(0, span, num=n_templates)
            ]
        templates = []
        for start in segment_starts:
            levels = pore_model.expected_levels(reference_codes[start : start + segment_bases])
            if levels.size:
                templates.append(levels)
        return cls(templates, threshold=threshold, prefix_bases=prefix_bases)

    def decide(self, read: SignalRead) -> SERDecision:
        """Screen one signal-native read's current prefix.

        The prefix is event-compressed (consecutive samples averaged in
        pairs) to roughly one value per base dwell before matching,
        keeping the DTW cheap; matching stops at the first template
        below the threshold.
        """
        prefix_bases = min(self._prefix_bases, read.signal.n_bases)
        best = float("inf")
        if prefix_bases:
            samples = np.asarray(read.signal.slice_bases(0, prefix_bases), dtype=np.float64)
            if samples.size >= 2:
                trimmed = samples[: samples.size - samples.size % 2]
                samples = trimmed.reshape(-1, 2).mean(axis=1)
            for template in self._templates:
                best = min(best, sdtw_cost(samples, template, reference_normalized=True))
                if best < self._threshold:
                    break
        return SERDecision(
            reject=best >= self._threshold,
            best_cost=best,
            threshold=self._threshold,
            prefix_bases=prefix_bases,
        )
