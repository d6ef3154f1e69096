"""Phred quality-score math.

Basecallers attach a quality score to every base; read quality control
(RQC) filters reads whose *average* score falls below a threshold
(GenPIP, like LongQC/pycoQC, uses ``theta_qs = 7``).

Two averaging conventions exist in the wild:

* the **arithmetic mean** of the per-base Phred scores -- this is what the
  GenPIP paper's Equations (1)-(3) compute and what this reproduction uses
  throughout the pipeline (:func:`mean_quality`);
* the **error-domain mean** (convert to error probabilities, average,
  convert back) -- offered as :func:`effective_quality` because real QC
  tools report it and it is useful for calibration tests.
"""

from __future__ import annotations

import numpy as np

#: Highest quality score representable in printable ASCII FASTQ.
MAX_PHRED = 93


def phred_to_error_prob(quality):
    """Convert Phred score(s) to error probability: ``p = 10^(-q/10)``."""
    return np.power(10.0, -np.asarray(quality, dtype=np.float64) / 10.0)


def error_prob_to_phred(prob):
    """Convert error probability(ies) to Phred score: ``q = -10 log10 p``.

    Probabilities are clipped to ``[1e-9.3, 1]`` so that the result stays in
    the printable FASTQ range ``[0, 93]``.
    """
    prob = np.clip(np.asarray(prob, dtype=np.float64), 10.0 ** (-MAX_PHRED / 10.0), 1.0)
    return -10.0 * np.log10(prob)


def mean_quality(qualities) -> float:
    """Arithmetic mean of per-base quality scores (paper Eq. 1).

    This is the average quality score (AQS) that GenPIP's read quality
    control and QSR early rejection compare against ``theta_qs``.
    """
    q = np.asarray(qualities, dtype=np.float64)
    if q.size == 0:
        raise ValueError("cannot average an empty quality array")
    return float(q.mean())


def effective_quality(qualities) -> float:
    """Error-domain mean quality: ``-10 log10(mean(10^(-q/10)))``.

    Dominated by the worst bases; always <= :func:`mean_quality` by
    Jensen's inequality. Not used by the GenPIP pipeline itself, but kept
    for calibration and comparison with real QC tools.
    """
    q = np.asarray(qualities, dtype=np.float64)
    if q.size == 0:
        raise ValueError("cannot average an empty quality array")
    return float(error_prob_to_phred(phred_to_error_prob(q).mean()))
