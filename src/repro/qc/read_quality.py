"""Average-quality-score filtering of basecalled reads."""

from __future__ import annotations

from dataclasses import dataclass

from repro.basecalling.types import BasecalledRead
from repro.checks import require_finite


@dataclass(frozen=True)
class QCConfig:
    """Read quality control parameters.

    ``theta_qs = 7`` is the threshold used throughout the paper: a read
    whose average per-base quality falls below it is considered
    low-quality and dropped before read mapping.
    """

    theta_qs: float = 7.0

    def __post_init__(self) -> None:
        # ``mean_quality >= nan`` is False: a NaN threshold fails every read.
        require_finite("theta_qs", self.theta_qs, ge=0)


#: Shared (it is frozen) by every call given no config.
_DEFAULT_CONFIG = QCConfig()


@dataclass(frozen=True)
class QCResult:
    """Outcome of QC over a set of reads."""

    passed: list[BasecalledRead]
    failed: list[BasecalledRead]

    @property
    def pass_fraction(self) -> float:
        total = len(self.passed) + len(self.failed)
        return len(self.passed) / total if total else 0.0


def passes_qc(read: BasecalledRead, config: QCConfig | None = None) -> bool:
    """True if the read's AQS meets the threshold."""
    config = config or _DEFAULT_CONFIG
    return read.mean_quality >= config.theta_qs


def apply_qc(reads, config: QCConfig | None = None) -> QCResult:
    """Partition reads into passed/failed by AQS."""
    config = config or _DEFAULT_CONFIG
    passed, failed = [], []
    for read in reads:
        (passed if passes_qc(read, config) else failed).append(read)
    return QCResult(passed=passed, failed=failed)
