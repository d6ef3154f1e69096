"""GenPIP's core contribution: the chunk-based pipeline and early rejection.

This package implements the paper's Sections 3 and 4 at the functional
level (the hardware cost models live in :mod:`repro.hardware` /
:mod:`repro.perf`):

* :mod:`repro.core.config` -- :class:`GenPIPConfig` with the paper's
  parameters (chunk size, ``N_qs``/``theta_qs``, ``N_cm``/``theta_cm``)
  and per-dataset presets (E. coli: ``N_qs=2, N_cm=5``; human:
  ``N_qs=5, N_cm=3``; Sec. 6.3).
* :mod:`repro.core.early_rejection` -- QSR (Algorithm 1) and CMR.
* :mod:`repro.core.pipeline` -- the chunk-based pipeline: basecall ->
  CQS -> seed -> chain per early-rejection stage, with ER interleaved,
  then final chaining + alignment. The conventional pipeline it is
  compared with is the same class under
  :meth:`GenPIPConfig.conventional` (every ER technique off).
* :mod:`repro.core.genpip` -- the :class:`GenPIP` system facade and the
  dataset-level report consumed by the performance model and the
  experiments.
* :mod:`repro.core.backends` -- the structural :class:`Basecaller`
  protocol the pipeline is typed against.
* :mod:`repro.core.registry` -- the built-in basecaller backends
  (``"surrogate"``, ``"viterbi"``) and pipeline presets
  (``"ecoli"``, ``"human"``) by name.

A pipeline is built one way, as the dataclass itself::

    GenPIPPipeline(index, create_basecaller("viterbi"), preset_config("ecoli"))

and amended with ``dataclasses.replace``; :class:`GenPIP` wraps one to
run whole datasets.
"""

from repro.core.backends import Basecaller
from repro.core.config import (
    ECOLI_PARAMS,
    HUMAN_PARAMS,
    VARIANTS,
    GenPIPConfig,
    variant_config,
)
from repro.core.controller import AQSCalculator, ControllerTrace
from repro.core.early_rejection import (
    CMRPolicy,
    QSRPolicy,
    qsr_sample_indices,
)
from repro.core.genpip import GenPIP, GenPIPReport
from repro.core.pipeline import (
    GenPIPPipeline,
    ReadOutcome,
    ReadStatus,
)
from repro.core.registry import (
    basecaller_names,
    create_basecaller,
    preset_config,
    preset_names,
)

__all__ = [
    "AQSCalculator",
    "ControllerTrace",
    "GenPIPConfig",
    "ECOLI_PARAMS",
    "HUMAN_PARAMS",
    "VARIANTS",
    "variant_config",
    "Basecaller",
    "QSRPolicy",
    "CMRPolicy",
    "qsr_sample_indices",
    "GenPIPPipeline",
    "ReadOutcome",
    "ReadStatus",
    "GenPIP",
    "GenPIPReport",
    "basecaller_names",
    "create_basecaller",
    "preset_config",
    "preset_names",
]
