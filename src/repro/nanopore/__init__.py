"""Nanopore sequencing substrate: pore model, raw signals, read simulation.

The GenPIP paper evaluates on ONT R9 datasets (E. coli and human
NA12878). Raw nanopore data is not available offline, so this subpackage
*simulates* the sequencing device:

* :mod:`repro.nanopore.pore_model` -- a synthetic k-mer -> picoampere
  current model, analogous to ONT's published pore models.
* :mod:`repro.nanopore.signal` -- raw-signal synthesis: per-base dwell
  times, Gaussian noise, and slow drift.
* :mod:`repro.nanopore.read_simulator` -- samples reads from a reference
  genome with realistic length distributions, a correlated per-base
  quality process (what Fig. 7 of the paper visualises), and read
  classes (normal / low-quality / junk-unmapped).
* :mod:`repro.nanopore.datasets` -- presets whose summary statistics
  match Table 1 of the paper.
* :mod:`repro.nanopore.signal_store` and
  :mod:`repro.nanopore.signal_read` -- raw current at rest (picoampere
  containers) and as a signal-native pipeline input.

Screening raw current before basecalling is signal-domain early
rejection, in :mod:`repro.signal.rejection`.
"""

from repro.nanopore.datasets import (
    ECOLI_LIKE,
    HUMAN_LIKE,
    Dataset,
    DatasetProfile,
    DatasetStats,
    generate_dataset,
    iter_dataset_reads,
    profile_reference,
)
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.read_simulator import (
    QualityProcessConfig,
    ReadClass,
    ReadSimulator,
    SimulatedRead,
    SimulatorConfig,
)
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal
from repro.nanopore.signal_read import SignalRead
from repro.nanopore.signal_store import (
    SignalRecord,
    iter_read_store,
    iter_signals,
    read_signals,
    read_store_count,
    signal_count,
    strip_base_starts,
    write_read_store,
    write_signals,
)

__all__ = [
    "PoreModel",
    "RawSignal",
    "SignalConfig",
    "synthesize_signal",
    "QualityProcessConfig",
    "ReadClass",
    "ReadSimulator",
    "SimulatedRead",
    "SimulatorConfig",
    "Dataset",
    "DatasetProfile",
    "DatasetStats",
    "ECOLI_LIKE",
    "HUMAN_LIKE",
    "generate_dataset",
    "iter_dataset_reads",
    "profile_reference",
    "SignalRecord",
    "iter_read_store",
    "iter_signals",
    "read_signals",
    "read_store_count",
    "signal_count",
    "strip_base_starts",
    "write_read_store",
    "write_signals",
    "SignalRead",
]
