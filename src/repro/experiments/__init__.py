"""Experiment harness: one module per table/figure of the paper.

Each experiment module exposes a ``run(...)`` function returning a
result object with ``rows()`` (the series/rows the paper reports) and
``render()`` (a printable table including the paper's reference values
from :mod:`repro.experiments.paper_values`). ``python -m
repro.experiments.runner`` runs everything and prints one markdown
report of measured-vs-paper results (PAPER.md has the paper's
abstract, ROADMAP.md the open fidelity items).

Functional pipeline runs are cached per (dataset, chunk size, ER
variant) in :mod:`repro.experiments.context` so that the benchmark
suite can re-enter experiments cheaply. The early-rejection sweeps of
Figs. 12 and 13 (:mod:`repro.experiments.er_sensitivity`) run
``GenPIPPipeline`` at each point and count the decisions it recorded
on its outcomes; no experiment re-implements a pipeline stage.
"""

from repro.experiments import paper_values
from repro.experiments.accuracy import run_accuracy
from repro.experiments.context import ExperimentContext
from repro.experiments.figure10 import run_figure10
from repro.experiments.figure11 import run_figure11
from repro.experiments.figure12 import run_figure12
from repro.experiments.figure13 import run_figure13
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure7 import run_figure7
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.useless_reads import run_useless_reads

__all__ = [
    "run_accuracy",
    "ExperimentContext",
    "paper_values",
    "run_table1",
    "run_figure4",
    "run_figure7",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_figure13",
    "run_table2",
    "run_useless_reads",
]
