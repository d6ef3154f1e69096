"""GenPIP reproduction: in-memory acceleration of genome analysis.

A full Python reproduction of *GenPIP: In-Memory Acceleration of Genome
Analysis via Tight Integration of Basecalling and Read Mapping* (Mao et
al., MICRO 2022). See PAPER.md for the paper's abstract and ROADMAP.md
for what is built and what is open; ``python -m
repro.experiments.runner`` prints the measured-vs-paper tables and
figures.

Top-level entry points:

>>> from repro.core import GenPIP, GenPIPConfig
>>> from repro.mapping import MinimizerIndex
>>> from repro.nanopore import ECOLI_LIKE, generate_dataset
>>> dataset = generate_dataset(ECOLI_LIKE, scale=0.001, seed=0)
>>> index = MinimizerIndex.build(dataset.reference)
>>> report = GenPIP(index, GenPIPConfig()).run(dataset)

Dataset-scale runs shard reads across worker processes (identical
report for any worker count; see :mod:`repro.runtime`):

>>> report = GenPIP(index, GenPIPConfig()).run(dataset, workers=4)

Engines are pluggable behind the structural :class:`Basecaller`
protocol; the registry builds the built-in ones and the presets by name
(see :mod:`repro.core`):

>>> from repro.core import create_basecaller, preset_config
>>> system = GenPIP(index, preset_config("ecoli"), create_basecaller("viterbi"))
"""

__all__ = ["Basecaller", "__version__"]

__version__ = "1.8.0"


def __getattr__(name: str):
    """``Basecaller``, re-exported lazily (PEP 562) so that ``import
    repro`` stays a version-string-only import."""
    if name == "Basecaller":
        from repro.core import backends

        return backends.Basecaller
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
