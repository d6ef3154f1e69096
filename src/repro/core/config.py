"""GenPIP configuration: chunking and early-rejection parameters.

``theta_qs``, ``theta_cm``, ``n_qs`` and ``n_cm`` steer early rejection
(Secs. 3.2 and 6.3) and are what the Figs. 12/13 sweeps vary. Every field
is checked through :mod:`repro.checks` when a config is made, so a sweep
point runs the values it names or fails at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.checks import require_finite, require_integer


@dataclass(frozen=True)
class GenPIPConfig:
    """Parameters of the GenPIP pipeline.

    Attributes
    ----------
    chunk_size:
        Bases per basecalling chunk. The paper evaluates 300 (the
        basecaller default), 400, and 500.
    enable_qsr, enable_cmr:
        Switch the two early-rejection sub-techniques (the GenPIP-CP /
        GenPIP-CP-QSR / GenPIP system variants of Sec. 5).
    enable_ser:
        Switch signal-domain early rejection (SER), the pre-basecalling
        reject stage over raw current. SER additionally needs the
        pipeline's ``ser_policy`` (a
        :class:`~repro.signal.rejection.SignalRejectionPolicy`, built
        from the reference: there is no reference-free default), so
        without one this flag is inert; with one it gates the stage
        exactly like ``enable_qsr``/``enable_cmr`` gate theirs.
    n_qs:
        Number of evenly-spaced chunks sampled by QSR (Sec. 6.3.1:
        2 for E. coli, 5 for human).
    theta_qs:
        Quality-score threshold shared by QSR and read quality control.
    n_cm:
        Number of *consecutive* chunks merged by CMR before its chaining
        check (Sec. 6.3.2: 5 for E. coli, 3 for human).
    theta_cm:
        Chaining-score threshold, normalised per merged-chunk base. The
        paper uses an absolute score against its own chaining kernel;
        per-base normalisation makes one default meaningful across chunk
        sizes. The default sits well below the per-base score of any
        mappable read on the synthetic datasets (junk reads chain at
        ~0.00-0.02/base, mappable reads at >0.07/base), which gives the
        near-zero false-negative ratio the paper selects for (Fig. 13).
    min_chunks_for_er:
        Reads with fewer chunks than this skip early rejection (very
        short reads are cheap anyway and sampling degenerates).
    """

    chunk_size: int = 300
    enable_qsr: bool = True
    enable_cmr: bool = True
    enable_ser: bool = True
    n_qs: int = 2
    theta_qs: float = 7.0
    n_cm: int = 5
    theta_cm: float = 0.04
    min_chunks_for_er: int = 2

    def __post_init__(self) -> None:
        require_integer("chunk_size", self.chunk_size, ge=50)
        for name in ("n_qs", "n_cm", "min_chunks_for_er"):
            require_integer(name, getattr(self, name), ge=1)
        # ``x < nan`` is False: a NaN threshold would never reject.
        require_finite("theta_qs", self.theta_qs, ge=0)
        require_finite("theta_cm", self.theta_cm, ge=0)

    def with_chunk_size(self, chunk_size: int) -> "GenPIPConfig":
        """This config at a different chunk size (Fig. 10/11 sweeps)."""
        return replace(self, chunk_size=chunk_size)

    def conventional(self) -> "GenPIPConfig":
        """This config with every ER technique disabled (CP-only)."""
        return replace(self, enable_qsr=False, enable_cmr=False, enable_ser=False)


#: Sec. 6.3 sensitivity-chosen parameters for the E. coli dataset.
ECOLI_PARAMS = GenPIPConfig(n_qs=2, n_cm=5)

#: Sec. 6.3 sensitivity-chosen parameters for the human dataset.
HUMAN_PARAMS = GenPIPConfig(n_qs=5, n_cm=3)

#: ER variants of the evaluation (Sec. 5 system variants).
VARIANTS = ("conventional", "qsr_only", "full_er")


def variant_config(config: GenPIPConfig, variant: str) -> GenPIPConfig:
    """Apply an evaluation variant's ER switches to a base config."""
    if variant == "conventional":
        return config.conventional()
    if variant == "qsr_only":
        return replace(config, enable_cmr=False)
    if variant == "full_er":
        return config
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
