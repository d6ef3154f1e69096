"""The config contract: every read-path configuration refuses, when it is
made, each numeric value outside its field's domain, and checks it
through :mod:`repro.checks` alone.

The configurations are found by reflection -- every frozen ``*Config`` /
``*Profile`` dataclass a package exports in ``__all__`` -- so a new one
is covered without being listed. Every ``int`` / ``float`` field is fed
the values that once changed what a run computed, or crashed it, without
an error: NaN, +-inf, ``True``, 2.5, ``2**63`` and -1. Each must raise
:class:`~repro.checks.ConfigError` unless :data:`ACCEPTED` names it,
with the domain it lies in.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import math
import pkgutil
import typing
from pathlib import Path

import pytest

import repro
from repro.checks import ConfigError
from repro.nanopore import ECOLI_LIKE

SRC = Path(repro.__file__).parent

#: ``repro.hardware`` and ``repro.perf`` configurations parametrise the
#: modelled chip and its analytic performance model, not the read path:
#: which of their fields stay is still open, so they are outside this
#: contract.
OUTSIDE = ("hardware", "perf")

#: The configurations this contract must find, at the least; a
#: reflection that finds none of them would pass vacuously.
KNOWN = {
    "GenPIPConfig", "MinimizerConfig", "ChainingConfig", "AlignmentConfig", "MapperConfig",
    "SurrogateConfig", "ViterbiConfig", "ViterbiBackendConfig", "SegmentationConfig",
    "SignalConfig", "SimulatorConfig", "QualityProcessConfig", "ErrorProfile", "QCConfig",
    "DatasetProfile",
}  # fmt: skip

PROBES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bool": True,
    "2.5": 2.5,
    "2**63": 2**63,
    "-1": -1,
}

_FINITE_POSITIVE = ("2.5", "2**63")

#: ``Class.field`` -> (the probes it accepts, the domain they lie in).
#: Every probe not named here must be refused.
ACCEPTED = {
    "GenPIPConfig.chunk_size": (("2**63",), "integer >= 50; a chunk past the read's end is the whole read"),
    "GenPIPConfig.n_qs": (("2**63",), "integer >= 1; QSR samples at most every chunk"),
    "GenPIPConfig.n_cm": (("2**63",), "integer >= 1; CMR merges at most every chunk"),
    "GenPIPConfig.min_chunks_for_er": (("2**63",), "integer >= 1; above the chunk count, ER is skipped"),
    "GenPIPConfig.theta_qs": (_FINITE_POSITIVE, "finite >= 0; above every quality, QSR rejects every read"),
    "GenPIPConfig.theta_cm": (_FINITE_POSITIVE, "finite >= 0; above every score, CMR rejects every read"),
    "QCConfig.theta_qs": (_FINITE_POSITIVE, "finite >= 0; above every quality, every read fails"),
    "MinimizerConfig.w": (("2**63",), "integer >= 1; a window past the sequence is the sequence"),
    "ChainingConfig.lookback": (("2**63",), "integer >= 1; clamped to the anchor count"),
    "ChainingConfig.min_anchors": (("2**63",), "integer >= 1; above the anchor count, no chain"),
    "ChainingConfig.min_chain_score": (("2.5", "2**63", "-1"), "any finite score; negative keeps every end"),
    "AlignmentConfig.mismatch": (("-1",), "integer-valued in [-2**20, 0)"),
    "AlignmentConfig.gap_open": (("-1",), "integer-valued in [-2**20, 0)"),
    "AlignmentConfig.gap_extend": (("-1",), "integer-valued in [-2**20, 0)"),
    "AlignmentConfig.max_end_extension": (("2**63",), "integer >= 0; past the read's end, the whole end"),
    "AlignmentConfig.max_segment_cells": (("2**63",), "integer >= 0; no segment is over the cap"),
    "SurrogateConfig.error_scale": (_FINITE_POSITIVE, "finite > 0; the error probability is capped"),
    "SurrogateConfig.quality_jitter": (_FINITE_POSITIVE, "finite >= 0; qualities are floored at 1"),
    "ViterbiConfig.extra_noise_std": (_FINITE_POSITIVE, "finite >= 0"),
    "ViterbiConfig.max_quality": (_FINITE_POSITIVE, "finite >= 1"),
    "ViterbiBackendConfig.pore_seed": (("2**63",), "integer >= 0, any generator seed"),
    "ViterbiBackendConfig.quality_noise": (_FINITE_POSITIVE, "finite >= 0 pA"),
    "SegmentationConfig.window": (("2**63",), "integer >= 1; wider than the read, one event"),
    "SegmentationConfig.min_dwell": (("2**63",), "integer >= 1; longer than the read, one event"),
    "SegmentationConfig.threshold": (_FINITE_POSITIVE, "finite > 0; above every jump score, one event"),
    "SignalConfig.dwell_mean": (("2.5",), "finite in [dwell_min, 1000] samples per base"),
    "SignalConfig.noise_std": (_FINITE_POSITIVE, "finite >= 0 pA; samples stay finite in float32"),
    "SignalConfig.drift_per_kilosample": (("2.5", "2**63", "-1"), "any finite pA per 1000 samples"),
    "ErrorProfile.substitution": (_FINITE_POSITIVE, "finite >= 0; weights are normalised"),
    "ErrorProfile.insertion": (_FINITE_POSITIVE, "finite >= 0; weights are normalised"),
    "ErrorProfile.deletion": (_FINITE_POSITIVE, "finite >= 0; weights are normalised"),
    "QualityProcessConfig.correlation_length": (_FINITE_POSITIVE, "finite > 0 bases"),
    "QualityProcessConfig.process_std": (_FINITE_POSITIVE, "finite >= 0; qualities are clipped"),
    "QualityProcessConfig.jitter_std": (_FINITE_POSITIVE, "finite >= 0; qualities are clipped"),
    "QualityProcessConfig.burst_depth": (("2.5", "2**63", "-1"), "any finite drop; qualities are clipped"),
    "QualityProcessConfig.burst_length": (("2**63",), "integer >= 1; longer than the read, no burst"),
    "QualityProcessConfig.floor": (("2.5",), "finite in [0, ceiling]"),
    "QualityProcessConfig.ceiling": (_FINITE_POSITIVE, "finite >= floor"),
    "SimulatorConfig.median_length": (_FINITE_POSITIVE, "finite > 0; lengths are clipped to the bounds"),
    "SimulatorConfig.mean_length": (_FINITE_POSITIVE, "finite > 0; lengths are clipped to the bounds"),
    "SimulatorConfig.max_length": (("2**63",), "integer > min_length; also capped by the reference"),
    "SimulatorConfig.short_read_mean": (_FINITE_POSITIVE, "finite >= 0; lengths are clipped to the bounds"),
    "SimulatorConfig.low_quality_mean": (("2.5", "2**63", "-1"), "any finite mean; qualities are clipped"),
    "SimulatorConfig.high_quality_mean": (("2.5", "2**63", "-1"), "any finite mean; qualities are clipped"),
    "SimulatorConfig.low_quality_std": (_FINITE_POSITIVE, "finite >= 0; qualities are clipped"),
    "SimulatorConfig.high_quality_std": (_FINITE_POSITIVE, "finite >= 0; qualities are clipped"),
    "DatasetProfile.full_read_count": (("2**63",), "integer >= 1; reads are drawn lazily"),
    "DatasetProfile.reference_length": (("2**63",), "integer >= 1; the reference is held in memory"),
    "DatasetProfile.reference_seed": (("2**63",), "integer >= 0, any generator seed"),
}  # fmt: skip

#: A configuration with required fields, and the value the probes amend.
BASES = {"DatasetProfile": ECOLI_LIKE}


def _configurations() -> list[type]:
    found = {}
    for module in pkgutil.iter_modules(repro.__path__):
        if not module.ispkg or module.name in OUTSIDE:
            continue
        package = importlib.import_module(f"repro.{module.name}")
        for name in getattr(package, "__all__", ()):
            obj = getattr(package, name)
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen
                and name.endswith(("Config", "Profile"))
            ):
                found[name] = obj
    return [found[name] for name in sorted(found)]


CONFIGURATIONS = _configurations()

NUMERIC_FIELDS = [
    (cls, field.name)
    for cls in CONFIGURATIONS
    for field in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[field.name] in (int, float)
]


def test_reflection_finds_every_read_path_configuration():
    assert KNOWN <= {cls.__name__ for cls in CONFIGURATIONS}


def test_every_accepted_entry_names_a_numeric_field_and_a_probe():
    fields = {f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS}
    assert set(ACCEPTED) <= fields
    assert all(set(probes) <= set(PROBES) and domain for probes, domain in ACCEPTED.values())


@pytest.mark.parametrize("probe", list(PROBES))
@pytest.mark.parametrize(
    ("cls", "name"), NUMERIC_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS]
)
def test_field_refuses_what_lies_outside_its_domain(cls, name, probe):
    base = BASES.get(cls.__name__) or cls()
    accepted, _domain = ACCEPTED.get(f"{cls.__name__}.{name}", ((), ""))
    if probe in accepted:
        assert getattr(dataclasses.replace(base, **{name: PROBES[probe]}), name) == PROBES[probe]
    else:
        with pytest.raises(ConfigError, match=name):
            dataclasses.replace(base, **{name: PROBES[probe]})


#: ``__post_init__`` methods that check arrays element by element, which
#: a scalar field check cannot: the samples of a signal and the levels
#: of a pore model.
ARRAY_CHECKS = {"nanopore/signal.py:RawSignal", "nanopore/pore_model.py:PoreModel"}


def _hand_written_checks(tree: ast.Module, path: str) -> list[str]:
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        if f"{path}:{cls.name}" in ARRAY_CHECKS:
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                continue
            for node in ast.walk(method):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                if name in ("isfinite", "Integral", "Real"):
                    found.append(f"{path}:{cls.name}.__post_init__ line {node.lineno}: {name}")
    return found


def test_no_post_init_checks_a_number_by_hand():
    """``math.isfinite`` / ``np.isfinite`` and ``numbers.Integral`` /
    ``numbers.Real`` are asked in :mod:`repro.checks` alone."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative != "checks.py":
            found += _hand_written_checks(ast.parse(path.read_text()), relative)
    assert found == []
