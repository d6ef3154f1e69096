"""The built-in basecaller backends and pipeline presets, by name.

Two dicts: ``name -> engine type`` (``"surrogate"``, ``"viterbi"``) and
``name -> GenPIPConfig`` (``"ecoli"`` / ``"human"``, the Sec. 6.3
parameters, with the dataset-profile spellings ``"ecoli-like"`` /
``"human-like"`` as aliases, plus ``"default"``).
They are what the CLI's ``--basecaller`` / ``--preset`` flags look up,
through :func:`create_basecaller` / :func:`preset_config`.

A name is a convenience for the built-ins, not how an engine is known
to the rest of the system: any object satisfying
:class:`~repro.core.backends.Basecaller` is handed to
``GenPIPPipeline(...)`` as itself, and travels to workers as itself.
"""

from __future__ import annotations

from typing import Any

from repro.basecalling.engines import ViterbiChunkBasecaller
from repro.basecalling.surrogate import SurrogateBasecaller
from repro.core.backends import Basecaller
from repro.core.config import ECOLI_PARAMS, HUMAN_PARAMS, GenPIPConfig

#: Each type is constructed as ``engine_type(config | None)``.
_BASECALLERS: dict[str, type] = {
    "surrogate": SurrogateBasecaller,
    "viterbi": ViterbiChunkBasecaller,
}

_PRESETS: dict[str, GenPIPConfig] = {
    "default": GenPIPConfig(),
    "ecoli": ECOLI_PARAMS,
    "human": HUMAN_PARAMS,
    # Dataset-profile spellings, for symmetry with --profile.
    "ecoli-like": ECOLI_PARAMS,
    "human-like": HUMAN_PARAMS,
}


def basecaller_names() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BASECALLERS))


def create_basecaller(name: str, config: Any | None = None) -> Basecaller:
    """Construct a backend by name.

    ``config`` must be an instance of the backend's config type (or
    ``None`` for the backend's defaults); the engine's constructor
    raises ``TypeError`` otherwise.
    """
    try:
        engine_type = _BASECALLERS[name]
    except KeyError:
        available = ", ".join(basecaller_names())
        raise ValueError(
            f"unknown basecaller backend {name!r}; available backends: {available}"
        ) from None
    return engine_type(config)


def preset_names() -> tuple[str, ...]:
    """Preset names, sorted."""
    return tuple(sorted(_PRESETS))


def preset_config(name: str) -> GenPIPConfig:
    """Look up a preset's :class:`GenPIPConfig` with a helpful error."""
    try:
        return _PRESETS[name]
    except KeyError:
        available = ", ".join(preset_names())
        raise ValueError(
            f"unknown pipeline preset {name!r}; available presets: {available}"
        ) from None
