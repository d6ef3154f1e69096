"""The package surface: what ``repro`` exports exists, and the object API
the array pipeline replaced stays deleted.

Stages pass 2-bit code arrays and per-strand anchor arrays to each other
(``minimizer_arrays``, ``collect_anchor_arrays``); the conventional
pipeline is ``GenPIPPipeline`` under ``GenPIPConfig.conventional()``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: Names deleted because nothing but tests reached them. A definition
#: of any of them under ``src/repro`` (function, class or property) is a
#: regression to the object API.
DELETED_NAMES = frozenset(
    {
        "Sequence",
        "edit_distance",
        "Anchor",
        "collect_anchors",
        "Minimizer",
        "extract_minimizers",
        "ConventionalPipeline",
        "random_bases",
        "int_to_kmer",
        "complement_codes",
        "is_valid_dna",
        "identity_from_quality",
        "normalize_signal",
        "read_read_store",
        "basecall_fraction",
        "bases_seeded",
        "bottleneck_utilisation",
        "mean_read_bases",
    }
)

#: Modules deleted whole. ``identity`` lived in the second; the name is
#: not in ``DELETED_NAMES`` because alignment and mapping results keep
#: an ``identity`` property.
DELETED_MODULES = ("genomics/sequence.py", "mapping/edit_distance.py")


def _declares_all(path: Path) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    )


#: Every module that declares ``__all__``, by dotted name.
EXPORTING_MODULES = sorted(
    ".".join(("repro", *path.relative_to(SRC).with_suffix("").parts)).removesuffix(".__init__")
    for path in SRC.rglob("*.py")
    if _declares_all(path)
)


def _defined_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_deleted_names_stay_deleted():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _defined_names(ast.parse(path.read_text(encoding="utf-8")))
        if name in DELETED_NAMES
    ]
    assert not found, found


def test_deleted_modules_stay_deleted():
    assert [m for m in DELETED_MODULES if (SRC / m).exists()] == []


@pytest.mark.parametrize("module_name", EXPORTING_MODULES)
def test_every_export_resolves(module_name):
    """Each ``__all__`` entry is an attribute of its module, so a stale
    export fails here rather than at import time in an example."""
    module = importlib.import_module(module_name)
    exported = module.__all__
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, missing
    assert not DELETED_NAMES & set(exported)
