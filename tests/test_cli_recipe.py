"""One recipe from flags to pipeline: the batch and serving front ends.

``repro.runtime.cli`` declares the dataset and pipeline flags once,
range-checks them once and turns them into a profile and a pipeline
once; ``repro.serving.cli`` calls it. These tests pin that structure
(AST-level), the flag sets of the three commands, the args-to-config
rule against its hand-written form, the uniform error behaviour, the
CI serving lane end to end (served == batch bytes, clean signal stop),
and that a run needs no dependency but numpy.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VARIANTS, variant_config
from repro.core.registry import preset_config, preset_names
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.datasets import PRESETS
from repro.runtime import cli as runtime_cli
from repro.runtime.transport import SEGMENT_PREFIX
from repro.serving import cli as serving_cli

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

SHARED_FLAGS = (
    "--profile", "--scale", "--seed", "--max-read-length", "--basecaller",
    "--preset", "--variant", "--chunk-size", "--align", "--signal-er",
    "--signal-er-threshold", "--signal-er-templates", "--workers",
)

# Option strings of each command, taken from the commit before the
# front ends were merged (minus `--adaptive-batching`, deleted with the
# second batching rule): no flag may be lost or gained.
COMMAND_FLAGS = {
    "runtime": [
        "--align", "--basecaller", "--batch-size",
        "--chunk-size", "--help", "--json", "--max-read-length", "--outcomes",
        "--preset", "--profile", "--quiet", "--scale", "--seed",
        "--segmentation", "--signal-er", "--signal-er-templates",
        "--signal-er-threshold", "--sink", "--source", "--store", "--trace",
        "--variant", "--workers", "-h",
    ],
    "serve": [
        "--align", "--basecaller", "--chunk-size", "--help", "--host",
        "--max-read-length", "--port", "--port-file", "--preset", "--profile",
        "--quiet", "--signal-er", "--signal-er-templates",
        "--signal-er-threshold", "--variant", "--workers", "-h",
    ],
    "drive": [
        "--help", "--host", "--max-read-length", "--metrics-out", "--outcomes",
        "--port", "--port-file", "--profile", "--quiet", "--scale", "--seed",
        "--sessions", "--summary", "--wait", "-h",
    ],
}


def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    serving = serving_cli.build_parser()
    sub = next(a for a in serving._actions if isinstance(a, argparse._SubParsersAction))
    return {"runtime": runtime_cli.build_parser(), **sub.choices}


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# --- structure ---------------------------------------------------------------


def test_each_shared_flag_is_declared_exactly_once():
    declared: dict[str, list[str]] = {flag: [] for flag in SHARED_FLAGS}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in declared
            ):
                declared[node.args[0].value].append(path.relative_to(SRC_ROOT).as_posix())
    assert declared == {flag: ["runtime/cli.py"] for flag in SHARED_FLAGS}


def test_serving_cli_builds_no_pipeline_or_profile_of_its_own():
    tree = ast.parse((SRC_ROOT / "serving" / "cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.rpartition(".")[2], node.asname))
    forbidden = {
        "GenPIP", "variant_config", "preset_config", "small_profile",
        "SignalRejectionPolicy", "PRESETS",
    }
    assert not names & forbidden


def test_no_command_lost_or_gained_a_flag():
    flags = {
        name: sorted(s for action in parser._actions for s in action.option_strings)
        for name, parser in _command_parsers().items()
    }
    assert flags == COMMAND_FLAGS


# --- args -> pipeline --------------------------------------------------------

_TINY_REFERENCE = ReferenceGenome.random(length=3_000, seed=3, name="tiny")


@settings(max_examples=30, deadline=None)
@given(
    profile=st.sampled_from(sorted(PRESETS)),
    preset=st.none() | st.sampled_from(preset_names()),
    variant=st.sampled_from(VARIANTS),
    chunk_size=st.integers(50, 600),
    align=st.booleans(),
)
def test_pipeline_from_args_matches_the_hand_written_rule(
    profile, preset, variant, chunk_size, align
):
    flags = ["--profile", profile, "--variant", variant, "--chunk-size", str(chunk_size)]
    flags += ["--preset", preset] if preset else []
    flags += ["--align"] if align else []
    expected = variant_config(
        preset_config(preset or profile).with_chunk_size(chunk_size), variant
    )
    for parser, argv in (
        (runtime_cli.build_parser(), flags),
        (serving_cli.build_parser(), ["serve", *flags]),
    ):
        args = parser.parse_args(argv)
        pipeline = runtime_cli.pipeline_from_args(parser, args, _TINY_REFERENCE)
        assert pipeline.config == expected
        assert pipeline.align is align


# --- errors ------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        ["--scale", "0"],
        ["--scale", "inf"],
        ["--scale", "nan"],
        ["--max-read-length", "0"],
        ["--max-read-length", "300"],
        ["--chunk-size", "10"],
        ["--workers", "-1"],
        ["--signal-er-threshold", "0"],
        ["--signal-er-threshold", "inf"],
        ["--signal-er-templates", "0"],
    ],
    ids=lambda bad: "=".join(bad),
)
def test_bad_value_exits_2_with_one_message_everywhere(bad, capsys):
    mains = {
        "runtime": runtime_cli.main,
        "serve": lambda argv: serving_cli.main(["serve", *argv]),
        "drive": lambda argv: serving_cli.main(["drive", "--port", "1", *argv]),
    }
    messages = set()
    for name, flags in COMMAND_FLAGS.items():
        if bad[0] not in flags:
            continue
        with pytest.raises(SystemExit) as excinfo:
            mains[name](bad)
        assert excinfo.value.code == 2, name
        messages.add(capsys.readouterr().err.rpartition("error: ")[2])
    assert len(messages) == 1 and bad[0] in messages.pop()


@pytest.mark.parametrize(
    "argv",
    [
        ["runtime", "--json"],
        ["runtime", "--trace"],
        ["runtime", "--sink", "jsonl", "--outcomes"],
        ["drive", "--outcomes"],
        ["drive", "--summary"],
        ["drive", "--metrics-out"],
        ["serve", "--port-file"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unwritable_output_path_is_an_error_not_a_traceback(argv, tmp_path, monkeypatch):
    """Exit status 1 and ``error: cannot write PATH`` for every output
    flag -- for the batch and drive ones before any run (no server is
    listening on the drive port, no index is built)."""
    command, *flags = argv
    path = str(tmp_path / "missing-dir" / "out")
    main, prefix = {
        "runtime": (runtime_cli.main, []),
        "drive": (serving_cli.main, ["drive", "--port", "1"]),
        "serve": (serving_cli.main, ["serve", "--workers", "0"]),
    }[command]
    if command == "runtime":
        monkeypatch.setattr(
            runtime_cli, "pipeline_from_args", lambda *_: pytest.fail("ran before the claim")
        )
    with pytest.raises(SystemExit) as excinfo:
        main([*prefix, "--max-read-length", "2000", *flags, path])
    assert str(excinfo.value.code).startswith(f"error: cannot write {path}: ")


# --- the CI serving lane -----------------------------------------------------

DATASET_FLAGS = [
    "--profile", "ecoli-like", "--scale", "0.0003", "--seed", "7",
    "--max-read-length", "3000",
]


@pytest.fixture(scope="module")
def batch_outcomes(tmp_path_factory) -> bytes:
    out = tmp_path_factory.mktemp("batch") / "batch.jsonl"
    subprocess.run(
        [
            sys.executable, "-m", "repro.runtime", *DATASET_FLAGS, "--workers", "1",
            "--sink", "jsonl", "--outcomes", str(out), "--quiet",
        ],
        cwd=REPO_ROOT, env=_cli_env(), check=True, timeout=300,
    )
    return out.read_bytes()


def _children(pid: int) -> list[int]:
    return [int(p) for p in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("stop_signal", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
def test_served_outcomes_equal_batch_and_serve_stops_cleanly(
    stop_signal, batch_outcomes, tmp_path
):
    """`serve` as CI starts it -- a background job of a non-interactive
    shell, so SIGINT arrives ignored -- answers 3 sessions byte-identical
    to the serial batch sink, then stops on either signal with its
    summary line, exit status 0, no segment and no worker left behind."""
    port_file, served = tmp_path / "serving.port", tmp_path / "served.jsonl"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving", "serve", "--profile", "ecoli-like",
            "--max-read-length", "3000", "--workers", "2", "--port-file", str(port_file),
        ],
        cwd=REPO_ROOT, env=_cli_env(), stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        subprocess.run(
            [
                sys.executable, "-m", "repro.serving", "drive", *DATASET_FLAGS,
                "--sessions", "3", "--port-file", str(port_file),
                "--outcomes", str(served), "--quiet",
            ],
            cwd=REPO_ROOT, env=_cli_env(), check=True, timeout=300,
        )
        assert served.read_bytes() == batch_outcomes
        children = _children(server.pid)
        assert len(children) >= 2
        server.send_signal(stop_signal)
        _, stderr = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, stderr
    assert "served 3 sessions" in stderr
    assert not list(Path("/dev/shm").glob(f"{SEGMENT_PREFIX}{server.pid}-*"))
    # The resource tracker (also a child) exits just after its parent,
    # an orphaned worker never: a bounded wait tells them apart.
    deadline = time.monotonic() + 10
    while any(Path(f"/proc/{pid}").exists() for pid in children):
        assert time.monotonic() < deadline, "a child process outlived serve"
        time.sleep(0.05)


# --- dependencies ------------------------------------------------------------


def test_numpy_is_the_only_runtime_dependency():
    """The declared dependencies are numpy alone, and no module under
    ``src/repro`` imports scipy (its two simulator calls were replaced
    bit for bit; ``tests/golden_digests.json`` pins the reads)."""
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["dependencies"] == ["numpy>=1.24"]
    scipy_imports = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            scipy_imports.update(
                (path.relative_to(SRC_ROOT).as_posix(), module)
                for module in modules
                if module.split(".")[0] == "scipy"
            )
    assert scipy_imports == set()


def test_cli_run_on_a_simulated_dataset_never_imports_scipy():
    """Simulate, index, process and report in a fresh interpreter: scipy
    is never loaded, even where it is installed."""
    probe = (
        "import sys\n"
        "from repro.runtime.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "raise SystemExit(status)\n"
    )
    subprocess.run(
        [
            sys.executable, "-c", probe, "--profile", "ecoli-like", "--scale", "0.0005",
            "--seed", "7", "--workers", "1", "--quiet",
        ],
        cwd=REPO_ROOT, env=_cli_env(), check=True, timeout=300,
    )
