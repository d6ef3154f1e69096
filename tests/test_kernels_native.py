"""The compiled kernels' loader under faults, and who resolves them.

:mod:`repro.kernels.native` builds each kernel of its table,
``native.KERNELS`` -- ``trellis.c`` (the Viterbi trellis), ``gotoh.c``
(the Gotoh lane fill), ``chain.c`` (the chain stage), ``seed.c`` (the
minimizer scan and index probe) and ``surrogate.c`` (the surrogate
decode, linked against numpy's ``libnpyrandom.a``) -- on first use and
caches each shared object; any failure must leave the kernel's fallback
running: ``_gathered`` and ``best_chain`` over ``chain_scores_scalar``
for the chain stage, ``gotoh_scalar`` for the Gotoh fill, the numpy
fold for the trellis, the numpy paths for seeding and the surrogate
decode. Each fault below -- no compiler, a compiler that fails, a
package cache that cannot be written, a per-user cache that is not
private, a truncated library in the cache, two processes building a
cold cache at once -- is run for every row of that table and must give
the fallback's bytes, raise nothing and leave no temp file behind; a
missing archive runs the surrogate's fallback silently, and the
archive's bytes name its build. Every array argument of every C
function goes through ``native.address``, which refuses a wrong dtype
or a strided view before C runs, and reads an accepted array's data
pointer from the array object itself (``native._header_data``) where a
once-per-process probe agrees with ``.ctypes.data``: that read must give
``.ctypes.data`` on every kind of array the kernels receive, and forcing
``.ctypes.data`` must change no byte. A surrogate CLI run must build the
chain stage, seeding and the surrogate decode alone (the trellis would
only add start-up time), a run without ``--align`` never the Gotoh
fill, and the summary line names the seeding that seeded, the chain
stage that chained, the decode or trellis that basecalled and the fill
that aligned.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from conftest import fallback, require_native

import repro.kernels.native as native
from repro.basecalling.surrogate import SurrogateBasecaller
from repro.genomics.alphabet import reverse_complement
from repro.genomics.reference import ReferenceGenome
from repro.kernels import (
    mapping_ops,
    move_predecessors,
    viterbi_forward,
    viterbi_traceback,
)
from repro.mapping.alignment import AlignmentConfig, _fill_lanes
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper
from repro.mapping.seeding import collect_anchor_arrays
from repro.nanopore.read_simulator import ReadSimulator, SimulatorConfig
from repro.runtime.cli import main
from repro.runtime.columnar import ColumnarBatch, ColumnarLayout
from repro.runtime.transport import attach_index, publish_index, release_unit

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A build needs a compiler; where there is none, the fallback-only tests
#: here still run (and ``conftest.require_native`` reports it).
needs_compiler = pytest.mark.skipif(native._compiler() is None, reason="no C compiler")

#: Runs one kernel (argv[3]) on fixed input and prints the backend in
#: use, the digest of its outputs (as :func:`_decode`, :func:`_align`,
#: :func:`_chain`, :func:`_seed` and :func:`_basecall` give it in this
#: process) and the data-pointer reader ``native.address`` used; argv:
#: cache directory, start-flag file, kernel, and optionally ``ctypes``
#: to force the ``.ctypes.data`` reader before the first call.
RUN_PROBE = """
import hashlib, sys, time
from pathlib import Path
import numpy as np
import repro.kernels.native as native
cache, go, kernel = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
if sys.argv[4:] == ["ctypes"]:
    native._READER = native._ctypes_data
native._PACKAGE_CACHE = cache
native._user_cache = lambda: cache / "user"
deadline = time.monotonic() + 60
while not go.exists() and time.monotonic() < deadline:
    time.sleep(0.002)
rng = np.random.default_rng(5)
if kernel == "trellis":
    import repro.kernels.viterbi as vk
    pred = vk.move_predecessors(3)
    levels = rng.normal(100.0, 10.0, 64)
    sigma = np.full(64, 2.5)
    backptr, scores, dp = vk.viterbi_forward(
        rng.normal(100.0, 12.0, 400), levels, sigma, np.log(sigma), -0.22, -3.0
    )
    path = vk.viterbi_traceback(backptr, pred, dp)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (backptr, scores, dp, path)))
elif kernel == "chain":
    from repro.genomics.alphabet import reverse_complement
    from repro.genomics.reference import ReferenceGenome
    from repro.kernels import mapping_ops
    from repro.mapping.index import MinimizerIndex
    from repro.mapping.mapper import IncrementalChunkMapper
    native._LOADED["seed"] = None
    reference = ReferenceGenome.random(20_000, seed=5)
    index = MinimizerIndex.build(reference)
    read = np.concatenate(
        [reference.codes[2_000:4_000], reverse_complement(reference.codes[9_000:11_000])]
    )
    mapper = IncrementalChunkMapper(index, read.size)
    for at in range(0, read.size, 700):
        mapper.add_chunk(read[at : at + 900], at)
    before = mapping_ops("chain-candidate")
    chains = [(c.score, c.strand, c.anchors.tobytes()) for c in mapper.chain_prefix() if c]
    digest = hashlib.sha256(repr([chains, mapping_ops("chain-candidate") - before]).encode())
elif kernel == "seed":
    from repro.genomics.reference import ReferenceGenome
    from repro.mapping.index import MinimizerIndex
    from repro.mapping.seeding import collect_anchor_arrays
    reference = ReferenceGenome.random(20_000, seed=5)
    index = MinimizerIndex.build(reference)
    read = reference.codes[3_000:6_000]
    anchors = collect_anchor_arrays(index, read, read_offset=5)
    arrays = (index.key_array, index.bounds_array, index.position_array, index.strand_array,
              anchors[1], anchors[-1])
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays))
elif kernel == "surrogate":
    from repro.basecalling.surrogate import SurrogateBasecaller
    from repro.genomics.reference import ReferenceGenome
    from repro.nanopore.read_simulator import ReadSimulator, SimulatorConfig
    config = SimulatorConfig(median_length=2_000, mean_length=2_100, min_length=1_000, max_length=4_000)
    reads = ReadSimulator(ReferenceGenome.random(20_000, seed=5), config, seed=5).sample_reads(3)
    caller = SurrogateBasecaller()
    chunks = [
        chunk
        for read in reads
        for chunk in caller.basecall_chunks(read, [2, 0, 1, caller.n_chunks(read, 300) - 1, 0], 300)
    ]
    digest = hashlib.sha256(b"".join(c.codes.tobytes() + c.qualities.tobytes() for c in chunks))
else:
    from repro.mapping.alignment import AlignmentConfig, _fill_lanes
    lanes = [
        (rng.integers(0, 4, n).astype(np.uint8), rng.integers(0, 4, m).astype(np.uint8), free)
        for n, m, free in ((90, 80, False), (40, 70, True), (3, 60, False))
    ]
    digest = hashlib.sha256(repr(_fill_lanes(lanes, AlignmentConfig())).encode())
print(native.backend(kernel), digest.hexdigest(), native._READER.__name__)
"""


def _decode() -> str:
    """The probe's decode in this process: hex digest of all four outputs."""
    rng = np.random.default_rng(5)
    levels = rng.normal(100.0, 10.0, 64)
    sigma = np.full(64, 2.5)
    backptr, scores, dp = viterbi_forward(
        rng.normal(100.0, 12.0, 400), levels, sigma, np.log(sigma), -0.22, -3.0
    )
    path = viterbi_traceback(backptr, move_predecessors(3), dp)
    return hashlib.sha256(b"".join(a.tobytes() for a in (backptr, scores, dp, path))).hexdigest()


def _align() -> str:
    """The probe's lane fill in this process: hex digest of every
    lane's score and CIGAR."""
    rng = np.random.default_rng(5)
    lanes = [
        (rng.integers(0, 4, n).astype(np.uint8), rng.integers(0, 4, m).astype(np.uint8), free)
        for n, m, free in ((90, 80, False), (40, 70, True), (3, 60, False))
    ]
    return hashlib.sha256(repr(_fill_lanes(lanes, AlignmentConfig())).encode()).hexdigest()


def _chain() -> str:
    """The probe's chain stage in this process: a chimeric read, one
    half per strand, seeded on the numpy path (so no seeding library is
    built) in overlapping chunks and chained by ``chain_prefix``; hex
    digest of the primary's and the secondary's score, strand and
    anchors, and of the chain candidates charged."""
    with fallback("seed"):
        reference = ReferenceGenome.random(20_000, seed=5)
        index = MinimizerIndex.build(reference)
        read = np.concatenate(
            [reference.codes[2_000:4_000], reverse_complement(reference.codes[9_000:11_000])]
        )
        mapper = IncrementalChunkMapper(index, read.size)
        for at in range(0, read.size, 700):
            mapper.add_chunk(read[at : at + 900], at)
    before = mapping_ops("chain-candidate")
    chains = [(c.score, c.strand, c.anchors.tobytes()) for c in mapper.chain_prefix() if c]
    return hashlib.sha256(repr([chains, mapping_ops("chain-candidate") - before]).encode()).hexdigest()


def _seed() -> str:
    """The probe's seeding in this process: hex digest of a reference
    index's four arrays (built by the minimizer scan) and of one read's
    anchors."""
    reference = ReferenceGenome.random(20_000, seed=5)
    index = MinimizerIndex.build(reference)
    read = reference.codes[3_000:6_000]
    anchors = collect_anchor_arrays(index, read, read_offset=5)
    arrays = (index.key_array, index.bounds_array, index.position_array, index.strand_array,
              anchors[1], anchors[-1])  # fmt: skip
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _basecall() -> str:
    """The probe's surrogate decode in this process: three simulated
    reads, each in one out-of-order batch with a repeat and its last
    chunk; hex digest of every chunk's codes and qualities."""
    config = SimulatorConfig(median_length=2_000, mean_length=2_100, min_length=1_000, max_length=4_000)
    reads = ReadSimulator(ReferenceGenome.random(20_000, seed=5), config, seed=5).sample_reads(3)
    caller = SurrogateBasecaller()
    chunks = [
        chunk
        for read in reads
        for chunk in caller.basecall_chunks(read, [2, 0, 1, caller.n_chunks(read, 300) - 1, 0], 300)
    ]
    return hashlib.sha256(b"".join(c.codes.tobytes() + c.qualities.tobytes() for c in chunks)).hexdigest()


_RUNS = {
    "trellis": _decode,
    "gotoh": _align,
    "chain": _chain,
    "seed": _seed,
    "surrogate": _basecall,
}


@dataclass(frozen=True)
class Kernel:
    """One row of ``native.KERNELS``: its source name, a run giving the
    digest of its outputs, which backend runs, and the name the backend
    reports for its fallback."""

    name: str

    def run(self) -> str:
        return _RUNS[self.name]()

    def backend(self) -> str:
        return native.backend(self.name)

    @property
    def fallback_name(self) -> str:
        return native.KERNELS[self.name][0]


@pytest.fixture(params=sorted(native.KERNELS))
def kernel(request) -> Kernel:
    return Kernel(request.param)


@pytest.fixture(scope="module")
def fallback_digests() -> dict[str, str]:
    digests = {}
    for name in native.KERNELS:
        with fallback(name):
            digests[name] = Kernel(name).run()
    return digests


@pytest.fixture
def fallback_digest(kernel, fallback_digests) -> str:
    return fallback_digests[kernel.name]


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """Point both cache directories into ``tmp_path`` and make the next
    call of any kernel resolve afresh; the real resolution comes back
    after."""
    package, user = tmp_path / "package", tmp_path / "user"
    monkeypatch.setattr(native, "_PACKAGE_CACHE", package)
    monkeypatch.setattr(native, "_user_cache", lambda: user)
    monkeypatch.setattr(native, "_LOADED", {})
    return package, user


def test_table_rows_are_the_c_sources():
    """Every ``*.c`` of the kernels package has a row in the loader's
    table, and every row a source: a fifth kernel cannot be added to
    one without the other."""
    sources = Path(native.__file__).parent.glob("*.c")
    assert sorted(native.KERNELS) == sorted(path.stem for path in sources)


@pytest.fixture(params=["header", "ctypes"])
def reader(request, kernel, monkeypatch):
    """Runs a test once under each data-pointer reader of
    ``native.address``: the header read, then ``.ctypes.data``. The
    kernel resolves first, so the process's own pick is what comes back
    after."""
    native.kernel(kernel.name)
    chosen = native._header_data if request.param == "header" else native._ctypes_data
    monkeypatch.setattr(native, "_READER", chosen)
    return chosen


def test_array_arguments_are_checked_before_any_c_call(kernel, reader):
    """Every array argument of every C function in the kernel's row
    goes through ``native.address``: another dtype, a strided view or a
    list is refused with ``TypeError`` before the C function runs, and
    an accepted array reaches it as the address of its data. The
    compiled functions themselves refuse the same way, under either
    reader."""
    loaded = native.kernel(kernel.name)
    for function, (arguments, _) in native.KERNELS[kernel.name][1].items():
        calls = []

        def symbol(*args, calls=calls):
            calls.append(args)

        symbol.__name__ = function
        checked = native.bind(symbol, arguments)
        valid = [np.zeros(4, dtype=t) if isinstance(t, np.dtype) else 0 for t in arguments]
        slots = [slot for slot, t in enumerate(arguments) if isinstance(t, np.dtype)]
        assert slots, function
        for slot in slots:
            dtype = arguments[slot]
            for refused in (np.zeros(4, np.float16), np.zeros(8, dtype)[::2], [0, 0, 0, 0]):
                args = [*valid[:slot], refused, *valid[slot + 1 :]]
                with pytest.raises(TypeError, match=f"C-contiguous {dtype} array"):
                    checked(*args)
                if loaded is not None:
                    with pytest.raises(TypeError, match=f"C-contiguous {dtype} array"):
                        getattr(loaded, function)(*args)
        assert calls == []
        checked(*valid)
        assert calls == [tuple(a.ctypes.data if isinstance(a, np.ndarray) else a for a in valid)]


def _arrays_the_kernels_receive(tmp_path: Path) -> list[np.ndarray]:
    """One or more of each kind of array that reaches a C function:
    owned, offset views, read-only over ``bytes``, a pooled unit's
    read views over the received image, an attached index's views into
    shared memory, memory maps and zero-size arrays."""
    arrays = [
        np.arange(9, dtype=np.float64),
        np.zeros((3, 4), dtype=np.uint8),
        np.arange(12, dtype=np.int64)[5:],
        np.arange(24, dtype=np.int64).reshape(4, 6)[2],
        np.frombuffer(bytes(range(32)), dtype=np.uint8),
        np.frombuffer(bytes(range(32)), dtype=np.uint32, count=3, offset=4),
        np.zeros(0),
        np.zeros(0, dtype=np.uint8),
        np.arange(10, dtype=np.int64)[10:],
    ]
    config = SimulatorConfig(median_length=600, mean_length=650, min_length=300, max_length=900)
    reads = ReadSimulator(ReferenceGenome.random(5_000, seed=3), config, seed=3).sample_reads(3)
    layout = ColumnarLayout.plan(reads)
    image = bytearray(layout.total_bytes)
    layout.pack_into(image, reads)
    for read in ColumnarBatch(bytes(image), layout.handles).reads():
        arrays += [read.true_codes, read.qualities]
    index = MinimizerIndex.build(ReferenceGenome.random(5_000, seed=3))
    handle = publish_index(index)
    try:
        attached = attach_index(handle)
    finally:
        release_unit(handle.segment)
    arrays += [attached.key_array, attached.bounds_array, attached.position_array,
               attached.strand_array, attached.reference.codes]  # fmt: skip
    path = tmp_path / "mapped.bin"
    written = np.memmap(path, dtype=np.int64, mode="w+", shape=(16,))
    written[:] = np.arange(16)
    written.flush()
    arrays += [written, np.memmap(path, dtype=np.uint8, mode="r", offset=3)]
    return arrays


def test_header_read_is_the_ctypes_data_pointer(tmp_path):
    """On every kind of array the kernels receive, the pointer read from
    the array object is the integer ``.ctypes.data`` gives, and
    ``native.address`` returns it under both readers."""
    arrays = _arrays_the_kernels_receive(tmp_path)
    for array in arrays:
        assert native._header_data(array) == array.ctypes.data, (array.dtype, array.shape)
        assert native._ctypes_data(array) == array.ctypes.data
    assert native._header_agrees()


def test_header_reader_is_what_runs(monkeypatch):
    """On CPython the first library resolved picks the header read, or
    every comparison of the two readers would test ``.ctypes.data``
    against itself; a reader set before that is kept."""
    require_native("chain")
    monkeypatch.setattr(native, "_LOADED", {})
    monkeypatch.setattr(native, "_READER", None)
    assert native.kernel("chain") is not None
    assert native._READER is native._header_data
    monkeypatch.setattr(native, "_LOADED", {})
    monkeypatch.setattr(native, "_READER", native._ctypes_data)
    assert native.kernel("chain") is not None
    assert native._READER is native._ctypes_data


def test_failing_probe_keeps_the_ctypes_data_reader(monkeypatch):
    """A header read that disagrees with ``.ctypes.data`` on any probe (a
    changed layout) leaves ``.ctypes.data`` as the reader, silently."""
    require_native("chain")
    monkeypatch.setattr(native, "_DATA_OFFSET", native._DATA_OFFSET + 8)
    assert not native._header_agrees()
    monkeypatch.setattr(native, "_LOADED", {})
    monkeypatch.setattr(native, "_READER", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert native.kernel("chain") is not None
    assert native._READER is native._ctypes_data


@needs_compiler
def test_ctypes_data_reader_gives_the_same_bytes(kernel, tmp_path, fallback_digest):
    """A fresh process with the ``.ctypes.data`` reader forced before its
    first call runs the compiled kernel and gives the same digest as the
    header read (and the fallback) in this process."""
    go = tmp_path / "go"
    go.write_text("")
    completed = subprocess.run(
        [sys.executable, "-c", RUN_PROBE, str(native._PACKAGE_CACHE), str(go), kernel.name, "ctypes"],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["native", fallback_digest, "_ctypes_data"]
    assert kernel.run() == fallback_digest


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def _files(*directories: Path) -> list[Path]:
    return sorted(p for d in directories if d.is_dir() for p in d.iterdir())


def _temp_files(*directories: Path) -> list[Path]:
    return [p for p in _files(*directories) if p.name.endswith(".tmp")]


@needs_compiler
def test_cold_cache_builds_into_the_package_cache(kernel, cache, fallback_digest):
    package, user = cache
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.run() == fallback_digest
    assert kernel.backend() == "native"
    assert [p.suffix for p in _files(package)] == [".so"]
    assert not user.exists()


def test_missing_compiler_runs_the_fallback_silently(kernel, cache, monkeypatch, fallback_digest):
    monkeypatch.setattr(native.shutil, "which", lambda _name: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.run() == fallback_digest
    assert kernel.backend() == kernel.fallback_name
    assert _files(*cache) == []


def test_missing_archive_runs_the_surrogate_fallback_silently(cache, monkeypatch, tmp_path, fallback_digests):
    """No ``libnpyrandom.a`` (a numpy built without it): the surrogate
    decode's numpy path runs, without a warning and without a build, as
    when there is no compiler."""
    monkeypatch.setitem(native.ARCHIVES, "surrogate", tmp_path / "absent" / "libnpyrandom.a")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Kernel("surrogate").run() == fallback_digests["surrogate"]
    assert native.backend("surrogate") == "numpy"
    assert _files(*cache) == []


@needs_compiler
def test_cache_key_hashes_the_archive(cache, monkeypatch, tmp_path):
    """The surrogate library's name hashes the archive it links: numpy
    upgraded in place (other bytes at the same path) never loads a build
    linked against its old distributions."""
    package, _ = cache
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(native.ARCHIVES["surrogate"].read_bytes())
    monkeypatch.setitem(native.ARCHIVES, "surrogate", archive)
    assert native.load_library("surrogate") is not None
    (built,) = _files(package)
    source = Path(native.__file__).parent / "surrogate.c"
    command = [*native._compiler(), *native.CFLAGS]
    assert built.name == f"surrogate-{native._cache_key(source, command, archive)}.so"
    with archive.open("ab") as upgraded:
        upgraded.write(b"\n")
    assert native._cache_key(source, command, archive) not in built.name


def test_failing_compiler_warns_once_and_runs_the_fallback(
    kernel, cache, monkeypatch, fallback_digest
):
    failing = [sys.executable, "-c", "import sys; sys.exit('cc: injected failure')"]
    monkeypatch.setattr(native, "_compiler", lambda: failing)
    with pytest.warns(RuntimeWarning, match="injected failure") as record:
        assert kernel.run() == fallback_digest
        assert kernel.run() == fallback_digest  # resolved once: no second build, no second warning
    assert len(record) == 1
    assert kernel.backend() == kernel.fallback_name
    assert not [p for p in _files(*cache) if p.suffix == ".so"]
    assert _temp_files(*cache) == []


@needs_compiler
def test_unwritable_package_cache_falls_back_to_a_private_user_cache(
    kernel, cache, monkeypatch, tmp_path, fallback_digest
):
    """The package cache cannot be created (a file stands where its parent
    directory should be, which stops root too, unlike permission bits):
    the library is built in the per-user directory, created mode 0o700."""
    blocker = tmp_path / "read-only"
    blocker.write_text("")
    monkeypatch.setattr(native, "_PACKAGE_CACHE", blocker / "__pycache__")
    _, user = cache
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.run() == fallback_digest
    assert kernel.backend() == "native"
    assert [p.suffix for p in _files(user)] == [".so"]
    assert user.stat().st_mode & 0o777 == 0o700
    assert _temp_files(user) == []


@needs_compiler
def test_user_cache_that_is_not_private_is_never_used(kernel, cache, monkeypatch, tmp_path, fallback_digest):
    """A per-user directory that is not private (here: world-writable) is
    never loaded from or built into; with no usable directory the
    fallback runs, with a warning."""
    blocker = tmp_path / "read-only"
    blocker.write_text("")
    monkeypatch.setattr(native, "_PACKAGE_CACHE", blocker / "__pycache__")
    _, user = cache
    user.mkdir(mode=0o777)
    user.chmod(0o777)
    with pytest.warns(RuntimeWarning, match="no writable cache directory"):
        assert kernel.run() == fallback_digest
    assert kernel.backend() == kernel.fallback_name
    assert _files(user) == []


@needs_compiler
def test_truncated_library_in_the_cache_is_rebuilt(kernel, cache, tmp_path, monkeypatch, fallback_digest):
    """A truncated ``.so`` under the right name (an interrupted copy, a
    full disk) fails to load and is rebuilt in place. It is planted in a
    directory this process never loaded from: the dynamic loader
    answers an already-loaded path from memory."""
    package, _ = cache
    assert native.load_library(kernel.name) is not None
    (built,) = _files(package)
    planted = tmp_path / "planted"
    planted.mkdir()
    (planted / built.name).write_bytes(built.read_bytes()[:200])
    monkeypatch.setattr(native, "_PACKAGE_CACHE", planted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.run() == fallback_digest
    assert kernel.backend() == "native"
    assert (planted / built.name).stat().st_size == built.stat().st_size
    assert _temp_files(planted) == []


@needs_compiler
def test_two_processes_build_a_cold_cache_at_once(kernel, tmp_path, fallback_digest):
    """Both wait on one flag file, then resolve the same empty cache:
    each builds to its own temp name and ``os.replace``s it in, so each
    loads a whole library and gives the fallback's bytes."""
    cache, go = tmp_path / "shared", tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", RUN_PROBE, str(cache), str(go), kernel.name],
            cwd=REPO_ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )  # fmt: skip
        for _ in range(2)
    ]
    try:
        go.write_text("")
        results = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    for proc, (out, err) in zip(procs, results, strict=True):
        assert proc.returncode == 0, err
        assert out.split() == ["native", fallback_digest, "_header_data"]
        assert "Warning" not in err, err
    assert [p.suffix for p in _files(cache)] == [".so"]


#: A CLI run with both cache directories moved into argv[1]; afterwards
#: asserts the loader was not imported with the CLI, the trellis was
#: never resolved, the Gotoh fill only on an ``--align`` run, and that
#: the chain stage's, seeding's and the surrogate decode's libraries
#: (the index build scans, and workers decode, seed and chain, so they
#: build them) and, on an ``--align`` run, the fill's were all that was
#: cached.
UNRESOLVED_PROBE = """
import sys
from pathlib import Path
from repro.runtime.cli import main
assert "repro.kernels.native" not in sys.modules, "loader imported with the CLI"
import repro.kernels.native as native
cache = Path(sys.argv.pop(1))
native._PACKAGE_CACHE = cache
native._user_cache = lambda: cache / "user"
status = main(sys.argv[1:])
aligned = "--align" in sys.argv
assert "trellis" not in native._LOADED, "trellis resolved"
assert ("gotoh" in native._LOADED) == aligned, "Gotoh fill resolved: " + str(aligned)
built = sorted(path.name for path in cache.rglob("*")) if cache.exists() else []
expected = ["chain", "gotoh", "seed", "surrogate"] if aligned else ["chain", "seed", "surrogate"]
expected = expected if native._compiler() is not None else []
assert [name.partition("-")[0] for name in built] == expected, built
raise SystemExit(status)
"""


def test_surrogate_cli_run_builds_seeding_chain_and_surrogate_alone(tmp_path):
    """Start-up of the surrogate workloads pays only for the kernels
    they run: importing the CLI does not import the loader, and an
    ``ecoli-like`` run without ``--align`` (pooled, so workers are
    covered too) builds the chain stage, seeding and the surrogate
    decode, and neither resolves nor builds the trellis or the Gotoh
    fill."""
    subprocess.run(
        [
            sys.executable, "-c", UNRESOLVED_PROBE, str(tmp_path / "cache"),
            "--profile", "ecoli-like", "--scale", "0.0003", "--seed", "7",
            "--max-read-length", "3000", "--workers", "2", "--batch-size", "3", "--quiet",
        ],
        cwd=REPO_ROOT, env=_env(), check=True, timeout=300,
    )  # fmt: skip


def test_aligned_surrogate_cli_run_also_builds_the_gotoh_fill(tmp_path):
    """An ``--align`` run resolves the Gotoh fill (and, with a compiler,
    caches ``chain-<hash>.so``, ``gotoh-<hash>.so``, ``seed-<hash>.so``
    and ``surrogate-<hash>.so`` and nothing else), never the trellis."""
    subprocess.run(
        [
            sys.executable, "-c", UNRESOLVED_PROBE, str(tmp_path / "cache"),
            "--profile", "ecoli-like", "--scale", "0.0002", "--seed", "7",
            "--max-read-length", "2000", "--workers", "1", "--align", "--quiet",
        ],
        cwd=REPO_ROOT, env=_env(), check=True, timeout=300,
    )  # fmt: skip


def test_viterbi_cli_summary_names_the_trellis(trellis, capsys):
    status = main(
        [
            "--basecaller", "viterbi", "--profile", "ecoli-like", "--scale", "0.0001",
            "--seed", "7", "--max-read-length", "1000", "--workers", "1",
        ]
    )  # fmt: skip
    assert status == 0
    summary = capsys.readouterr().err
    assert f"trellis {trellis})" in summary
    assert "surrogate" not in summary


def test_aligned_cli_summary_names_the_gotoh_fill(gotoh, capsys):
    status = main(
        [
            "--profile", "ecoli-like", "--scale", "0.0001", "--seed", "7",
            "--max-read-length", "1500", "--workers", "1", "--align",
        ]
    )  # fmt: skip
    assert status == 0
    assert f"gotoh {gotoh})" in capsys.readouterr().err


def test_cli_summary_names_the_surrogate_decode(surrogate, capsys):
    status = main(
        [
            "--profile", "ecoli-like", "--scale", "0.0001", "--seed", "7",
            "--max-read-length", "1500", "--workers", "1",
        ]
    )  # fmt: skip
    assert status == 0
    assert f", surrogate {surrogate})" in capsys.readouterr().err


def test_cli_summary_names_the_chain_dp(chain, capsys):
    status = main(
        [
            "--profile", "ecoli-like", "--scale", "0.0001", "--seed", "7",
            "--max-read-length", "1500", "--workers", "1",
        ]
    )  # fmt: skip
    assert status == 0
    assert f"chain {chain}" in capsys.readouterr().err


def test_cli_summary_names_the_seeding(seeding, capsys):
    status = main(
        [
            "--profile", "ecoli-like", "--scale", "0.0001", "--seed", "7",
            "--max-read-length", "1500", "--workers", "1",
        ]
    )  # fmt: skip
    assert status == 0
    assert f"seed {seeding}, chain " in capsys.readouterr().err
