"""Build-on-first-use loader for the kernels' optional C code.

numpy is the only runtime dependency, so compiled code can only be a
speed-up: every C kernel here has a Python fallback that produces the
same bytes, and runs whenever the library cannot be had -- the Python
chain stitch over the scalar Gotoh reference for the chain alignment
and the lane fill, ``_gathered`` and ``best_chain`` (over
the scalar chain DP) for the chain stage, the numpy fold for the
Viterbi trellis, the numpy paths for seeding and for the surrogate
decode. There are five:
``trellis.c`` (the Viterbi trellis, :mod:`repro.kernels.viterbi`),
``gotoh.c`` (a mapped read's whole chain alignment, and the Gotoh lane
fill, :mod:`repro.mapping.alignment`),
``chain.c`` (a read's whole chain stage, :mod:`repro.kernels.chain`),
``seed.c`` (the minimizer scan and index probe,
:mod:`repro.kernels.seed`) and ``surrogate.c`` (the surrogate
basecaller's draws, errors and jitter,
:mod:`repro.basecalling.surrogate`). :data:`KERNELS` is the one
table of them: each one's fallback name and its C functions'
signatures. :func:`kernel` resolves a library once per process, on
that kernel's first call, into :data:`_LOADED`, so a run that never
decodes Viterbi, never aligns or never chains never builds or loads
that library; :func:`backend` names what runs.

Every C function takes its arrays as raw ``void *`` addresses
(``ctypes.c_void_p``). :func:`kernel` hands out each function bound
by :func:`bind`, which passes each array argument through
:func:`address` first: that refuses, with ``TypeError`` and before the
C code runs, any array that is not C-contiguous or not of the dtype
the table names, which is what numpy's ``ndpointer`` argtypes refused,
at about half the cost per call. Setting
``_LOADED[name] = None`` before the first call forces the fallback (no
option or environment variable does). Every call site imports this
module inside the function that calls the kernel, so importing the CLI
does not import the loader.

:func:`address` reads an accepted array's data pointer straight from
the array object, not through ``.ctypes.data``, which builds a numpy
``_ctypes`` object per array (~1.7 us against ~0.3 us, ``timeit`` on 2
vCPUs). That read relies on two facts of CPython and numpy:
``id(array)`` is the object's address, and numpy's ``PyArrayObject``
stores its data pointer (the ``PyArray_DATA`` field) first, right after
the ``PyObject`` header of ``object.__basicsize__`` bytes. Both are
checked once per process, when :func:`kernel` first resolves a library:
the interpreter must be CPython, and the header read must equal
``.ctypes.data`` on a few probe arrays (owned, an offset view, read-only
over ``bytes``, zero-size). If either fails, ``.ctypes.data`` stays the
reader for the process, silently, as a missing compiler is silent.
:data:`_READER` holds the choice; setting it to :func:`_ctypes_data`
before the first call forces the ``.ctypes.data`` reader (the tests'
and CI's way, as with ``_LOADED``).

:func:`load_library` compiles ``<name>.c`` from this package with the
system C compiler (``sysconfig``'s ``CC``, else ``cc``) and
:data:`CFLAGS`, links the static archive :data:`ARCHIVES` names for it
(``surrogate.c`` alone links one: numpy's ``libnpyrandom.a``, then
``-lm``), loads it with ``ctypes``, and returns ``None`` instead of
raising on any failure; a missing archive is ``None`` without a word,
as a missing compiler is. The shared object is cached in this
package's ``__pycache__/``, or, if that is not writable, in a private
per-user directory (mode ``0o700``) under the temp directory. Its name
hashes the source, the compile command, the platform and the archive's
bytes, so an edited source, another compiler or an upgraded numpy
never loads a stale build. It is built under
a temp name and moved into place with ``os.replace``, so processes
racing a cold cache each load a whole file. Nothing runs at import: the
first caller pays the build (a fraction of a second), every later
process only the load.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from collections.abc import Callable, Iterator
from pathlib import Path
from types import SimpleNamespace

import numpy as np

#: ``-ffp-contract=off`` keeps every multiply and add separately rounded,
#: as numpy rounds them. No ``-march`` and no ``-ffast-math``: either
#: could change output bits.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_HERE = Path(__file__).resolve().parent
_PACKAGE_CACHE = _HERE / "__pycache__"
_BUILD_TIMEOUT_S = 120

#: The static archive a kernel links against, after its source and
#: before ``-lm``: ``surrogate.c`` calls numpy's own C distributions,
#: which numpy ships as ``random/lib/libnpyrandom.a`` for C extensions.
ARCHIVES: dict[str, Path] = {
    "surrogate": Path(np.__file__).resolve().parent / "random" / "lib" / "libnpyrandom.a",
}


def _compiler() -> list[str] | None:
    """The compile command's head: ``sysconfig``'s ``CC``, else ``cc``."""
    for command in (shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"]):
        if command and shutil.which(command[0]):
            return command
    return None


def _user_cache() -> Path:
    return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def _cache_dirs() -> Iterator[Path]:
    """Usable cache directories, package cache first; each is created
    only when the one before it did not serve. The per-user one must be
    ours and private, or a library another user planted in it would be
    loaded."""
    try:
        _PACKAGE_CACHE.mkdir(exist_ok=True)
    except OSError:
        pass
    else:
        yield _PACKAGE_CACHE
    private = _user_cache()
    try:
        private.mkdir(mode=0o700, exist_ok=True)
        info = private.lstat()
    except OSError:
        return
    if (
        stat.S_ISDIR(info.st_mode)
        and info.st_uid == os.getuid()
        and stat.S_IMODE(info.st_mode) & 0o077 == 0
    ):
        yield private


def _build(command: list[str], source: Path, link: list[str], target: Path) -> None:
    """Compile ``source`` to ``target`` through a temp file in its
    directory, linking ``link`` after it."""
    fd, temp = tempfile.mkstemp(prefix=f".{target.stem}-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*command, str(source), "-o", temp, *link],
            check=True,
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(temp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _cache_key(source: Path, command: list[str], archive: Path | None) -> str:
    """The hash naming a build: the source's bytes, the compile command,
    the platform and, for a kernel that links one, the archive's bytes
    (an upgraded numpy never loads a build of its old distributions)."""
    key = hashlib.sha256(source.read_bytes())
    key.update("\0".join([*command, sysconfig.get_platform(), platform.machine()]).encode())
    if archive is not None:
        key.update(archive.read_bytes())
    return key.hexdigest()[:16]


def _load_or_build(
    source: Path, command: list[str], archive: Path | None = None
) -> ctypes.CDLL | None:
    """The cached library, built first where it is missing or does not
    load; ``None`` when no cache directory can take a build."""
    key = _cache_key(source, command, archive)
    link = [] if archive is None else [str(archive), "-lm"]
    for directory in _cache_dirs():
        path = directory / f"{source.stem}-{key}.so"
        with contextlib.suppress(OSError):  # absent, or a truncated file: rebuild it
            return ctypes.CDLL(str(path))
        if os.access(directory, os.W_OK):
            _build(command, source, link, path)
            return ctypes.CDLL(str(path))
    return None


def load_library(name: str) -> ctypes.CDLL | None:
    """The compiled ``<name>.c`` of this package, or ``None``.

    ``None`` without a word when there is no compiler, or no archive
    that the kernel links (:data:`ARCHIVES`); ``None`` with one
    ``RuntimeWarning`` when a compiler exists but the library could not
    be built or loaded. Never raises.
    """
    compiler = _compiler()
    archive = ARCHIVES.get(name)
    if compiler is None or (archive is not None and not archive.is_file()):
        return None
    try:
        library = _load_or_build(_HERE / f"{name}.c", [*compiler, *CFLAGS], archive)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        failure = f"{exc} {detail}".strip()
    else:
        if library is not None:
            return library
        failure = "no writable cache directory"
    warnings.warn(
        f"could not build {name}.c with {shlex.join(compiler)} ({failure}); "
        "its Python fallback runs",
        RuntimeWarning,
        stacklevel=3,  # the kernel's call site, through kernel()
    )
    return None


_F64, _F32, _I64, _I8, _U8, _U32, _U64 = map(
    np.dtype, (np.float64, np.float32, np.int64, np.int8, np.uint8, np.uint32, np.uint64)
)
_SIZE, _REAL = ctypes.c_int64, ctypes.c_double

#: Every compiled kernel, by the stem of its source: the backend name of
#: the Python fallback that runs where the library cannot be had, and
#: each C function's ``(arguments, restype)``. An argument is a ctypes
#: scalar type, or the numpy dtype of an array: the C function takes
#: that as a raw ``void *``, which :func:`address` gives only for a
#: C-contiguous array of exactly that dtype.
KERNELS: dict[str, tuple[str, dict[str, tuple[list, type | None]]]] = {
    "trellis": ("numpy", {
        "trellis_forward": (
            [_F64, _SIZE, _SIZE, _F64, _F64, _F64, _REAL, _REAL, _U8, _F32, _F64, _F64], None,
        ),
        "trellis_traceback": ([_U8, _SIZE, _SIZE, _I64, _F64, _I64], ctypes.c_int),
    }),
    # align_chain: one mapped read's thinning, exact runs, lanes and
    # CIGAR merge; gotoh_fill: a list of lanes (align_global's).
    "gotoh": ("scalar", {
        "gotoh_fill": (
            [_U8, _I64, _I64, _U8, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _U8, _I64, _SIZE, _F64, _U8,
             _I64, _I64],
            None,
        ),
        "align_chain": (
            [_U8, _SIZE, _U8, _SIZE, _I64, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE,
             _U8, _I64, _SIZE, _I64],
            _SIZE,
        ),
    }),
    "chain": ("scalar", {
        "chain_read": (
            [_I64, _SIZE, _I64, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _REAL, _SIZE, _SIZE, _F64, _I64,
             _F64, _I64],
            _SIZE,
        ),
    }),
    "seed": ("numpy", {
        "seed_minimizers": ([_U8, _SIZE, _SIZE, _SIZE, _U64, _I64, _I8], _SIZE),
        "seed_anchors": (
            [_U8, _SIZE, _SIZE, _SIZE, _U64, _SIZE, _I64, _I64, _I8, _SIZE, _I64, _SIZE, _I64],
            _SIZE,
        ),
    }),
    "surrogate": ("numpy", {
        "surrogate_decode": (
            [_U8, _F64, _F64, _I64, _SIZE, _U32, _REAL, _REAL, _REAL, _REAL, _U8, _F64, _I64],
            _SIZE,
        ),
    }),
}  # fmt: skip


def _ctypes_data(array: np.ndarray) -> int:
    """``array``'s data pointer as numpy's ``ctypes`` interface gives it."""
    return array.ctypes.data


_POINTER_AT = ctypes.c_void_p.from_address
_DATA_OFFSET = object.__basicsize__


def _header_data(array: np.ndarray) -> int:
    """``array``'s data pointer read from the object itself: the
    ``PyArray_DATA`` field right after the ``PyObject`` header, at the
    address CPython's ``id`` gives. Only :func:`_header_agrees` may
    decide that this is sound."""
    return _POINTER_AT(id(array) + _DATA_OFFSET).value


def _header_agrees() -> bool:
    """Whether :func:`_header_data` reads what ``.ctypes.data`` does on
    every kind of probe array: owned, an offset view, read-only over
    ``bytes`` and zero-size. Off CPython ``id`` is no address, so
    nothing is read there."""
    if sys.implementation.name != "cpython":
        return False
    probes = (
        np.arange(4, dtype=np.float64),
        np.arange(8, dtype=np.int64)[3:],
        np.frombuffer(bytes(range(8)), dtype=np.uint8),
        np.zeros(0),
    )
    return all(_header_data(probe) == _ctypes_data(probe) for probe in probes)


#: How :func:`address` reads a data pointer: ``None`` until
#: :func:`kernel` first resolves a library, then :func:`_header_data`
#: where :func:`_header_agrees`, else :func:`_ctypes_data` (which also
#: serves while it is ``None``).
_READER: Callable[[np.ndarray], int] | None = None


def address(array: np.ndarray, dtype: np.dtype) -> int:
    """The address of ``array``'s data, for a C function's ``void *``:
    exactly ``array.ctypes.data``, read by :data:`_READER`.

    Refuses, with ``TypeError``, anything the C code would misread: an
    object that is not an ndarray, another dtype, or an array that is not
    C-contiguous (a strided view). These checks come before any read, so
    the header read only ever sees an ndarray. The caller must keep
    ``array`` alive until the C call returns: the integer does not.
    """
    if isinstance(array, np.ndarray) and array.dtype == dtype and array.flags.c_contiguous:
        return (_READER or _ctypes_data)(array)
    if isinstance(array, np.ndarray):
        got = f"a {array.dtype} array with strides {array.strides}"
    else:
        got = f"a {type(array).__name__}"
    raise TypeError(f"expected a C-contiguous {dtype} array, got {got}")


def bind(symbol: Callable, arguments: list) -> Callable:
    """``symbol`` taking arrays where ``arguments`` names a dtype: each
    goes through :func:`address` before the C function runs (the
    arguments tuple holds the arrays through the call)."""
    arrays = [(i, t) for i, t in enumerate(arguments) if isinstance(t, np.dtype)]

    def call(*args):
        if len(args) != len(arguments):
            raise TypeError(f"{symbol.__name__} takes {len(arguments)} arguments, got {len(args)}")
        raw = list(args)
        for i, dtype in arrays:
            raw[i] = address(raw[i], dtype)
        return symbol(*raw)

    call.__name__ = symbol.__name__
    return call


#: Each kernel resolved so far in this process: its C functions, bound
#: by :func:`bind`, or ``None`` where its fallback runs.
_LOADED: dict[str, SimpleNamespace | None] = {}


def kernel(name: str) -> SimpleNamespace | None:
    """The compiled kernel ``name``'s C functions, each bound by
    :func:`bind` to its row of :data:`KERNELS`, or ``None`` (its
    fallback runs); resolved once per process. The first library
    resolved also picks :data:`_READER`, unless it was set before."""
    global _READER
    if name not in _LOADED:
        _, functions = KERNELS[name]
        library = load_library(name)
        bound = None
        if library is not None:
            if _READER is None:
                _READER = _header_data if _header_agrees() else _ctypes_data
            bound = SimpleNamespace()
            for function, (arguments, restype) in functions.items():
                symbol = getattr(library, function)
                symbol.argtypes = [
                    ctypes.c_void_p if isinstance(t, np.dtype) else t for t in arguments
                ]
                symbol.restype = restype
                setattr(bound, function, bind(symbol, arguments))
        _LOADED[name] = bound
    return _LOADED[name]


def backend(name: str) -> str:
    """``"native"`` when the compiled kernel ``name`` runs in this
    process, else its fallback's name (resolving it if nothing has yet)."""
    return KERNELS[name][0] if kernel(name) is None else "native"
