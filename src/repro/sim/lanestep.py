"""The compiled lane step: build, cache and load ``lanestep.c``.

The sample kernel (:mod:`repro.sim.batch`) steps independent lanes
through one C call per step, :func:`kernel`'s function, when the host
can build it; where it cannot, the kernel takes the stacked numpy
pass, whose bits the C step reproduces (see ``lanestep.c``).

The library is built once per source hash, on first use and never at
import, with the first C compiler on ``PATH`` (``gcc``, else ``cc``),
in a direct subprocess: no build tool is imported.  It goes to this
module's ``__pycache__`` as ``lanestep-<hash>.so``, written to a
temporary name and moved into place, so pool workers that build at
once cannot collide, and later processes load it without compiling.
A library is loaded only if it carries its name's hash.  A failed
build or load is remembered for the process: the kernel then falls
back for good, and results do not change.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
from pathlib import Path

import numpy as np

#: The C source, shipped with the package.
SOURCE = Path(__file__).with_name("lanestep.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps ``a * b + c`` two
#: roundings (no fused multiply-add), as numpy computes it; nothing
#: here may enable ``-ffast-math``.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-fast-math")

#: The loaded step, per process like the library it lives in: built
#: or loaded on the first :func:`kernel` call, ``None`` after a failure.
_UNSET = object()
_kernel = _UNSET


class LaneStep(ctypes.Structure):
    """The C step's arguments (``lane_step_t``): buffer addresses, the
    model's constants and the lane counts."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "activity", "ratios", "states", "steady", "chip", "powers",
            "scratch", "leakage", "leaky", "peaks", "resistance", "decay",
            "monitored", "offsets", "sensed",
        )
    ] + [
        (name, ctypes.c_double) for name in ("active", "idle", "count", "sink")
    ] + [(name, ctypes.c_long) for name in ("k", "n", "lanes")]


def arguments(arrays: dict, active, idle, sink, k):
    """A pointer to the C step's arguments for ``k`` live lanes.

    ``arrays`` maps each pointer field of :class:`LaneStep` to its
    array (``powers`` may be ``None``); the caller keeps them alive
    while the pointer is in use.  Raises :class:`ValueError` unless
    every array has the shape, dtype and C-contiguous layout the C
    step indexes, and every sensed block index is a block.
    """
    rows, lanes, n = arrays["steady"].shape
    shapes = dict(
        activity=(rows, lanes, n), ratios=(lanes,),
        states=(rows + 1, lanes, n), steady=(rows, lanes, n),
        chip=(rows, lanes), powers=(rows, lanes, n), scratch=(n,),
        leakage=(k, n), leaky=(k,), peaks=(n + 1,), resistance=(n,),
        decay=(n,), monitored=(len(arrays["monitored"]),),
        offsets=(k + 1,), sensed=(k,),
    )
    dtypes = dict(leaky=np.uint8, monitored=np.int64, offsets=np.int64)
    for name, shape in shapes.items():
        array = arrays[name]
        if array is None and name == "powers":
            continue
        if (
            array.shape != shape
            or array.dtype != dtypes.get(name, np.float64)
            or not array.flags.c_contiguous
        ):
            raise ValueError(f"compiled lane step: bad {name} array")
    monitored = arrays["monitored"]
    if not 0 < k <= lanes or (
        len(monitored) and not 0 <= monitored.min() <= monitored.max() < n
    ):
        raise ValueError("compiled lane step: lane or block out of range")
    return ctypes.pointer(LaneStep(
        **{
            name: None if arrays[name] is None else arrays[name].ctypes.data
            for name in shapes
        },
        active=active, idle=idle, count=float(n), sink=sink,
        k=k, n=n, lanes=lanes,
    ))


def kernel():
    """The C step ``lane_step(LaneStep *, step) -> status``, or ``None``
    where it cannot be built or loaded.  Built on the first call."""
    global _kernel
    if _kernel is _UNSET:
        _kernel = load()
    return _kernel


def source_hash() -> str:
    """Hash of the source, the flags and the machine the build targets."""
    import hashlib

    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(platform.machine().encode())
    return digest.hexdigest()[:16]


def library_path() -> Path:
    """Where the library for the current source hash lives."""
    return SOURCE.parent / "__pycache__" / f"lanestep-{source_hash()}.so"


def load():
    """Build the library unless a matching one is cached, then load it.

    Returns the step function, or ``None`` when no compiler is on
    ``PATH``, the build fails, the library's directory is not
    writable, or the library does not load.
    """
    try:
        digest = source_hash()
        path = library_path()
        if not _carries(path, digest) and not build(path, digest):
            return None
        library = ctypes.CDLL(str(path))
        library.lanestep_hash.restype = ctypes.c_char_p
        if library.lanestep_hash() != digest.encode():
            return None
    except OSError:
        return None
    step = library.lane_step
    step.argtypes = (ctypes.POINTER(LaneStep), ctypes.c_long)
    step.restype = ctypes.c_int
    return step


def _carries(path: Path, digest: str) -> bool:
    """Whether ``path`` is a library built from this hash's source."""
    try:
        return f"lanestep-hash:{digest}".encode() in path.read_bytes()
    except OSError:
        return False


def build(path: Path, digest: str) -> bool:
    """Compile the source to ``path``; ``False`` if that fails."""
    import subprocess
    import tempfile

    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return False
    partial = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(
            prefix=f"{path.stem}.", suffix=".tmp", dir=path.parent
        )
        os.close(handle)
        subprocess.run(
            [
                compiler, *FLAGS, f'-DLANESTEP_HASH="{digest}"',
                "-o", partial, str(SOURCE),
            ],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(partial, path)
        partial = None
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if partial is not None:
            try:
                os.unlink(partial)
            except OSError:
                pass
    return True
