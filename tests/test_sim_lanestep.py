"""The compiled lane step: its build cache and its fallback.

:mod:`repro.sim.lanestep` builds ``lanestep.c`` once per source hash
into its package's ``__pycache__`` and loads it; where that fails, the
lane kernel takes the stacked numpy form, with the same bits.  These
tests build into temporary directories (the loader pointed at a copy
of its source), run a second process against a built library with no
compiler on ``PATH``, and hold runs under a failed build, and cache
entries written by either form, to the compiled form's results.

``pytest --no-compiled-step`` (``tests/conftest.py``) runs the suites
as on a host without the library; the parity suites run both ways in
CI, and :func:`test_kernel_takes_the_compiled_form_where_a_compiler_exists`
keeps a green CI from resting on the fallback alone.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dtm.policies import make_policy
from repro.power.leakage import LeakageModel
from repro.sim import batch, lanestep
from repro.sim.batch import BatchEngine
from repro.sim.fast import FastEngine
from repro.sim.parallel import WorkSpec, run_specs
from repro.sim.stage import STAGE_ROWS, SampleStage
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import get_profile
from tests.test_sim_stage import assert_results_equal, assert_telemetry_equal

COMPILER = shutil.which("gcc") or shutil.which("cc")

requires_compiler = pytest.mark.skipif(
    COMPILER is None, reason="no C compiler on PATH"
)

#: The directory ``repro`` imports from, for a second process.
SOURCE_ROOT = Path(lanestep.__file__).resolve().parents[2]


def _own_source(tmp_path, monkeypatch) -> Path:
    """Point the loader at a copy of its source under ``tmp_path`` and
    forget its process-wide kernel; returns the library directory."""
    package = tmp_path / "package"
    package.mkdir()
    source = package / "lanestep.c"
    shutil.copy(lanestep.SOURCE, source)
    monkeypatch.setattr(lanestep, "SOURCE", source)
    monkeypatch.setattr(lanestep, "_kernel", lanestep._UNSET)
    return package / "__pycache__"


def _no_compiler(tmp_path, monkeypatch, script=None) -> None:
    """``PATH`` holds no compiler, or ``gcc``/``cc`` that run ``script``."""
    directory = tmp_path / "bin"
    directory.mkdir()
    if script is not None:
        for name in ("gcc", "cc"):
            path = directory / name
            path.write_text(f"#!/bin/sh\n{script}\n")
            path.chmod(0o755)
    monkeypatch.setenv("PATH", str(directory))


def _forms(monkeypatch) -> list[str]:
    """The step forms the kernel builds from now on, by class name."""
    built: list[str] = []
    for name in ("_Stacked", "_Compiled"):
        base = getattr(batch, name)

        def spy(*args, _base=base, _name=name):
            built.append(_name)
            return _base(*args)

        monkeypatch.setattr(batch, name, spy)
    return built


def _engine(benchmark, policy, seed, **kwargs):
    floorplan = Floorplan.default()
    return FastEngine(
        get_profile(benchmark),
        policy=make_policy(policy, floorplan),
        floorplan=floorplan,
        seed=seed,
        telemetry=Telemetry(),
        **kwargs,
    )


def _runs():
    """A lone run and a ragged three-lane batch (history, leakage and
    sensor placement among them), each lane with its telemetry."""
    lone = _engine("gcc", "pid", 1, record_history=True)
    lanes = [
        _engine("art", "toggle1", 2),
        _engine(
            "gzip", "pi", 3, record_history=True, leakage=LeakageModel()
        ),
        _engine("gcc", "pid", 4, monitored_blocks=("regfile", "int_exec")),
    ]
    results = [lone.run(400_000)] + BatchEngine(lanes).run(
        instructions=[150_000, 700_000, 400_000]
    )
    return results, [lone] + lanes


def _assert_runs_equal(got, want):
    (got_results, got_engines), (want_results, want_engines) = got, want
    for a, b in zip(got_results, want_results):
        assert_results_equal(a, b)
    for a, b in zip(got_engines, want_engines):
        assert_telemetry_equal(a.telemetry, b.telemetry)
        assert (
            a.thermal.temperatures.tobytes()
            == b.thermal.temperatures.tobytes()
        )


def test_kernel_takes_the_compiled_form_where_a_compiler_exists(
    request, monkeypatch
):
    """With a C compiler on ``PATH``, lone runs and batches step
    compiled: a CI run cannot pass on the fallback alone."""
    if request.config.getoption("--no-compiled-step"):
        pytest.skip("the compiled step is switched off for this run")
    if COMPILER is None:
        pytest.skip("no C compiler on PATH")
    assert lanestep.kernel() is not None
    built = _forms(monkeypatch)
    _runs()
    # The lone run, then the batch at k = 3, 2 and 1.
    assert built == ["_Compiled"] * 4


@requires_compiler
def test_second_process_loads_the_library_without_compiling(
    tmp_path, monkeypatch
):
    cache = _own_source(tmp_path, monkeypatch)
    assert lanestep.load() is not None
    library = lanestep.library_path()
    assert library.parent == cache
    stamp = library.stat().st_mtime_ns
    _no_compiler(tmp_path, monkeypatch)
    code = (
        "import sys; from pathlib import Path; "
        "from repro.sim import lanestep; "
        "lanestep.SOURCE = Path(sys.argv[1]); "
        "print(lanestep.kernel() is not None)"
    )
    second = subprocess.run(
        [sys.executable, "-c", code, str(lanestep.SOURCE)],
        env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert second.stdout.strip() == "True"
    assert library.stat().st_mtime_ns == stamp
    # Built under a temporary name and moved into place: nothing else.
    assert [path.name for path in cache.iterdir()] == [library.name]


@requires_compiler
def test_library_of_another_source_is_never_loaded(tmp_path, monkeypatch):
    _own_source(tmp_path, monkeypatch)
    assert lanestep.load() is not None
    old = lanestep.library_path()
    lanestep.SOURCE.write_text(
        lanestep.SOURCE.read_text() + "\n/* another source */\n"
    )
    new = lanestep.library_path()
    assert new != old
    # The old library under the new name: it carries the old hash.
    shutil.copy(old, new)
    path = os.environ["PATH"]
    _no_compiler(tmp_path, monkeypatch)
    assert lanestep.load() is None
    monkeypatch.setenv("PATH", path)
    assert lanestep.load() is not None
    marker = f"lanestep-hash:{lanestep.source_hash()}".encode()
    assert marker in new.read_bytes()


@requires_compiler
@pytest.mark.parametrize("failure", ["compiler", "directory"])
def test_failed_build_falls_back_with_the_same_results(
    tmp_path, monkeypatch, failure
):
    """A compiler that fails, or a library directory that cannot be
    made, leaves the kernel on the stacked form, whose runs equal the
    compiled form's: results, histories, telemetry, end states."""
    monkeypatch.setattr(lanestep, "_kernel", lanestep.load())
    assert lanestep.kernel() is not None
    compiled = _runs()
    cache = _own_source(tmp_path, monkeypatch)
    if failure == "compiler":
        _no_compiler(tmp_path, monkeypatch, script="exit 1")
    else:
        cache.write_text("a file where the directory should be")
    built = _forms(monkeypatch)
    fallback = _runs()
    assert lanestep.kernel() is None
    assert set(built) == {"_Stacked"}
    assert not cache.is_dir() or not list(cache.iterdir())
    _assert_runs_equal(fallback, compiled)


@requires_compiler
def test_cache_entries_replay_across_the_forms(tmp_path, monkeypatch):
    """A cache filled by the compiled form replays the fallback's
    results exactly, and one filled by the fallback the compiled
    form's."""
    specs = [
        WorkSpec("gcc", "pid", instructions=300_000, record_history=True),
        WorkSpec("art", "toggle1", instructions=200_000, seed=1),
        WorkSpec("gzip", "pi", instructions=250_000, seed=2),
    ]
    kernels = {"compiled": lanestep.load(), "fallback": None}
    fresh = {}
    for name, kernel in kernels.items():
        monkeypatch.setattr(lanestep, "_kernel", kernel)
        fresh[name] = run_specs(
            specs, jobs=1, batch=2, cache=str(tmp_path / name)
        )

    def no_runs(*args, **kwargs):
        raise AssertionError("a cached spec ran")

    monkeypatch.setattr(BatchEngine, "_run", no_runs)
    for filled, other in (("compiled", "fallback"), ("fallback", "compiled")):
        replayed = run_specs(
            specs, jobs=1, batch=2, cache=str(tmp_path / filled)
        )
        for got, want in zip(replayed, fresh[other]):
            assert_results_equal(got, want)


def test_step_arguments_reject_buffers_it_cannot_index():
    """The C step indexes raw buffers: a strided buffer or a sensed
    block past the row is refused before any pointer is taken."""
    engine = _engine("gcc", "pid", 0)
    stage = SampleStage([engine])
    blocks = len(engine.floorplan.names)
    kernel = SimpleNamespace(engines=[engine], group=None)
    live = [SimpleNamespace(engine=engine)]
    ratios = np.ones(1)
    strided = np.empty((STAGE_ROWS, 1, 2 * blocks))[:, :, ::2]
    with pytest.raises(ValueError, match="activity"):
        batch._Compiled(kernel, live, stage, strided, ratios)
    engine._monitored = np.array([blocks])
    activity = np.empty((STAGE_ROWS, 1, blocks))
    with pytest.raises(ValueError, match="out of range"):
        batch._Compiled(kernel, live, stage, activity, ratios)
