"""The one sweep configuration: SweepDefaults, its slot, resolve_sweep
and the shared CLI flag group."""

import argparse
from dataclasses import replace

import pytest

import repro.sim.parallel as parallel
from repro.__main__ import build_parser as build_repro_parser
from repro.__main__ import main as repro_main
from repro.errors import ConfigError
from repro.experiments.__main__ import build_parser as build_experiments_parser
from repro.experiments.__main__ import main as experiments_main
from repro.sim.distributed import ClusterConfig
from repro.sim.parallel import (
    SweepDefaults,
    SweepOptions,
    current_sweep_defaults,
    resolve_sweep,
    sweep_defaults,
)

SWEEP_FLAGS = (
    "--jobs", "--batch", "--retries", "--retry-backoff", "--timeout",
    "--checkpoint", "--resume", "--strict", "--cache", "--no-cache",
    "--cluster", "--token",
)


def _exit_code(main, argv) -> int:
    """The process exit code ``main(argv)`` would produce.

    A usage error is ``SystemExit(2)``; any other exception propagates,
    which is what a traceback (exit code 1) would be from the shell.
    """
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


class TestSlot:
    def test_context_manager_restores_on_return_and_on_error(self):
        before = current_sweep_defaults()
        installed = SweepDefaults(jobs=2, batch=4)
        with sweep_defaults(installed):
            assert current_sweep_defaults() is installed
        assert current_sweep_defaults() is before
        with pytest.raises(RuntimeError):
            with sweep_defaults(installed):
                raise RuntimeError("boom")
        assert current_sweep_defaults() is before

    def test_precedence_explicit_then_installed_then_builtin(self):
        options = SweepOptions(strict=True)
        assert resolve_sweep(cache=False) == parallel.ResolvedSweep(
            jobs=1, batch=1, options=None, cluster=None, cache=None
        )
        with sweep_defaults(SweepDefaults(jobs=3, batch=4, options=options)):
            sweep = resolve_sweep(cache=False)
            assert (sweep.jobs, sweep.batch, sweep.options) == (3, 4, options)
            sweep = resolve_sweep(jobs=2, batch=1, cache=False, tasks=1)
            assert (sweep.jobs, sweep.batch) == (1, 1)

    def test_rejects_non_defaults_and_bad_fields(self):
        with pytest.raises(ConfigError):
            with sweep_defaults({"jobs": 2}):
                pass
        with pytest.raises(ConfigError):
            SweepDefaults(options="strict")
        with pytest.raises(ConfigError):
            SweepDefaults(cluster="127.0.0.1:9")


OPTIONS = SweepOptions(strict=True)
CLUSTER = ClusterConfig("127.0.0.1", 9, "t")
INSTALLED = SweepDefaults(
    jobs=3, batch=4, options=OPTIONS, cluster=CLUSTER, cache=False
)
FORWARDERS = [
    # (name, arguments, return value, fields it changes in the slot)
    ("set_default_jobs", (5,), None, {"jobs": 5}),
    ("set_default_batch", (2,), None, {"batch": 2}),
    ("set_default_sweep_options", (None,), None, {"options": None}),
    ("set_default_cluster", (None,), None, {"cluster": None}),
    ("set_default_cache", (None,), None, {"cache": None}),
    ("get_default_jobs", (), 3, {}),
    ("get_default_batch", (), 4, {}),
    ("get_default_sweep_options", (), OPTIONS, {}),
    ("get_default_cluster", (), CLUSTER, {}),
    ("resolve_jobs", (None, 2), 2, {}),
]


def _field(name: str) -> str:
    """The SweepDefaults field the forwarder ``name`` read or wrote."""
    if name == "resolve_jobs":
        return "jobs"
    field = name.split("_default_")[1]
    return "options" if field == "sweep_options" else field


@pytest.mark.parametrize("name,args,returned,changes", FORWARDERS)
def test_deprecated_forwarder_warns_and_forwards(name, args, returned,
                                                 changes, monkeypatch):
    """Each deprecated forwarder is deleted from ``repro.sim.parallel``
    and ``repro.sim``; what its warning named in its place (install a
    SweepDefaults with sweep_defaults(), read it with resolve_sweep())
    still returns what it returned and makes the change it made."""
    import repro.sim

    assert not hasattr(parallel, name)
    assert not hasattr(repro.sim, name)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    field = _field(name)
    before = current_sweep_defaults()
    with sweep_defaults(INSTALLED):
        if name.startswith("set_"):
            (value,) = args
            installed = replace(current_sweep_defaults(), **{field: value})
            assert installed == replace(INSTALLED, **changes)
            with sweep_defaults(installed):
                assert getattr(resolve_sweep(), field) == value
        elif name == "resolve_jobs":
            jobs, tasks = args
            assert resolve_sweep(jobs, tasks=tasks).jobs == returned
        else:
            assert getattr(resolve_sweep(), field) == returned
        assert current_sweep_defaults() is INSTALLED
    assert current_sweep_defaults() is before


def test_get_default_cache_is_deleted():
    assert not hasattr(parallel, "get_default_cache")


def _sweep_actions(parser) -> dict:
    return {
        flag: (action.dest, action.default, action.nargs, action.const)
        for action in parser._actions
        for flag in action.option_strings
        if flag in SWEEP_FLAGS
    }


def test_compare_and_experiments_share_the_sweep_flags():
    _, subcommands = build_repro_parser()
    compare = _sweep_actions(subcommands["compare"])
    experiments = _sweep_actions(build_experiments_parser())
    assert sorted(compare) == sorted(SWEEP_FLAGS)
    assert compare == experiments


INVALID = [
    (["--jobs", "-1"], "got -1"),
    (["--batch", "0"], "got 0"),
    (["--retries", "-1"], "got -1"),
    (["--retries", "1", "--retry-backoff", "-1"], "got -1.0"),
    (["--timeout", "0"], "got 0.0"),
]
CLIS = {
    "compare": (repro_main, ["compare", "gzip", "--instructions", "1000"]),
    "work": (
        repro_main,
        ["work", "--connect", "127.0.0.1:9", "--token", "t"],
    ),
    "experiments": (experiments_main, ["table1_duality"]),
}


@pytest.mark.parametrize(
    "cli,flags,message",
    [
        (cli, flags, message)
        for cli in CLIS
        for flags, message in INVALID
        # work runs no sweep of its own: only --jobs/--batch apply.
        if cli != "work" or flags[0] in ("--jobs", "--batch")
    ],
)
def test_invalid_sweep_flag_is_a_usage_error(cli, flags, message, capsys):
    main, argv = CLIS[cli]
    assert _exit_code(main, argv + flags) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "main,argv",
    [
        (experiments_main, ["table1_duality"]),
        (repro_main, ["compare", "gzip", "--instructions", "1000"]),
        (repro_main, ["cache", "stats"]),
    ],
)
def test_bad_repro_cache_fails_at_start(main, argv, tmp_path, monkeypatch,
                                        capsys):
    not_a_directory = tmp_path / "cache-file"
    not_a_directory.write_text("")
    monkeypatch.setenv("REPRO_CACHE", str(not_a_directory))
    assert _exit_code(main, argv) == 2
    captured = capsys.readouterr()
    assert str(not_a_directory) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # nothing ran


def test_no_cache_overrides_a_bad_repro_cache(tmp_path, monkeypatch, capsys):
    not_a_directory = tmp_path / "cache-file"
    not_a_directory.write_text("")
    monkeypatch.setenv("REPRO_CACHE", str(not_a_directory))
    assert experiments_main(["table1_duality", "--no-cache"]) == 0
    assert "Thermal resistance" in capsys.readouterr().out


class TestExperimentsRestoreDefaults:
    ARGV = ["table1_duality", "--jobs", "2", "--batch", "4", "--no-cache"]

    def test_defaults_unchanged_after_main(self, tmp_path):
        before = current_sweep_defaults()
        argv = self.ARGV + ["--checkpoint", str(tmp_path / "j.jsonl")]
        assert experiments_main(argv) == 0
        assert current_sweep_defaults() is before

    def test_defaults_unchanged_after_a_failing_experiment(self, monkeypatch):
        import repro.experiments.table1_duality as experiment

        def fail():
            assert current_sweep_defaults().jobs == 2
            raise RuntimeError("experiment failed")

        monkeypatch.setattr(experiment, "run", fail)
        before = current_sweep_defaults()
        with pytest.raises(RuntimeError, match="experiment failed"):
            experiments_main(self.ARGV)
        assert current_sweep_defaults() is before


def test_parser_errors_name_the_subcommand(capsys):
    with pytest.raises(SystemExit):
        repro_main(["compare", "gzip", "--jobs", "-1"])
    assert "python -m repro compare: error:" in capsys.readouterr().err


def test_argparse_namespace_is_the_only_input():
    """Flags a parser does not declare keep their built-in values."""
    from repro.sim.flags import sweep_defaults_from_args

    parser = argparse.ArgumentParser()
    assert sweep_defaults_from_args(
        parser, argparse.Namespace()
    ) == SweepDefaults()
