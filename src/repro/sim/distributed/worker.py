"""The shard worker: lease specs, execute them locally, stream results.

A worker is deliberately thin.  All simulation goes through the exact
machinery a local sweep uses -- :func:`repro.sim.parallel
.execute_payloads`, which composes process-level ``jobs`` and
lane-level ``batch`` on the worker's own cores -- so a spec produces
the same bits no matter which machine ran it.  The worker's own logic
is only transport:

* connect and authenticate (``hello``/``welcome``), retrying while the
  coordinator is not up yet (so workers and coordinator can start in
  any order) and between sweeps (so one resident worker serves every
  ``run_suite`` an experiments driver issues);
* lease up to ``jobs x batch`` specs at a time, re-deriving each spec's
  fingerprint locally and refusing a lease whose content hash does not
  match its claimed identity;
* heartbeat from a side thread while executing, so a long-running
  lease is visibly alive and never expires under a healthy worker;
* stream one ``result`` per spec -- success or captured failure (an
  ``error`` or a worker ``crash``, charged to the spec that caused it),
  both through the shared ``repr``-lossless codec -- and wait for the
  coordinator's post-fsync ``ack``;
* treat a lost coordinator like a lost worker is treated on the other
  side: abandon the session and reconnect.  Whatever was mid-flight
  simply re-leases; runs are pure functions of their specs, so re-work
  is waste, never wrongness.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.config import TelemetryConfig
from repro.errors import ShardError
from repro.sim.checkpoint import spec_fingerprint
from repro.sim.codec import result_to_dict, spec_from_dict, telemetry_to_dict
from repro.sim.distributed.protocol import (
    SHARD_SCHEMA,
    ClusterConfig,
    expect_message,
    write_message,
)
from repro.sim.parallel import (
    _worker_telemetry_config,
    execute_payloads,
    resolve_batch,
    resolve_jobs,
)


def _default_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class _Heartbeat:
    """Send ``heartbeat`` lines on an interval from a daemon thread."""

    def __init__(self, wfile, lock: threading.Lock, interval: float) -> None:
        self._wfile = wfile
        self._lock = lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="shard-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                write_message(
                    self._wfile, {"type": "heartbeat"}, self._lock
                )
            except OSError:
                return  # connection is gone; the main loop will notice

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def _execute_session(
    rfile, wfile, write_lock, cluster, jobs, batch, capacity, stats
) -> bool:
    """One connected session: lease/execute/report until the sweep ends.

    Returns True when the coordinator reported the sweep complete
    (False never happens -- a lost connection raises instead).
    """
    welcome = expect_message(rfile, "welcome")
    if welcome.get("schema") != SHARD_SCHEMA:
        raise ShardError(
            f"coordinator speaks {welcome.get('schema')!r}, "
            f"not {SHARD_SCHEMA!r}"
        )
    heartbeat_seconds = float(
        welcome.get("heartbeat_seconds", cluster.heartbeat_seconds)
    )
    telemetry = welcome.get("telemetry") or {}
    config = (
        _worker_telemetry_config(
            TelemetryConfig(
                sample_latency=bool(telemetry.get("sample_latency", True))
            )
        )
        if telemetry.get("enabled")
        else None
    )
    while True:
        write_message(
            wfile, {"type": "lease", "max": capacity}, write_lock
        )
        grant = expect_message(rfile, "grant")
        state = grant.get("state")
        if state == "complete":
            return True
        if state == "wait":
            time.sleep(
                float(grant.get("retry_seconds", cluster.poll_seconds))
            )
            continue
        if state != "ok":
            raise ShardError(f"grant has unknown state {state!r}")
        leases = grant.get("leases") or []
        specs = []
        for lease in leases:
            spec = spec_from_dict(lease.get("spec"))
            if spec_fingerprint(spec) != lease.get("fingerprint"):
                raise ShardError(
                    "lease fingerprint does not match its spec content"
                )
            specs.append(spec)
        with _Heartbeat(wfile, write_lock, heartbeat_seconds):
            payloads = execute_payloads(
                specs, jobs=jobs, batch=batch, telemetry_config=config
            )
            for lease, payload in zip(leases, payloads):
                message = {
                    "type": "result",
                    "index": lease["index"],
                    "fingerprint": lease["fingerprint"],
                    "attempt": lease.get("attempt", 0),
                }
                if payload[0] == "ok":
                    _, result, local = payload
                    message["ok"] = True
                    message["result"] = result_to_dict(result)
                    message["telemetry"] = telemetry_to_dict(local)
                else:
                    kind, exc_type, error_message, tb = payload
                    message["ok"] = False
                    message["failure"] = {
                        "kind": kind,
                        "exc_type": exc_type,
                        "message": error_message,
                        "traceback": tb,
                    }
                    stats["failures"] += 1
                write_message(wfile, message, write_lock)
                expect_message(rfile, "ack")
                stats["executed"] += 1


def run_worker(
    cluster: ClusterConfig,
    jobs: int | None = None,
    batch: int | None = None,
    once: bool = False,
    idle_timeout: float | None = None,
    reconnect_seconds: float = 0.2,
    name: str | None = None,
) -> dict:
    """Serve a shard coordinator until told to stop; return run stats.

    Connects to ``cluster`` (retrying while no coordinator is
    listening), executes leases with local ``jobs``-process /
    ``batch``-lane parallelism, and reconnects after each completed
    sweep so one worker can serve a whole multi-sweep experiment run.
    ``once=True`` returns after the first completed sweep;
    ``idle_timeout`` bounds how long the worker keeps retrying with no
    coordinator answering (``None`` = forever, until a signal).
    Returns ``{"sweeps", "executed", "failures"}`` counters.

    Authentication and schema rejections raise
    :class:`~repro.errors.ShardError` immediately -- retrying a wrong
    token would never succeed.  Lost connections are retried: the
    coordinator requeues whatever this worker had leased.
    """
    if not isinstance(cluster, ClusterConfig):
        raise ShardError(f"cluster must be a ClusterConfig, got {cluster!r}")
    if idle_timeout is not None and not idle_timeout >= 0:
        raise ShardError(
            f"idle_timeout must be >= 0 or None, got {idle_timeout!r}"
        )
    worker_name = name if name else _default_name()
    # Resolve once against an unbounded task count: the clamp to the
    # actual lease size happens on the coordinator per grant.
    effective_jobs = resolve_jobs(jobs, 1 << 30)
    effective_batch = resolve_batch(batch)
    capacity = max(1, effective_jobs * effective_batch)
    stats = {"sweeps": 0, "executed": 0, "failures": 0}
    deadline = (
        None
        if idle_timeout is None
        else time.monotonic() + idle_timeout
    )
    while True:
        try:
            connection = socket.create_connection(
                (cluster.host, cluster.port)
            )
        except OSError:
            if deadline is not None and time.monotonic() >= deadline:
                return stats
            time.sleep(reconnect_seconds)
            continue
        executed_before = stats["executed"]
        completed = False
        try:
            rfile = connection.makefile("r", encoding="utf-8")
            wfile = connection.makefile("w", encoding="utf-8")
            write_lock = threading.Lock()
            write_message(
                wfile,
                {
                    "type": "hello",
                    "schema": SHARD_SCHEMA,
                    "token": cluster.token,
                    "worker": worker_name,
                    "capacity": capacity,
                },
                write_lock,
            )
            completed = _execute_session(
                rfile,
                wfile,
                write_lock,
                cluster,
                effective_jobs,
                effective_batch,
                capacity,
                stats,
            )
            try:
                write_message(wfile, {"type": "bye"}, write_lock)
            except OSError:
                pass
        except ShardError as error:
            reason = str(error)
            if "authentication" in reason or "schema" in reason or (
                "speaks" in reason
            ):
                raise
            # Anything else is a lost/garbled coordinator: reconnect.
        except (OSError, EOFError):
            pass  # coordinator went away mid-session: reconnect
        finally:
            try:
                connection.close()
            except OSError:
                pass
        if stats["executed"] > executed_before and deadline is not None:
            deadline = time.monotonic() + idle_timeout
        if completed:
            stats["sweeps"] += 1
            if once:
                return stats
            # The finished coordinator may linger; pause so the retry
            # loop does not spin against its "complete" answer.
            time.sleep(cluster.poll_seconds)
        else:
            time.sleep(reconnect_seconds)
        if deadline is not None and time.monotonic() >= deadline:
            return stats
