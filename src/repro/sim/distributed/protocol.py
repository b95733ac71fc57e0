"""The ``repro.shard/v2`` wire protocol: framing, config, validation.

A distributed sweep is one coordinator (it owns the spec list and the
checkpoint journal) plus any number of workers (they own CPUs), talking
line-delimited JSON over TCP.  One message per line, UTF-8, ``repr``
-lossless floats via the shared :mod:`repro.sim.codec` payloads -- the
same encoding the checkpoint journal uses, so a result that crossed the
network is byte-for-byte the result a local sweep would have journaled.

Message flow (worker-initiated; the coordinator only ever replies):

========== ============================= ================================
direction  message                       reply
========== ============================= ================================
worker ->  ``hello`` (schema, token,     ``welcome`` (lease/heartbeat
           worker name, capacity)        intervals, telemetry switches)
                                         or ``error`` (then close)
worker ->  ``lease`` (max)               ``grant`` (state ``ok`` with
                                         leases / ``wait`` with a retry
                                         hint / ``complete``)
worker ->  ``result`` (index,            ``ack`` -- sent only after the
           fingerprint, attempt,         outcome is journaled and
           ok + result/telemetry         fsync'd, so a worker knows its
           payloads or failure)          work is durable
worker ->  ``heartbeat``                 *none* (fire-and-forget, so it
                                         can interleave with a pending
                                         request from another thread)
worker ->  ``bye``                       *none* (worker closes)
========== ============================= ================================

Leases are spec *fingerprints* (:func:`repro.sim.checkpoint
.spec_fingerprint`): content-addressed, so the worker re-derives the
fingerprint from the decoded spec and refuses a lease whose identity
does not match -- a corrupted spec can never silently run as the wrong
work.  Every lease carries a heartbeat-backed deadline; a worker that
stops heartbeating (killed, partitioned, wedged) forfeits its leases,
which requeue uncharged.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from repro.errors import ConfigError, ShardError

#: Version tag exchanged in every ``hello``/``welcome``; bumped on any
#: change to the message format.  A coordinator and worker from
#: different protocol versions refuse each other explicitly rather than
#: misparse each other silently.
SHARD_SCHEMA = "repro.shard/v2"


@dataclass(frozen=True)
class ClusterConfig:
    """One distributed sweep's endpoint and liveness tuning.

    The same object configures both sides: the coordinator binds
    ``host:port`` (``port=0`` binds an ephemeral port -- useful for
    tests; :meth:`~repro.sim.distributed.ShardCoordinator.start`
    reports the real one), workers connect to it.  ``token`` is the
    shared secret workers must present in ``hello``; it is compared
    constant-time and never logged.

    ``lease_seconds`` is how long a lease survives without a heartbeat;
    ``heartbeat_seconds`` is how often workers send one (validated
    strictly smaller, or a healthy worker would flap); ``poll_seconds``
    is how long an idle worker waits between ``lease`` requests when
    the coordinator answered ``wait``.
    """

    host: str
    port: int
    token: str
    lease_seconds: float = 30.0
    heartbeat_seconds: float = 5.0
    poll_seconds: float = 0.1

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host.strip():
            raise ConfigError(f"host must be a non-empty string, got {self.host!r}")
        if (
            isinstance(self.port, bool)
            or not isinstance(self.port, int)
            or not 0 <= self.port <= 65535
        ):
            raise ConfigError(
                f"port must be an int in [0, 65535], got {self.port!r}"
            )
        if not isinstance(self.token, str) or not self.token:
            raise ConfigError("token must be a non-empty string")
        if any(ch in self.token for ch in "\r\n"):
            # Messages are line-framed; a token with a newline could
            # never round-trip through hello.
            raise ConfigError("token must not contain newlines")
        if not self.lease_seconds > 0:
            raise ConfigError(
                f"lease_seconds must be positive, got {self.lease_seconds!r}"
            )
        if not 0 < self.heartbeat_seconds < self.lease_seconds:
            raise ConfigError(
                f"heartbeat_seconds must be in (0, lease_seconds), got "
                f"{self.heartbeat_seconds!r} (lease_seconds="
                f"{self.lease_seconds!r})"
            )
        if not self.poll_seconds > 0:
            raise ConfigError(
                f"poll_seconds must be positive, got {self.poll_seconds!r}"
            )


def parse_endpoint(endpoint: str, *, allow_ephemeral: bool = False) -> tuple[str, int]:
    """Split a ``host:port`` CLI argument, validating both halves.

    ``allow_ephemeral`` admits port 0 (coordinator bind: "pick a free
    port"); a worker connecting to port 0 is always a mistake.
    """
    if not isinstance(endpoint, str) or ":" not in endpoint:
        raise ConfigError(
            f"endpoint must look like HOST:PORT, got {endpoint!r}"
        )
    host, _, port_text = endpoint.rpartition(":")
    if not host.strip():
        raise ConfigError(f"endpoint {endpoint!r} has an empty host")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(
            f"endpoint {endpoint!r} has a non-integer port"
        ) from None
    low = 0 if allow_ephemeral else 1
    if not low <= port <= 65535:
        raise ConfigError(
            f"endpoint port must be in [{low}, 65535], got {port}"
        )
    return host, port


# -- line framing -------------------------------------------------------------
def write_message(
    wfile, message: dict, lock: threading.Lock | None = None
) -> None:
    """Write one message as a single JSON line (atomically under ``lock``).

    The lock matters on the worker, where the heartbeat thread and the
    request thread share one socket: interleaved partial lines would
    corrupt the stream.
    """
    line = json.dumps(message) + "\n"
    if lock is None:
        wfile.write(line)
        wfile.flush()
    else:
        with lock:
            wfile.write(line)
            wfile.flush()


def read_message(rfile) -> dict | None:
    """Read one message line; ``None`` on a clean EOF (peer went away)."""
    line = rfile.readline()
    if not line:
        return None
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ShardError(f"malformed shard message: {error}") from error
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ShardError("shard message must be an object with a 'type'")
    return message


def expect_message(rfile, expected: str) -> dict:
    """Read one message, requiring the given type.

    An ``error`` message from the peer is surfaced as a
    :class:`ShardError` carrying its reason; EOF and any other type are
    protocol errors.
    """
    message = read_message(rfile)
    if message is None:
        raise ShardError(
            f"connection closed while waiting for {expected!r}"
        )
    if message["type"] == "error":
        raise ShardError(
            f"peer rejected the request: {message.get('reason', 'unknown')}"
        )
    if message["type"] != expected:
        raise ShardError(
            f"expected a {expected!r} message, got {message['type']!r}"
        )
    return message
