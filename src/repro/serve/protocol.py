"""Wire protocol of the always-on checking service.

The daemon (:mod:`repro.serve.server`) and its clients speak **line-delimited
JSON** over a local stream socket: every message is one JSON object encoded
as UTF-8 and terminated by ``"\\n"``.  The framing is deliberately the same
as the engine's JSONL result files — a served job's result stream *is* a
JSONL stream, just arriving over a socket instead of from a file — so the
tooling that post-processes ``results_path`` files (``jq``, dataframes,
the benchmarks' verdict-identity checks) works on captured job streams
unchanged.

Client → server messages carry an ``op`` key::

    {"op": "hello",  "client": "ci-fleet", "proto": 1}
    {"op": "submit", "units": [{"name": "a.c", "source": "..."}],
     "priority": 5, "checker": {"max_propagations": 4000000}}
    {"op": "cancel", "job": "job-3"}
    {"op": "status"}
    {"op": "ping"}
    {"op": "drain"}

Server → client messages carry a ``type`` key.  Operation replies
(``welcome``, ``accepted``, ``rejected``, ``cancel-ok``, ``status``,
``pong``, ``draining``, ``error``) answer the op that triggered them, in
order.  Job output arrives interleaved with replies as it is produced::

    {"type": "result", "job": "job-3", "record": { ... }}
    {"type": "job-done", "job": "job-3", "status": "ok"}

The ``record`` inside a ``result`` message reuses the
:mod:`repro.engine.sink` record schema **verbatim** — per-unit ``unit``
records exactly as :func:`repro.engine.sink.report_to_dict` builds them,
followed by one ``run`` summary record per job — so a client that appends
each ``record`` to a file reproduces what a batch engine run would have
written to ``results_path``.

Only plain JSON types cross the wire; sources travel as text and modules
are compiled inside the warm workers.  See docs/SERVE.md for the full
message tables.
"""

from __future__ import annotations

import dataclasses
import json
import socket
from typing import Dict, Optional, Sequence

from repro.core.checker import CheckerConfig
from repro.engine.workunit import WorkUnit

#: Protocol revision; bumped on incompatible message changes.
PROTOCOL_VERSION = 1

#: Hard bound on one framed line.  Generous — a submit message carries a
#: whole batch of sources — but finite, so a peer cannot exhaust server
#: memory by streaming bytes that never contain a newline.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Checker fields a job may override per submission.  A whitelist keeps the
#: wire surface reviewable: everything else comes from the server's default
#: checker configuration.
CHECKER_OVERRIDES = (
    "max_propagations",
    "incremental",
    "inline",
    "validate_witnesses",
    "witness_seed",
    "repair",
    "classify",
    "minimize_ub_sets",
)

#: Client → server operations.
OPS = ("hello", "submit", "cancel", "status", "metrics", "ping", "drain")

#: Server → client message types that answer one operation, in order.
REPLY_TYPES = ("welcome", "accepted", "rejected", "cancel-ok", "status",
               "metrics", "pong", "draining", "error")

#: Server → client message types that belong to a job stream.
STREAM_TYPES = ("result", "job-done")


class ProtocolError(Exception):
    """A malformed or out-of-protocol message."""


def encode(message: Dict[str, object]) -> bytes:
    """One message, framed: compact JSON plus the line terminator."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, object]:
    """Parse one received line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    return message


def unit_to_wire(unit: WorkUnit) -> Dict[str, object]:
    """Serialize one work unit for submission (source units only)."""
    if unit.source is None:
        raise ProtocolError(
            f"unit {unit.name!r}: only source units cross the wire; "
            "lowered IR modules must be checked through the engine API")
    payload: Dict[str, object] = {"name": unit.name, "source": unit.source}
    if unit.filename and unit.filename != f"{unit.name}.c":
        payload["filename"] = unit.filename
    if unit.meta:
        payload["meta"] = dict(unit.meta)
    return payload


def unit_from_wire(payload: Dict[str, object]) -> WorkUnit:
    """Rebuild a work unit from its wire form (validating as we go)."""
    if not isinstance(payload, dict):
        raise ProtocolError("unit payload is not an object")
    name = payload.get("name")
    source = payload.get("source")
    if not isinstance(name, str) or not name:
        raise ProtocolError("unit payload needs a non-empty 'name'")
    if not isinstance(source, str):
        raise ProtocolError(f"unit {name!r} needs a 'source' string")
    meta = payload.get("meta") or {}
    if not isinstance(meta, dict):
        raise ProtocolError(f"unit {name!r}: 'meta' must be an object")
    filename = payload.get("filename") or ""
    if not isinstance(filename, str):
        raise ProtocolError(f"unit {name!r}: 'filename' must be a string")
    return WorkUnit(name=name, source=source, filename=filename,
                    meta=dict(meta))


#: Expected value type per overridable field, derived from the defaults so
#: the whitelist cannot drift from :class:`CheckerConfig` itself.
_OVERRIDE_TYPES: Dict[str, type] = {
    config_field.name: type(getattr(CheckerConfig(), config_field.name))
    for config_field in dataclasses.fields(CheckerConfig)
    if config_field.name in CHECKER_OVERRIDES
}


def _check_override_value(key: str, value: object) -> object:
    """Validate one override's type at submit time (bad values must be a
    submission-time rejection, not an opaque per-unit worker failure)."""
    expected = _OVERRIDE_TYPES[key]
    if expected is bool:
        valid = isinstance(value, bool)
    elif expected is int:
        valid = isinstance(value, int) and not isinstance(value, bool)
    else:
        valid = isinstance(value, expected)
    if not valid:
        raise ProtocolError(
            f"checker override {key!r} must be {expected.__name__}, "
            f"got {type(value).__name__}")
    return value


def checker_from_wire(base: CheckerConfig,
                      overrides: Optional[Dict[str, object]]) -> CheckerConfig:
    """The server's default checker with a job's whitelisted overrides."""
    if not overrides:
        return base
    if not isinstance(overrides, dict):
        raise ProtocolError("'checker' must be an object")
    unknown = sorted(set(overrides) - set(CHECKER_OVERRIDES))
    if unknown:
        raise ProtocolError(
            f"checker overrides not allowed over the wire: {unknown}")
    checked = {key: _check_override_value(key, value)
               for key, value in overrides.items()}
    return dataclasses.replace(base, **checked)


def submit_message(units: Sequence[WorkUnit], priority: int = 0,
                   checker: Optional[Dict[str, object]] = None,
                   ) -> Dict[str, object]:
    """Build one ``submit`` operation for a batch of units."""
    message: Dict[str, object] = {
        "op": "submit",
        "units": [unit_to_wire(unit) for unit in units],
        "priority": int(priority),
    }
    if checker:
        message["checker"] = dict(checker)
    return message


class LineSocket:
    """Blocking line-framed JSON messaging over a connected socket.

    Used by the client and the server's per-connection reader; writes are
    atomic per message (one ``sendall``), reads buffer until a newline.
    A ``None`` return from :meth:`receive` means the peer closed the
    connection.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def send(self, message: Dict[str, object]) -> None:
        self._sock.sendall(encode(message))

    def receive(self) -> Optional[Dict[str, object]]:
        while True:
            while b"\n" not in self._buffer:
                if len(self._buffer) > MAX_LINE_BYTES:
                    # Unrecoverable framing state: the rest of the stream is
                    # the same oversized line.  Drop the connection.
                    self._buffer = b""
                    self.close()
                    raise ProtocolError(
                        f"line exceeds {MAX_LINE_BYTES} bytes")
                try:
                    chunk = self._sock.recv(65536)
                except (ConnectionResetError, BrokenPipeError, OSError):
                    return None
                if not chunk:
                    return None
                self._buffer += chunk
            line, self._buffer = self._buffer.split(b"\n", 1)
            if line.strip():                  # skip blank lines, iteratively
                return decode(line)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def require_op(message: Dict[str, object]) -> str:
    """Validate and return a client message's operation name."""
    op = message.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r}")
    return op


def error_message(reason: str, detail: str = "") -> Dict[str, object]:
    return {"type": "error", "reason": reason, "detail": detail}


__all__ = [
    "CHECKER_OVERRIDES",
    "LineSocket",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REPLY_TYPES",
    "STREAM_TYPES",
    "checker_from_wire",
    "decode",
    "encode",
    "error_message",
    "require_op",
    "submit_message",
    "unit_from_wire",
    "unit_to_wire",
]
