"""Traced launcher and span analysis.

Run as a script, this is a drop-in for ``python -m gatekeeper``: it wraps
the package's public functions at the names their callers look up (for
example ``gatekeeper.app.save`` and ``gatekeeper.engine.grants_for``),
runs one CLI invocation, and writes every span to a JSON file when the
process ends, including on ``SIGTERM``.  Nothing in ``src/`` carries a
timer; all wrapping happens here.

    python bench/tracer.py --spans out.json -- serve --store s.json --bind 127.0.0.1:8047

A span is (name, start ns, end ns, id, parent id, request id).  Spans of one
HTTP request share the id the client sent in ``X-Bench-Request``, a header
the program ignores.

Imported, the module turns span files into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

REQUEST_HEADER = "x-bench-request"

# Boundaries reported per operation: calls_per_op, ms_per_op and p50_ms.
BOUNDARIES = [
    "web.handle",
    "web.http_overhead",
    "app.resolve",
    "sessions.resolve",
    "app.lock_wait",
    "engine.decide",
    "engine.visible_menu",
    "model.lookup",
    "sessions.login",
    "credentials.verify_secret",
    "credentials.make_digest",
    "directory.mutate",
    "sessions.prune_expired_sessions",
    "store.save",
    "store.validate_document",
    "store.serialize_document",
    "os.fsync",
    "store.audit_append",
    "store.audit_events",
    "store.audit_query",
    "store.load",
    "store.document_from_wire",
    "cli.execute",
    "cli.interpreter",
]

# Gatekeeper methods that take the writer lock; their self time is the
# lock-wait estimate.
_LOCKING_METHODS = [
    "resolve", "login", "logout", "change_password", "recover_begin", "recover_complete",
    "create_user", "self_register", "set_role", "set_status", "grant_special", "revoke_grant",
    "add_resource", "check",
]

EXTRA_METRICS = {
    "app.lock_wait.p90_ms": "ms",
    "server.wchar_per_op": "B/op",
    "server.cpu_ms_per_op": "ms/op",
    "trace.ops_per_s": "ops/s",
    "trace.untraced_ops_per_s": "ops/s",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {}
    for boundary in BOUNDARIES:
        units[f"{boundary}.calls_per_op"] = "calls/op"
        units[f"{boundary}.ms_per_op"] = "ms/op"
        units[f"{boundary}.p50_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


# ---------------------------------------------------------------------------
# Recording (launcher side)


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = ""
        return local

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            local = self._state()
            span_id = next(self._ids)
            parent = local.stack[-1] if local.stack else 0
            local.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                local.stack.pop()
                self.spans.append((name, start, end, span_id, parent, local.request))

        traced.__wrapped__ = fn
        return traced

    def wrap_handle(self, fn):
        """``PolicyService.handle``: the request's id scopes every span under it."""
        inner = self.wrap("web.handle", fn)

        def handle(service, request):
            local = self._state()
            local.request = request.header(REQUEST_HEADER) or ""
            try:
                return inner(service, request)
            finally:
                local.request = ""

        return handle

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        import gatekeeper.app as app
        import gatekeeper.cli as cli
        import gatekeeper.credentials as credentials
        import gatekeeper.directory as directory
        import gatekeeper.engine as engine
        import gatekeeper.sessions as sessions
        import gatekeeper.store as store
        import gatekeeper.web as web

        web.PolicyService.handle = self.wrap_handle(web.PolicyService.handle)
        for method in _LOCKING_METHODS:
            self.patch(app.Gatekeeper, method, f"app.{method}")
        self.patch(sessions, "resolve", "sessions.resolve")
        self.patch(sessions, "login", "sessions.login")
        self.patch(sessions, "prune_expired_sessions", "sessions.prune_expired_sessions")
        # Not reported, but timed so their work is not counted as lock wait.
        for other in ("logout", "change_password", "recover_begin", "recover_complete"):
            self.patch(sessions, other, f"sessions.{other}")
        for mutation in ("create_user", "self_register", "set_role", "set_status", "grant_special",
                         "revoke_grant", "add_resource"):
            self.patch(directory, mutation, "directory.mutate")
        self.patch(app, "decide", "engine.decide")
        self.patch(engine, "decide", "engine.decide")  # the calls visible_menu makes
        self.patch(app, "visible_menu", "engine.visible_menu")
        for module, names in (
            (engine, ("find_resource", "grants_for")),
            (sessions, ("find_user", "find_session")),
            (app, ("find_user",)),
            (directory, ("find_user", "find_resource", "find_grant")),
        ):
            for lookup in names:
                self.patch(module, lookup, "model.lookup")
        self.patch(sessions, "verify_secret", "credentials.verify_secret")
        for module in (sessions, directory, credentials):
            self.patch(module, "make_digest", "credentials.make_digest")
        self.patch(app, "save", "store.save")
        self.patch(app, "load", "store.load")
        self.patch(store, "validate_document", "store.validate_document")
        self.patch(store, "serialize_document", "store.serialize_document")
        self.patch(store, "document_from_wire", "store.document_from_wire")
        self.patch(os, "fsync", "os.fsync")
        self.patch(store.FileAuditLog, "append", "store.audit_append")
        self.patch(store.FileAuditLog, "events", "store.audit_events")
        self.patch(store.AuditLog, "query", "store.audit_query")
        self.patch(cli, "execute", "cli.execute")

    def dump(self, path: Path, wchar: int) -> None:
        payload = {"pid": os.getpid(), "wchar": wchar, "spans": self.spans}
        Path(path).write_text(json.dumps(payload))


def _own_wchar() -> int:
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    return 0


def _stop(signum, frame):
    raise KeyboardInterrupt  # `gatekeeper serve` shuts down cleanly on this


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <gatekeeper arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = Path(argv[1]), argv[3:]
    recorder = Recorder()
    recorder.install()
    signal.signal(signal.SIGTERM, _stop)
    import gatekeeper.cli as cli

    execute = cli.execute
    if cli_argv[:1] == ["serve"]:
        execute = execute.__wrapped__  # a span as long as the server's life says nothing
    try:
        return execute(cli_argv)
    finally:
        recorder.dump(spans_path, _own_wchar())


# ---------------------------------------------------------------------------
# Analysis


def load_spans(paths: list[Path]) -> tuple[list[tuple], int]:
    """All spans from ``paths`` with ids made unique per file, and the
    bytes the traced processes wrote before dumping."""
    spans, wchar = [], 0
    for index, path in enumerate(paths):
        payload = json.loads(Path(path).read_text())
        wchar += payload["wchar"]
        for name, start, end, span_id, parent, request in payload["spans"]:
            spans.append((name, start, end, (index, span_id), (index, parent) if parent else None, request))
    return spans, wchar


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def analyze(spans: list[tuple], ops: int, client_ms: dict[str, float], cli_walls_ms: list[float]) -> dict:
    """Per-layer metrics from spans.

    ``ops`` is the number of client operations the spans served,
    ``client_ms`` maps request ids to client-side latency (HTTP), and
    ``cli_walls_ms`` lists the wall time of each traced CLI command in the
    order their span files were given.
    """
    child_ns: dict = {}
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)

    durations: dict[str, list[float]] = {name: [] for name in BOUNDARIES}
    lock_names = {f"app.{m}" for m in _LOCKING_METHODS}
    handle_ms: dict[str, float] = {}
    for name, start, end, span_id, _, request in spans:
        total_ms = (end - start) / 1e6
        self_ms = total_ms - child_ns.get(span_id, 0) / 1e6
        if name == "web.handle":
            durations[name].append(self_ms)
            handle_ms[request] = total_ms
        elif name in lock_names:
            durations["app.lock_wait"].append(self_ms)
            if name == "app.resolve":
                durations[name].append(total_ms)
        elif name in durations:
            durations[name].append(total_ms)

    durations["web.http_overhead"] = [
        client_ms[request] - handle for request, handle in handle_ms.items() if request in client_ms
    ]
    durations["cli.interpreter"] = [wall - execute for wall, execute in zip(cli_walls_ms, durations["cli.execute"])]

    metrics = {}
    for name in BOUNDARIES:
        values = durations[name]
        metrics[f"{name}.calls_per_op"] = len(values) / ops
        metrics[f"{name}.ms_per_op"] = sum(values) / ops
        metrics[f"{name}.p50_ms"] = percentile(values, 50)
    metrics["app.lock_wait.p90_ms"] = percentile(durations["app.lock_wait"], 90)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
