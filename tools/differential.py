"""Byte-level differential run of two gatekeeper source trees.

    python3 tools/differential.py <tree-a> <tree-b>

Each tree is a checkout holding ``src/gatekeeper``.  Each runs the same fixed
list of cases in a child process with ``PYTHONPATH=<tree>/src``, no
``GATEKEEPER_*`` variable, and a fresh working directory, so every store path
is the same relative name on both sides.  The KDF runs at the tree's own
``DEFAULT_COST``.  ``os.urandom`` and ``secrets`` are seeded afresh from each
case's name, and every clock is fixed: CLI ``--now``, the engine's ``clock``,
and the HTTP ``Date`` header.

The cases are of four kinds:

- ``cli/...``, ``cli-kdf-env/...``, ``cli-refusal-order/...``,
  ``cli-unread-as/...`` and ``audit-file/...``: CLI invocations through
  ``cli.execute``, with and without ``--json``; outputs stdout, stderr and
  the exit code.  ``audit-file`` runs against an audit log with hand-written
  lines at its end (see ``AUDIT_FILE_LINES``);
- ``http/...``: requests through ``PolicyService.handle``; outputs status,
  headers and body;
- ``corrupt/...``: CLI commands against hand-broken store files;
- ``socket/...``: raw bytes sent to ``make_server`` over loopback; output the
  bytes it answers with up to the close.

Each scenario also outputs its store file and audit log as left at the end.
For each output that differs, one line gives the byte offset of the first
difference and the bytes around it on both sides.  Exit status 0 means every
output is byte-identical, 1 that some differ.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import secrets
import socket
import subprocess
import sys
import tempfile
import threading
import zlib
from datetime import datetime, timezone
from pathlib import Path

T0 = "2026-06-01T12:00:00Z"
NOW = datetime(2026, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
HTTP_DATE = "Mon, 01 Jun 2026 12:00:00 GMT"
CONTEXT_BYTES = 24

ADMIN = ["--as", "root", "--now", T0]

# (name, argv, extra environment); all share one store, in order.
CLI_CASES = [
    ("bootstrap", ["bootstrap", "root", "--password", "rootpass1", "--hint-question", "pet?", "--hint-answer", "rex",
                   "--now", T0], {}),
    ("bootstrap-again-json", ["bootstrap", "root2", "--password", "rootpass1", "--json", "--now", T0], {}),
    ("user-add", ["user", "add", "alice", "--role", "manager", "--password", "password1", "--hint-question",
                  "colour?", "--hint-answer", "Red ", *ADMIN], {}),
    ("user-add-json", ["user", "add", "bob", "--role", "staff", "--password", "password1", "--json", *ADMIN], {}),
    ("user-add-guest", ["user", "add", "gina", "--role", "guest", "--password", "password1", *ADMIN], {}),
    ("user-add-duplicate", ["user", "add", "ALICE", "--role", "staff", "--password", "password1", *ADMIN], {}),
    ("user-add-weak-password-json", ["user", "add", "carl", "--role", "staff", "--password", "short", "--json",
                                     *ADMIN], {}),
    ("user-add-wrong-admin-password", ["user", "add", "dave", "--role", "staff", "--password", "password1", *ADMIN],
     {"GATEKEEPER_PASSWORD": "wrong-password"}),
    ("user-list", ["user", "list", *ADMIN], {}),
    ("user-list-json", ["user", "list", "--role", "manager", "--json", *ADMIN], {}),
    ("resource-add", ["resource", "add", "monthly-report", "--class", "managerial", "--group", "manager-reports",
                      *ADMIN], {}),
    ("resource-add-json", ["resource", "add", "staff-handbook", "--name", "Staff Handbook", "--class", "general",
                           "--group", "staff-menu", "--description", "rules", "--json", *ADMIN], {}),
    ("resource-list", ["resource", "list", "--json", "--now", T0], {}),
    ("grant-add-json", ["grant", "add", "bob", "monthly-report", "--level", "read", "--expires",
                        "2026-07-01T00:00:00Z", "--json", *ADMIN], {}),
    ("grant-add-guest-write", ["grant", "add", "gina", "staff-handbook", "--level", "write", *ADMIN], {}),
    ("grant-list", ["grant", "list", *ADMIN], {}),
    ("check", ["check", "--user", "bob", "--resource", "monthly-report", "--level", "read", "--now", T0], {}),
    ("check-json-anonymous", ["check", "--resource", "monthly-report", "--level", "read", "--json", "--now", T0], {}),
    ("check-unknown-resource", ["check", "--resource", "nope", "--level", "read", "--now", T0], {}),
    ("menu", ["menu", "--user", "alice", "--now", T0], {}),
    ("menu-json", ["menu", "--user", "bob", "--json", "--now", T0], {}),
    ("menu-anonymous", ["menu", "--now", T0], {}),
    ("login", ["login", "alice", "--password", "password1", "--now", T0], {}),
    ("login-json", ["login", "bob", "--password", "password1", "--json", "--now", T0], {}),
    ("login-bad-password", ["login", "alice", "--password", "nope-nope", "--now", T0], {}),
    ("login-unknown-user-json", ["login", "ghost", "--password", "password1", "--json", "--now", T0], {}),
    ("passwd-change", ["passwd", "change", "--as", "bob", "--new-password", "password2", "--now", T0],
     {"GATEKEEPER_PASSWORD": "password1"}),
    ("recover-begin", ["passwd", "recover-begin", "alice", "--now", T0], {}),
    ("recover-complete-wrong", ["passwd", "recover-complete", "alice", "--answer", "blue", "--now", T0], {}),
    ("recover-complete-json", ["passwd", "recover-complete", "alice", "--answer", "red", "--json", "--now", T0], {}),
    ("user-set-role", ["user", "set-role", "bob", "--role", "manager", *ADMIN], {}),
    ("user-disable-json", ["user", "disable", "bob", "--json", *ADMIN], {}),
    ("user-enable", ["user", "enable", "bob", *ADMIN], {}),
    ("grant-revoke", ["grant", "revoke", "g1", *ADMIN], {}),
    ("grant-revoke-unknown-json", ["grant", "revoke", "g9", "--json", *ADMIN], {}),
    ("audit-tail", ["audit", "tail", "-n", "100", "--now", T0], {}),
    ("audit-tail-json-kind", ["audit", "tail", "--kind", "login_failed", "--json", "--now", T0], {}),
    ("usage-no-command", [], {}),
    ("usage-bad-now", ["menu", "--now", "yesterday"], {}),
    ("usage-missing-as", ["user", "list", "--now", T0], {}),
    ("usage-bad-bind", ["serve", "--bind", "nowhere"], {}),
]

# The removed $GATEKEEPER_KDF_COST, on a store of its own so that a tree which
# still reads it changes nothing the other cases see.
KDF_ENV_CASES = [
    ("bootstrap", ["bootstrap", "root", "--password", "rootpass1", "--now", T0], {}),
    ("user-add-cost-1", ["user", "add", "alice", "--role", "staff", "--password", "password1", *ADMIN],
     {"GATEKEEPER_KDF_COST": "1"}),
    ("menu-cost-0", ["menu", "--now", T0], {"GATEKEEPER_KDF_COST": "0"}),
]

# Requests that break two rules at once, on a store of their own: which
# refusal answers shows the order user creation checks its rules in.
REFUSAL_ORDER_CASES = [
    ("bootstrap-bad-id-weak-password", ["bootstrap", "no spaces", "--password", "short", "--json", "--now", T0], {}),
    ("bootstrap", ["bootstrap", "root", "--password", "rootpass1", "--now", T0], {}),
    ("user-add-taken-id-outsider", ["user", "add", "ROOT", "--role", "outsider", "--password", "password1", "--json",
                                    *ADMIN], {}),
    ("user-add-taken-id-at-cap", ["user", "add", "root", "--role", "administrator", "--password", "password1",
                                  *ADMIN], {}),
]

# ``--as`` on commands that log no user in, on a store of its own: a tree
# that accepts and ignores it answers, and audits, as someone else.
UNREAD_AS_CASES = [
    ("bootstrap", ["bootstrap", "root", "--password", "rootpass1", "--now", T0], {}),
    ("user-add", ["user", "add", "alice", "--role", "manager", "--password", "password1", *ADMIN], {}),
    ("resource-add", ["resource", "add", "rep", "--class", "managerial", "--group", "manager-reports", *ADMIN], {}),
    ("check-as", ["check", "--as", "alice", "--resource", "rep", "--level", "read", "--now", T0], {}),
    ("menu-as", ["menu", "--as", "alice", "--json", "--now", T0], {}),
    ("audit-tail-as", ["audit", "tail", "--as", "nobody", "--now", T0], {}),
]

# Lines written by hand at the end of a site's audit log, after its last
# numbered line: an event longer than 64 KiB, a line whose ``seq`` counts but
# which does not decode (detail values must be strings), and a tail torn
# mid-write.  ``{seq}`` is the log's next number.
AUDIT_FILE_LINES = (
    '{{"actor": "root", "at": "{at}", "detail": {{"text": "{text}"}}, "kind": "note", "seq": {seq}}}\n'
    '{{"actor": "root", "at": "{at}", "detail": {{"n": 1}}, "kind": "note", "seq": {skipped}}}\n'
    '{{"actor": "root", "at": "2026-'
)

# Read the log back, write one line after it, read it again; all share one store.
AUDIT_FILE_CASES = [
    ("audit-tail-3", ["audit", "tail", "-n", "3", "--now", T0], {}),
    ("audit-tail-json-kind", ["audit", "tail", "--json", "--kind", "note", "--now", T0], {}),
    ("user-add", ["user", "add", "bea", "--role", "staff", "--password", "password1", *ADMIN], {}),
    ("audit-tail", ["audit", "tail", "--now", T0], {}),
]

# (name, method, target, body or None, authenticated as root)
HTTP_CASES = [
    ("menu-anonymous", "GET", "/api/menu", None, False),
    ("login-bad-password", "POST", "/api/login", {"user_id": "root", "password": "wrong-password"}, False),
    ("login-unknown-user", "POST", "/api/login", {"user_id": "ghost", "password": "rootpass1"}, False),
    ("login-bad-json", "POST", "/api/login", b"{not json", False),
    ("create-user", "POST", "/api/admin/users", {"user_id": "carol", "password": "password1", "role": "manager",
                                                  "hint_question": "colour?", "hint_answer": "red"}, True),
    ("create-user-duplicate", "POST", "/api/admin/users", {"user_id": "Carol", "password": "password1",
                                                            "role": "staff"}, True),
    ("create-user-anonymous", "POST", "/api/admin/users", {"user_id": "eve", "password": "password1",
                                                            "role": "staff"}, False),
    ("list-users", "GET", "/api/admin/users?role=manager", None, True),
    ("create-grant", "POST", "/api/admin/grants", {"user_id": "carol", "resource_id": "staff-handbook",
                                                   "level": "write", "expiry": "2026-07-01T00:00:00Z"}, True),
    ("check-anonymous-denied", "GET", "/api/check?resource=monthly-report&level=read", None, False),
    ("check-root", "GET", "/api/check?resource=monthly-report&level=write", None, True),
    ("check-bad-level", "GET", "/api/check?resource=monthly-report&level=sudo", None, True),
    ("page-denied", "GET", "/api/pages/monthly-report", None, False),
    ("page-allowed", "GET", "/api/pages/monthly-report", None, True),
    ("patch-user", "PATCH", "/api/admin/users/carol", {"role": "staff", "status": "disabled"}, True),
    ("delete-grant", "DELETE", "/api/admin/grants/g1", None, True),
    ("register-disabled", "POST", "/api/register", {"user_id": "walkin", "password": "password1"}, False),
    ("recover-begin", "POST", "/api/password/recover", {"user_id": "root"}, False),
    ("recover-complete-wrong", "POST", "/api/password/recover/complete", {"user_id": "root", "hint_answer": "cat"},
     False),
    ("audit", "GET", "/api/admin/audit?limit=5&kind=login_failed", None, True),
    ("audit-bad-limit", "GET", "/api/admin/audit?limit=-1", None, True),
    ("audit-limit-arabic-indic-digit", "GET", "/api/admin/audit?limit=%D9%A3", None, True),
    ("audit-limit-word", "GET", "/api/admin/audit?limit=abc", None, True),
    ("create-grant-unknown-field", "POST", "/api/admin/grants", {"user_id": "carol", "resource_id": "monthly-report",
                                                                 "level": "read", "expires": "2026-07-01T00:00:00Z"},
     True),
    ("patch-user-unknown-field", "PATCH", "/api/admin/users/carol", {"role": "manager", "stauts": "active"}, True),
    ("unknown-route", "GET", "/api/nowhere", None, False),
    ("wrong-method", "DELETE", "/api/menu", None, False),
    ("password-change", "POST", "/api/password/change", {"old_password": "rootpass1",
                                                         "new_password": "rootpass2"}, True),
    ("logout", "POST", "/api/logout", None, True),
    ("menu-after-logout", "GET", "/api/menu", None, True),
]


def _edit(*path, value):
    """A corruption that sets one field of the valid store's JSON."""
    def corrupt(valid: bytes) -> bytes:
        wire = json.loads(valid)
        *parents, key = path
        target = wire
        for step in parents:
            target = target[step]
        target[key] = value
        return json.dumps(wire, sort_keys=True, indent=2).encode()
    return corrupt


# (name, valid store bytes -> corrupt bytes, CLI argv run against them)
CORRUPT_CASES = [
    ("unknown-alg", _edit("users", 1, "password_digest", "alg", value="bcrypt"), ["menu"]),
    ("unknown-alg-login", _edit("users", 1, "password_digest", "alg", value="bcrypt"),
     ["login", "alice", "--password", "x"]),
    ("short-salt", _edit("users", 1, "hint_answer_digest", "salt", value="c2hvcnQ="), ["menu"]),
    ("zero-cost", _edit("users", 0, "password_digest", "cost", value=0), ["menu"]),
    ("unknown-role", _edit("users", 1, "role", value="wizard"), ["menu"]),
    ("no-admin", _edit("users", 0, "role", value="staff"), ["menu"]),
    ("version-2", _edit("version", value=2), ["menu"]),
    ("version-string", _edit("version", value="1"), ["menu"]),
    ("users-not-a-list", _edit("users", value={}), ["menu"]),
    ("truncated", lambda valid: valid[: len(valid) // 2], ["menu"]),
    ("trailing-garbage", lambda valid: valid + b"}", ["menu"]),
    ("empty", lambda valid: b"", ["menu"]),
    ("not-utf8", lambda valid: b"\xff\xfe{}", ["menu"]),
    ("deep-nesting", lambda valid: b"[" * 100_000, ["menu"]),
    ("unknown-grant-key", _edit("grants", value=[{
        "expires": None, "grant_id": "g1", "user_id": "alice", "resource_id": "monthly-report", "level": "read",
        "granted_by": "root", "granted_at": T0}]), ["menu"]),
    ("unknown-config-key", _edit("config", "log_denial", value=False), ["menu"]),
]

SOCKET_CASES = [
    ("get-menu", b"GET /api/menu HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    ("keep-alive-pair", b"GET /api/menu HTTP/1.1\r\nHost: x\r\n\r\nGET /api/check?resource=monthly-report&level=read "
                        b"HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    ("login", b'POST /api/login HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 44\r\n\r\n'
              b'{"user_id": "root", "password": "rootpass1"}'),
    ("head-refused", b"HEAD /api/menu HTTP/1.1\r\nHost: x\r\n\r\n"),
    ("http-0.9", b"GET /api/menu\r\n\r\n"),
    # Refused requests carry no body: the server closes without reading one.
    ("content-length-word", b"POST /api/login HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"),
    ("content-length-negative", b"POST /api/login HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n"),
    ("content-length-over-cap", b"POST /api/login HTTP/1.1\r\nHost: x\r\nContent-Length: 9999999\r\n\r\n"),
    ("transfer-encoding", b"POST /api/login HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"),
    # A repeated header is refused before any body is read.  Were the first
    # Content-Length believed, the rest of this body would be read as a second
    # request.  No request here changes the store, whether refused or answered.
    ("content-length-repeated", b"POST /api/login HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
                                b"Content-Length: 63\r\n\r\n"
                                b"{}GET /api/admin/users HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    ("authorization-repeated", b"GET /api/menu HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer one\r\n"
                               b"Authorization: Bearer two\r\nConnection: close\r\n\r\n"),
    ("malformed-request-line", b"GARBAGE\r\n\r\n"),
    ("bad-version", b"GET /api/menu HTTP/9.9\r\nHost: x\r\n\r\n"),
    # A header line the stdlib does not read whole hides this Content-Length.
    ("whitespace-before-colon", b"POST /api/logout HTTP/1.1\r\nHost: x\r\nContent-Length : 61\r\n\r\n"
                                b"GET /api/admin/users HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    ("obs-fold", b"POST /api/logout HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n Content-Length: 61\r\n\r\n"
                 b"GET /api/admin/users HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
]


# ---------------------------------------------------------------------------
# Child side: run every case in the current directory


@contextlib.contextmanager
def seeded(name: str):
    """Seed ``os.urandom`` and the ``secrets`` functions the package uses from
    ``name``; restore them on exit."""
    rng = random.Random(zlib.crc32(name.encode()))
    saved = os.urandom, secrets.token_bytes, secrets.choice
    os.urandom = rng.randbytes
    secrets.token_bytes = lambda nbytes=None: rng.randbytes(32 if nbytes is None else nbytes)
    secrets.choice = rng.choice
    try:
        yield
    finally:
        os.urandom, secrets.token_bytes, secrets.choice = saved


def _cli(outputs: dict, prefix: str, argv: list[str], env: dict) -> int:
    from gatekeeper.cli import execute

    out, err = io.StringIO(), io.StringIO()
    with seeded(prefix):
        code = execute(argv, env, stdout=out, stderr=err)
    outputs[f"{prefix}/stdout"] = out.getvalue().encode()
    outputs[f"{prefix}/stderr"] = err.getvalue().encode()
    outputs[f"{prefix}/exit"] = str(code).encode()
    return code


def _files(outputs: dict, prefix: str, store: str) -> None:
    for label, path in (("store", Path(store)), ("audit", Path(store).with_suffix(".audit.jsonl"))):
        outputs[f"{prefix}/{label}"] = path.read_bytes() if path.exists() else b"(absent)"


def _cli_scenario(outputs: dict, scenario: str, cases: list, store: str) -> None:
    base = {"GATEKEEPER_STORE": store, "GATEKEEPER_PASSWORD": "rootpass1"}
    for name, argv, env in cases:
        _cli(outputs, f"{scenario}/{name}", argv, {**base, **env})
    _files(outputs, scenario, store)


def _site(store: str) -> None:
    """A store with an administrator and two resources, made through the CLI."""
    env = {"GATEKEEPER_STORE": store, "GATEKEEPER_PASSWORD": "rootpass1"}
    for step, argv in enumerate((
        ["bootstrap", "root", "--password", "rootpass1", "--hint-question", "pet?", "--hint-answer", "rex",
         "--now", T0],
        ["resource", "add", "monthly-report", "--class", "managerial", "--group", "manager-reports", *ADMIN],
        ["resource", "add", "staff-handbook", "--class", "general", "--group", "staff-menu", *ADMIN],
        ["user", "add", "alice", "--role", "manager", "--password", "password1", *ADMIN],
    )):
        outputs: dict = {}
        if _cli(outputs, f"{store}/{step}", argv, env):
            raise SystemExit(f"could not build {store}: {outputs}")


def _audit_file_scenario(outputs: dict) -> None:
    store = "audit-file.json"
    _site(store)
    audit = Path(store).with_suffix(".audit.jsonl")
    seq = json.loads(audit.read_bytes().splitlines()[-1])["seq"] + 1
    with audit.open("a") as handle:
        handle.write(AUDIT_FILE_LINES.format(at=T0, text="x" * 70_000, seq=seq, skipped=seq + 1))
    _cli_scenario(outputs, "audit-file", AUDIT_FILE_CASES, store)


def _http_scenario(outputs: dict) -> None:
    from gatekeeper.app import Gatekeeper
    from gatekeeper.web import HttpRequest, PolicyService

    store = "http.json"
    _site(store)
    gk = Gatekeeper.open(store, clock=lambda: NOW)
    service = PolicyService(gk)
    with seeded("http/login"):
        token = json.loads(service.handle(HttpRequest.make(
            "POST", "/api/login", body=b'{"user_id": "root", "password": "rootpass1"}')).body)["token"]
    for name, method, target, body, as_root in HTTP_CASES:
        headers = {"Authorization": f"Bearer {token}"} if as_root else {}
        raw = body if isinstance(body, bytes) else b"" if body is None else json.dumps(body).encode()
        with seeded(f"http/{name}"):
            response = service.handle(HttpRequest.make(method, target, headers, raw))
        outputs[f"http/{name}/status"] = str(response.status).encode()
        outputs[f"http/{name}/headers"] = json.dumps(response.headers, sort_keys=True).encode()
        outputs[f"http/{name}/body"] = response.body
    gk.persist_slides()
    _files(outputs, "http", store)


def _corrupt_scenario(outputs: dict) -> None:
    _site("valid.json")
    valid = Path("valid.json").read_bytes()
    for name, corrupt, argv in CORRUPT_CASES:
        Path("corrupt.json").write_bytes(corrupt(valid))
        _cli(outputs, f"corrupt/{name}", [*argv, "--store", "corrupt.json", "--now", T0], {})


def _exchange(port: int, request: bytes) -> bytes:
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(request)
        try:
            while chunk := conn.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            chunks.append(b"(reset)")
    return b"".join(chunks)


def _socket_scenario(outputs: dict) -> None:
    from http.server import BaseHTTPRequestHandler

    from gatekeeper.app import Gatekeeper
    from gatekeeper.web import make_server

    store = "socket.json"
    _site(store)
    gk = Gatekeeper.open(store, clock=lambda: NOW)
    server = make_server(gk, "127.0.0.1", 0)
    saved_date = BaseHTTPRequestHandler.date_time_string
    BaseHTTPRequestHandler.date_time_string = lambda self, timestamp=None: HTTP_DATE
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        for name, request in SOCKET_CASES:
            with seeded(f"socket/{name}"):
                outputs[f"socket/{name}/response"] = _exchange(server.server_address[1], request)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        BaseHTTPRequestHandler.date_time_string = saved_date
    gk.persist_slides()
    _files(outputs, "socket", store)


def run_cases() -> dict[str, bytes]:
    """Every case's outputs, by name, run in the current directory."""
    outputs: dict[str, bytes] = {}
    _cli_scenario(outputs, "cli", CLI_CASES, "cli.json")
    _cli_scenario(outputs, "cli-kdf-env", KDF_ENV_CASES, "kdf.json")
    _cli_scenario(outputs, "cli-refusal-order", REFUSAL_ORDER_CASES, "order.json")
    _cli_scenario(outputs, "cli-unread-as", UNREAD_AS_CASES, "unread-as.json")
    _audit_file_scenario(outputs)
    _http_scenario(outputs)
    _corrupt_scenario(outputs)
    _socket_scenario(outputs)
    return outputs


# ---------------------------------------------------------------------------
# Parent side: run both trees and compare


def run_tree(tree: Path) -> dict[str, bytes]:
    if not (tree / "src" / "gatekeeper").is_dir():
        raise SystemExit(f"{tree} has no src/gatekeeper")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GATEKEEPER_")}
    env.update(PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="differential-") as workdir:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"], cwd=workdir, env=env,
                              capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"the cases failed to run on {tree} (exit {done.returncode}):\n{done.stderr[-3000:]}")
    return {key: value.encode("latin-1") for key, value in json.loads(done.stdout).items()}


def first_difference(a: bytes, b: bytes) -> int | None:
    """The offset of the first byte where ``a`` and ``b`` differ (the shorter
    one's length when one is a prefix of the other), or None when equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """One line per output that differs, in case order, then a summary line."""
    lines = []
    keys = list(a) + [key for key in b if key not in a]
    for key in keys:
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'b' if key not in a else 'a'}")
            continue
        at = first_difference(a[key], b[key])
        if at is not None:
            window = slice(max(0, at - CONTEXT_BYTES), at + CONTEXT_BYTES)
            lines.append(f"{key}: first difference at byte {at}: a={a[key][window]!r} b={b[key][window]!r}")
    lines.append(f"{len(keys) - len(lines)} of {len(keys)} outputs byte-identical")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("tree_a", nargs="?", type=Path)
    parser.add_argument("tree_b", nargs="?", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps({key: value.decode("latin-1") for key, value in run_cases().items()}))
        return 0
    if args.tree_a is None or args.tree_b is None:
        parser.error("two source trees are required")
    lines = compare(run_tree(args.tree_a), run_tree(args.tree_b))
    print("\n".join(lines))
    return 0 if len(lines) == 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
