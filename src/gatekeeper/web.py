"""HTTP policy service: a stateless-per-request JSON façade over the engine.

Every response body is a JSON object.  Authenticated endpoints take
``Authorization: Bearer <token>``; the token is resolved against the
directory on every request, so role changes and disables bite immediately.
Login and recovery failures are status- and byte-identical across their
internal causes.

Requests may be served concurrently.  Decisions, menus and bearer-token
resolves read the published snapshot, and mutations funnel through the
engine's single-writer lock.  A resolve slides its session's expiry in
memory, so a read-only request writes nothing to the store.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime
from email.errors import (FirstHeaderLineIsContinuationDefect, InvalidHeaderDefect,
                          MisplacedEnvelopeHeaderDefect, MissingHeaderBodySeparatorDefect)
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .app import Gatekeeper
from .directory import require_admin
from .engine import ANONYMOUS, Principal
from .errors import GatekeeperError, InvalidArgument, InvalidToken, UnknownResource
from .model import AccessLevel, Role, UserStatus, find_resource
from .store import parse_instant, to_wire
from .wire import _parse_count, decision_wire, menu_wire, public_user

#: Largest request body the socket server reads; longer ones get a 413.
MAX_BODY_BYTES = 1 << 20
#: Seconds a socket connection may stay idle, or stall mid-request, before it is closed.
IDLE_TIMEOUT_S = 30


@dataclass(frozen=True)
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    query: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def make(cls, method: str, target: str, headers: dict[str, str] | None = None, body: bytes = b"") -> "HttpRequest":
        parts = urlsplit(target)
        query = {k: v[0] for k, v in parse_qs(parts.query, keep_blank_values=True).items()}
        lowered = {k.lower(): v for k, v in (headers or {}).items()}
        return cls(method=method.upper(), path=parts.path, headers=lowered, query=query, body=body)

    def header(self, name: str) -> str | None:
        return self.headers.get(name.lower())


@dataclass(frozen=True)
class HttpResponse:
    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


def _respond(status: int, payload: dict) -> HttpResponse:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return HttpResponse(status=status, headers={"Content-Type": "application/json"}, body=body)


_PAGE_NOT_FOUND = {"error": "not_found", "message": "no such page"}


class PolicyService:
    """Routes HTTP requests onto one Gatekeeper instance."""

    def __init__(self, gatekeeper: Gatekeeper):
        self.gatekeeper = gatekeeper
        self._routes = [
            ("POST", re.compile(r"^/api/login$"), self._login),
            ("POST", re.compile(r"^/api/logout$"), self._logout),
            ("GET", re.compile(r"^/api/menu$"), self._menu),
            ("GET", re.compile(r"^/api/check$"), self._check),
            ("GET", re.compile(r"^/api/pages/(?P<resource_id>[^/]+)$"), self._page),
            ("POST", re.compile(r"^/api/register$"), self._register),
            ("POST", re.compile(r"^/api/password/change$"), self._password_change),
            ("POST", re.compile(r"^/api/password/recover$"), self._recover_begin),
            ("POST", re.compile(r"^/api/password/recover/complete$"), self._recover_complete),
            ("POST", re.compile(r"^/api/admin/users$"), self._admin_create_user),
            ("GET", re.compile(r"^/api/admin/users$"), self._admin_list_users),
            ("PATCH", re.compile(r"^/api/admin/users/(?P<user_id>[^/]+)$"), self._admin_patch_user),
            ("POST", re.compile(r"^/api/admin/grants$"), self._admin_create_grant),
            ("DELETE", re.compile(r"^/api/admin/grants/(?P<grant_id>[^/]+)$"), self._admin_delete_grant),
            ("GET", re.compile(r"^/api/admin/audit$"), self._admin_audit),
        ]

    # -- plumbing ----------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        matched_path = False
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if not match:
                continue
            matched_path = True
            if method != request.method:
                continue
            try:
                return handler(request, **match.groupdict())
            except GatekeeperError as exc:
                return _respond(exc.http_status, {"error": exc.code, "message": exc.message})
            except Exception:  # a handler bug must not break the JSON contract
                return _respond(500, {"error": "internal_error", "message": "internal server error"})
        if matched_path:
            return _respond(405, {"error": "method_not_allowed", "message": "method not allowed for this path"})
        return _respond(404, {"error": "not_found", "message": "no such endpoint"})

    def _body(self, request: HttpRequest, *fields: str) -> dict:
        """The request's JSON object, whose keys must be among ``fields``, the
        names its handler reads: a misspelt field is refused, not ignored."""
        if not request.body:
            return {}
        try:
            data = json.loads(request.body.decode("utf-8"))
        except (ValueError, RecursionError):  # bad UTF-8, bad JSON, or nesting too deep
            raise InvalidArgument("request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise InvalidArgument("request body must be a JSON object")
        unknown = data.keys() - fields
        if unknown:
            raise InvalidArgument(f"unknown fields: {sorted(unknown)}")
        return data

    def _want(self, body: dict, key: str) -> str:
        value = body.get(key)
        if not isinstance(value, str):
            raise InvalidArgument(f"field '{key}' is required and must be a string")
        return value

    def _opt_str(self, body: dict, key: str) -> str:
        value = body.get(key, "")
        if not isinstance(value, str):
            raise InvalidArgument(f"field '{key}' must be a string")
        return value

    def _token(self, request: HttpRequest) -> str | None:
        header = request.header("authorization")
        if header is None:
            return None
        parts = header.split()
        if len(parts) != 2 or parts[0].lower() != "bearer" or not parts[1]:
            raise InvalidToken()
        return parts[1]

    def _principal(self, request: HttpRequest) -> Principal:
        """Anonymous without an Authorization header; otherwise the resolved
        session principal (which may raise InvalidToken)."""
        token = self._token(request)
        if token is None:
            return ANONYMOUS
        return self.gatekeeper.resolve(token)

    def _required_token(self, request: HttpRequest) -> str:
        token = self._token(request)
        if token is None:
            raise InvalidToken()
        return token

    def _authenticated(self, request: HttpRequest) -> Principal:
        return self.gatekeeper.resolve(self._required_token(request))

    @staticmethod
    def _parse_enum(enum_type, raw: str, what: str):
        try:
            return enum_type(raw)
        except ValueError:
            raise InvalidArgument(f"unknown {what}: '{raw}'") from None

    @staticmethod
    def _instant(raw: str) -> datetime:
        try:
            return parse_instant(raw)
        except ValueError as exc:
            raise InvalidArgument(str(exc)) from None

    def _parse_expiry(self, body: dict) -> datetime | None:
        raw = body.get("expiry")
        if raw is None:
            return None
        if not isinstance(raw, str):
            raise InvalidArgument("field 'expiry' must be an RFC 3339 string or null")
        return self._instant(raw)

    # -- open endpoints ------------------------------------------------------

    def _login(self, request: HttpRequest) -> HttpResponse:
        body = self._body(request, "user_id", "password")
        session = self.gatekeeper.login(self._want(body, "user_id"), self._want(body, "password"))
        return _respond(200, to_wire(session))

    def _logout(self, request: HttpRequest) -> HttpResponse:
        self.gatekeeper.logout(self._required_token(request))
        return _respond(200, {"ok": True})

    def _menu(self, request: HttpRequest) -> HttpResponse:
        principal = self._principal(request)
        return _respond(200, menu_wire(self.gatekeeper.visible_menu(principal)))

    def _check(self, request: HttpRequest) -> HttpResponse:
        principal = self._principal(request)
        resource_id = request.query.get("resource")
        raw_level = request.query.get("level")
        if not resource_id or not raw_level:
            raise InvalidArgument("query parameters 'resource' and 'level' are required")
        level = self._parse_enum(AccessLevel, raw_level, "access level")
        decision = self.gatekeeper.check(principal, resource_id, level)
        return _respond(200, decision_wire(decision))

    def _page(self, request: HttpRequest, resource_id: str) -> HttpResponse:
        principal = self._principal(request)
        try:
            decision = self.gatekeeper.check(principal, resource_id, AccessLevel.READ)
        except UnknownResource:
            return _respond(404, _PAGE_NOT_FOUND)
        if not decision.allowed:
            # Denied and nonexistent pages answer identically.
            return _respond(404, _PAGE_NOT_FOUND)
        resource = find_resource(self.gatekeeper.snapshot, resource_id)
        return _respond(200, to_wire(resource))

    def _register(self, request: HttpRequest) -> HttpResponse:
        body = self._body(request, "user_id", "password", "hint_question", "hint_answer")
        record = self.gatekeeper.self_register(
            self._want(body, "user_id"),
            self._want(body, "password"),
            self._opt_str(body, "hint_question"),
            self._opt_str(body, "hint_answer"),
        )
        return _respond(201, public_user(record))

    def _password_change(self, request: HttpRequest) -> HttpResponse:
        token = self._required_token(request)
        body = self._body(request, "old_password", "new_password")
        self.gatekeeper.change_password(token, self._want(body, "old_password"), self._want(body, "new_password"))
        return _respond(200, {"ok": True})

    def _recover_begin(self, request: HttpRequest) -> HttpResponse:
        body = self._body(request, "user_id")
        question = self.gatekeeper.recover_begin(self._want(body, "user_id"))
        return _respond(200, {"hint_question": question})

    def _recover_complete(self, request: HttpRequest) -> HttpResponse:
        body = self._body(request, "user_id", "hint_answer")
        password = self.gatekeeper.recover_complete(self._want(body, "user_id"), self._want(body, "hint_answer"))
        return _respond(200, {"password": password})

    # -- admin endpoints -----------------------------------------------------

    def _admin_create_user(self, request: HttpRequest) -> HttpResponse:
        actor = self._authenticated(request)
        body = self._body(request, "user_id", "password", "role", "hint_question", "hint_answer")
        record = self.gatekeeper.create_user(
            actor,
            self._want(body, "user_id"),
            self._want(body, "password"),
            self._parse_enum(Role, self._want(body, "role"), "role"),
            self._opt_str(body, "hint_question"),
            self._opt_str(body, "hint_answer"),
        )
        return _respond(201, public_user(record))

    def _admin_list_users(self, request: HttpRequest) -> HttpResponse:
        actor = self._authenticated(request)
        role = status = None
        if "role" in request.query:
            role = self._parse_enum(Role, request.query["role"], "role")
        if "status" in request.query:
            status = self._parse_enum(UserStatus, request.query["status"], "status")
        users = self.gatekeeper.list_users(actor, role, status)
        return _respond(200, {"users": [public_user(u) for u in users]})

    def _admin_patch_user(self, request: HttpRequest, user_id: str) -> HttpResponse:
        actor = self._authenticated(request)
        body = self._body(request, "role", "status")
        role = self._parse_enum(Role, self._want(body, "role"), "role") if "role" in body else None
        status = self._parse_enum(UserStatus, self._want(body, "status"), "status") if "status" in body else None
        return _respond(200, public_user(self.gatekeeper.update_user(actor, user_id, role, status)))

    def _admin_create_grant(self, request: HttpRequest) -> HttpResponse:
        actor = self._authenticated(request)
        body = self._body(request, "user_id", "resource_id", "level", "expiry")
        grant = self.gatekeeper.grant_special(
            actor,
            self._want(body, "user_id"),
            self._want(body, "resource_id"),
            self._parse_enum(AccessLevel, self._want(body, "level"), "access level"),
            self._parse_expiry(body),
        )
        return _respond(201, to_wire(grant))

    def _admin_delete_grant(self, request: HttpRequest, grant_id: str) -> HttpResponse:
        actor = self._authenticated(request)
        self.gatekeeper.revoke_grant(actor, grant_id)
        return _respond(200, {"ok": True})

    def _admin_audit(self, request: HttpRequest) -> HttpResponse:
        require_admin(self._authenticated(request))
        query = request.query
        since = self._instant(query["since"]) if "since" in query else None
        until = self._instant(query["until"]) if "until" in query else None
        limit = None
        if "limit" in query:
            try:
                limit = _parse_count(query["limit"])
            except ValueError:
                raise InvalidArgument("limit must be a non-negative integer") from None
        events = self.gatekeeper.audit_events(
            kind=query.get("kind"), actor=query.get("actor"), since=since, until=until, limit=limit
        )
        return _respond(200, {"events": [to_wire(e) for e in events]})


# ---------------------------------------------------------------------------
# Socket server adapter


_HEADER_LINE_DEFECTS = (MissingHeaderBodySeparatorDefect, InvalidHeaderDefect, FirstHeaderLineIsContinuationDefect,
                        MisplacedEnvelopeHeaderDefect)


class _Handler(BaseHTTPRequestHandler):
    service: PolicyService  # assigned by make_server
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # TCP_NODELAY on every connection: without it the body, written after the
    # headers, waits for the client's delayed ACK, about 40 ms per response.
    disable_nagle_algorithm = True

    def _dispatch(self):
        # The stdlib parser drops or stops at a line it cannot read as a header
        # (a space before the colon, no name, a fold with nothing above) and
        # glues an obs-fold onto the value above: a Content-Length sent may go
        # unread, and the body read as a request. Its other defects (a multipart
        # Content-Type with no body, say) say nothing of the header lines.
        if (any(isinstance(defect, _HEADER_LINE_DEFECTS) for defect in self.headers.defects)
                or any("\n" in value for value in self.headers.values())):
            return self.send_error(400, "malformed header line")
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if "Transfer-Encoding" in self.headers:
            return self.send_error(400, "Transfer-Encoding is not supported; send Content-Length")
        # headers.get reads the first copy of a header and the dict below keeps
        # the last, so a repeat of either is refused rather than read two ways.
        for name in ("Content-Length", "Authorization"):
            if len(self.headers.get_all(name, ())) > 1:
                return self.send_error(400, f"{name} must not be repeated")
        try:
            length = _parse_count(raw_length)
        except ValueError:
            return self.send_error(400, "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            return self.send_error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        request = HttpRequest.make(self.command, self.path, dict(self.headers.items()), body)
        self._send(self.service.handle(request))

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = do_OPTIONS = _dispatch

    def send_error(self, code, message=None, explain=None):
        """Answer a refused request, the stdlib's own refusals included, with
        a JSON error body, and close the connection: the rest of the request
        was not read, so its bytes must not be parsed as the next request."""
        error = "payload_too_large" if code == 413 else "invalid_argument"
        response = _respond(code, {"error": error, "message": message or self.responses[code][0]})
        response.headers["Connection"] = "close"
        self._send(response)

    def _send(self, response: HttpResponse) -> None:
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        # One write per response.  The stdlib's end_headers() sends the header
        # block on its own; with TCP_NODELAY the body then leaves in a second
        # segment, and whether the client's first read finds both is a race
        # that wakes it a second time on some responses and not on others.
        head = b""
        if self.request_version != "HTTP/0.9":  # an HTTP/0.9 answer is its body alone
            head = b"".join(self._headers_buffer) + b"\r\n"
        self._headers_buffer = []
        body = response.body if self.command != "HEAD" else b""
        self.wfile.write(head + body)

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):  # a client's reset is routine, not a fault
            super().handle_error(request, client_address)


def make_server(gatekeeper: Gatekeeper, host: str, port: int) -> ThreadingHTTPServer:
    """A threading HTTP server bound to host:port, ready for serve_forever."""
    service = PolicyService(gatekeeper)
    handler = type("GatekeeperHandler", (_Handler,), {"service": service})
    return _Server((host, port), handler)
