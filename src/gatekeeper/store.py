"""Durable state: JSON snapshot persistence and the append-only audit log.

The store is a single JSON document written atomically (temp file + rename).
The record constructors in ``model`` enforce the per-record invariants, so a
record that breaks one cannot exist; :func:`validate_document` enforces the
store-wide invariants on both save and load.  The audit log is a sibling
``.audit.jsonl`` file, one JSON object per line with a strictly increasing
sequence number; audit lines are written ahead of the snapshot they
describe, so after a crash the audit is a superset of the persisted history.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from .credentials import digest_from_wire, digest_to_wire
from .errors import (
    GatekeeperError,
    IoFailure,
    ParseFailure,
    UnsupportedVersion,
    ValidationFailure,
)
from .model import (
    AccessLevel,
    DataClass,
    MenuGroup,
    PolicyConfig,
    Resource,
    Role,
    SelfRegistrationMode,
    Session,
    SpecialGrant,
    StoreDocument,
    UserRecord,
    UserStatus,
    active_admin_count,
    user_id_syntax_error,
)

STORE_VERSION = 1
AUDIT_SUFFIX = ".audit.jsonl"


def format_instant(dt: datetime) -> str:
    """RFC 3339 in UTC, 'Z'-suffixed."""
    if dt.tzinfo is None:
        raise ValueError("instants must be timezone-aware")
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_instant(text: str) -> datetime:
    """Inverse of :func:`format_instant`; accepts any RFC 3339 offset."""
    if not isinstance(text, str):
        raise ValueError("instant must be a string")
    candidate = text.replace("Z", "+00:00").replace("z", "+00:00")
    try:
        dt = datetime.fromisoformat(candidate)
    except ValueError:
        raise ValueError(f"not an RFC 3339 instant: {text!r}") from None
    if dt.tzinfo is None:
        raise ValueError(f"instant lacks a timezone: {text!r}")
    return dt.astimezone(timezone.utc)


def audit_path_for(store_path: str | Path) -> Path:
    return Path(store_path).with_suffix(AUDIT_SUFFIX)


# ---------------------------------------------------------------------------
# Wire encoding


def _user_to_wire(user: UserRecord) -> dict:
    return {
        "user_id": user.user_id,
        "password_digest": digest_to_wire(user.password_digest),
        "role": user.role.value,
        "status": user.status.value,
        "hint_question": user.hint_question,
        "hint_answer_digest": digest_to_wire(user.hint_answer_digest),
        "created_by": user.created_by,
        "created_at": format_instant(user.created_at),
        "recovery_failures": user.recovery_failures,
    }


def grant_to_wire(grant: SpecialGrant) -> dict:
    return {
        "grant_id": grant.grant_id,
        "user_id": grant.user_id,
        "resource_id": grant.resource_id,
        "level": grant.level.value,
        "expiry": format_instant(grant.expiry) if grant.expiry else None,
        "granted_by": grant.granted_by,
        "granted_at": format_instant(grant.granted_at),
    }


def resource_to_wire(resource: Resource) -> dict:
    return {
        "resource_id": resource.resource_id,
        "display_name": resource.display_name,
        "data_class": resource.data_class.value,
        "menu_group": resource.menu_group.value,
        "required_level": resource.required_level.value,
        "description": resource.description,
    }


def session_to_wire(session: Session) -> dict:
    return {
        "token": session.token,
        "user_id": session.user_id,
        "issued_at": format_instant(session.issued_at),
        "expires_at": format_instant(session.expires_at),
    }


def document_to_wire(doc: StoreDocument) -> dict:
    return {
        "version": doc.version,
        "config": {
            "multi_admin": doc.config.multi_admin,
            "self_registration": doc.config.self_registration.value,
            "allow_self_password_change": doc.config.allow_self_password_change,
            "session_ttl_seconds": doc.config.session_ttl_seconds,
            "log_denials": doc.config.log_denials,
        },
        "users": [_user_to_wire(u) for u in doc.users],
        "grants": [grant_to_wire(g) for g in doc.grants],
        "resources": [resource_to_wire(r) for r in doc.resources],
        "sessions": [session_to_wire(s) for s in doc.sessions],
    }


# ---------------------------------------------------------------------------
# Wire decoding (defensive: any shape problem becomes ValidationFailure)


def _fail(where: str, problem: str) -> ValidationFailure:
    return ValidationFailure(f"{where}: {problem}")


def _want_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(where, "expected an object")
    return value


def _want_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise _fail(where, "expected a list")
    return value


def _want_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise _fail(where, f"field '{key}' must be a string")
    return value


def _want_bool(obj: dict, key: str, where: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise _fail(where, f"field '{key}' must be a boolean")
    return value


def _want_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(where, f"field '{key}' must be an integer")
    return value


def _want_instant(obj: dict, key: str, where: str) -> datetime:
    try:
        return parse_instant(_want_str(obj, key, where))
    except ValueError as exc:
        raise _fail(where, f"field '{key}': {exc}") from None


def _want_enum(obj: dict, key: str, enum_type, where: str):
    raw = _want_str(obj, key, where)
    try:
        return enum_type(raw)
    except ValueError:
        raise _fail(where, f"field '{key}' has unknown value {raw!r}") from None


def _want_digest(obj: dict, key: str, where: str):
    try:
        return digest_from_wire(obj.get(key))
    except ValueError as exc:
        raise _fail(where, f"field '{key}': {exc}") from None


def _config_from_wire(obj) -> PolicyConfig:
    where = "config"
    config = _want_object(obj, where)
    return PolicyConfig(
        multi_admin=_want_bool(config, "multi_admin", where),
        self_registration=_want_enum(config, "self_registration", SelfRegistrationMode, where),
        allow_self_password_change=_want_bool(config, "allow_self_password_change", where),
        session_ttl_seconds=_want_int(config, "session_ttl_seconds", where),
        log_denials=_want_bool(config, "log_denials", where),
    )


def _user_from_wire(obj, where: str) -> UserRecord:
    user = _want_object(obj, where)
    failures = _want_int(user, "recovery_failures", where) if "recovery_failures" in user else 0
    return UserRecord(
        user_id=_want_str(user, "user_id", where),
        password_digest=_want_digest(user, "password_digest", where),
        role=_want_enum(user, "role", Role, where),
        status=_want_enum(user, "status", UserStatus, where),
        hint_question=_want_str(user, "hint_question", where),
        hint_answer_digest=_want_digest(user, "hint_answer_digest", where),
        created_by=_want_str(user, "created_by", where),
        created_at=_want_instant(user, "created_at", where),
        recovery_failures=failures,
    )


def _grant_from_wire(obj, where: str) -> SpecialGrant:
    grant = _want_object(obj, where)
    expiry = None
    if grant.get("expiry") is not None:
        expiry = _want_instant(grant, "expiry", where)
    return SpecialGrant(
        grant_id=_want_str(grant, "grant_id", where),
        user_id=_want_str(grant, "user_id", where),
        resource_id=_want_str(grant, "resource_id", where),
        level=_want_enum(grant, "level", AccessLevel, where),
        expiry=expiry,
        granted_by=_want_str(grant, "granted_by", where),
        granted_at=_want_instant(grant, "granted_at", where),
    )


def _resource_from_wire(obj, where: str) -> Resource:
    resource = _want_object(obj, where)
    description = resource.get("description")
    if description is not None and not isinstance(description, str):
        raise _fail(where, "field 'description' must be a string or null")
    return Resource(
        resource_id=_want_str(resource, "resource_id", where),
        display_name=_want_str(resource, "display_name", where),
        data_class=_want_enum(resource, "data_class", DataClass, where),
        menu_group=_want_enum(resource, "menu_group", MenuGroup, where),
        required_level=_want_enum(resource, "required_level", AccessLevel, where),
        description=description,
    )


def _session_from_wire(obj, where: str) -> Session:
    session = _want_object(obj, where)
    return Session(
        token=_want_str(session, "token", where),
        user_id=_want_str(session, "user_id", where),
        issued_at=_want_instant(session, "issued_at", where),
        expires_at=_want_instant(session, "expires_at", where),
    )


# In decode order: the first problem in a corrupt store is the one reported.
_RECORD_DECODERS = {
    "users": _user_from_wire,
    "grants": _grant_from_wire,
    "resources": _resource_from_wire,
    "sessions": _session_from_wire,
}


def document_from_wire(data) -> StoreDocument:
    """Decode a parsed JSON value into a document.

    Raises UnsupportedVersion for unknown version numbers and
    ValidationFailure for any other shape problem; never leaks bare
    KeyError/TypeError/ValueError, so corrupt bytes fail cleanly.
    """
    top = _want_object(data, "document")
    version = top.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise _fail("document", "field 'version' must be an integer")
    if version != STORE_VERSION:
        raise UnsupportedVersion(f"unsupported store version {version} (supported: {STORE_VERSION})")
    expected_keys = {"version", "config", "users", "grants", "resources", "sessions"}
    unknown = set(top) - expected_keys
    if unknown:
        raise _fail("document", f"unknown top-level keys: {sorted(unknown)}")
    try:
        config = _config_from_wire(top.get("config"))
        records = {
            key: tuple(decode(obj, f"{key}[{i}]") for i, obj in enumerate(_want_list(top.get(key), key)))
            for key, decode in _RECORD_DECODERS.items()
        }
        return StoreDocument(version=version, config=config, **records)
    except (ValidationFailure, UnsupportedVersion):
        raise
    except Exception as exc:  # constructor-level invariant violations
        raise ValidationFailure(str(exc)) from None


# ---------------------------------------------------------------------------
# Store-wide validation


def validate_document(doc: StoreDocument) -> None:
    """Check the invariants the record constructors leave to the store: the
    version, user-id syntax and uniqueness, unique digest salts, the
    administrator count, references between records, and session lifetimes.
    Raise ValidationFailure listing all violations found."""
    problems: list[str] = []

    if doc.version != STORE_VERSION:
        problems.append(f"version must be {STORE_VERSION}")

    seen_ids: dict[str, str] = {}
    seen_salts: set[bytes] = set()
    for user in doc.users:
        reason = user_id_syntax_error(user.user_id)
        if reason:
            problems.append(f"user '{user.user_id}': {reason}")
        folded = user.user_id.casefold()
        if folded in seen_ids:
            problems.append(f"user-ids '{seen_ids[folded]}' and '{user.user_id}' collide under case-folding")
        seen_ids[folded] = user.user_id
        for digest in (user.password_digest, user.hint_answer_digest):
            if digest.salt in seen_salts:
                problems.append(f"user '{user.user_id}': digest salt is reused")
            seen_salts.add(digest.salt)

    admins = [u for u in doc.users if u.role is Role.ADMINISTRATOR]
    if active_admin_count(doc) < 1:
        problems.append("store must hold at least one active administrator")
    if not doc.config.multi_admin and len(admins) > 1:
        problems.append("multiple administrators present but multi_admin is disabled")

    user_ids = {u.user_id for u in doc.users}
    roles_by_id = {u.user_id: u.role for u in doc.users}

    resource_ids: set[str] = set()
    for resource in doc.resources:
        if resource.resource_id in resource_ids:
            problems.append(f"duplicate resource_id '{resource.resource_id}'")
        resource_ids.add(resource.resource_id)

    grant_ids: set[str] = set()
    grant_keys: set[tuple[str, str, AccessLevel]] = set()
    for grant in doc.grants:
        if grant.grant_id in grant_ids:
            problems.append(f"duplicate grant_id '{grant.grant_id}'")
        grant_ids.add(grant.grant_id)
        key = (grant.user_id, grant.resource_id, grant.level)
        if key in grant_keys:
            problems.append(f"duplicate grant for {key}")
        grant_keys.add(key)
        if grant.user_id not in user_ids:
            problems.append(f"grant '{grant.grant_id}' references unknown user '{grant.user_id}'")
        elif roles_by_id[grant.user_id] is Role.GUEST and grant.level is AccessLevel.WRITE:
            problems.append(f"grant '{grant.grant_id}' gives write access to guest '{grant.user_id}'")
        if grant.resource_id not in resource_ids:
            problems.append(f"grant '{grant.grant_id}' references unknown resource '{grant.resource_id}'")

    tokens: set[str] = set()
    for session in doc.sessions:
        if session.token in tokens:
            problems.append("duplicate session token")
        tokens.add(session.token)
        if session.user_id not in user_ids:
            problems.append(f"session references unknown user '{session.user_id}'")
        if session.expires_at < session.issued_at:
            problems.append("session expires before it was issued")

    if problems:
        raise ValidationFailure("; ".join(problems))


# ---------------------------------------------------------------------------
# Snapshot save/load


def serialize_document(doc: StoreDocument) -> bytes:
    """Canonical on-disk form: JSON with sorted keys."""
    return (json.dumps(document_to_wire(doc), sort_keys=True, indent=2) + "\n").encode("utf-8")


def save(doc: StoreDocument, path: str | Path) -> None:
    """Validate, then write atomically: temp sibling file, fsync, rename.

    A failure at any point leaves the previous snapshot untouched.
    """
    validate_document(doc)
    target = Path(path)
    payload = serialize_document(doc)
    tmp_path = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, target)
        tmp_path = None
    except OSError as exc:
        raise IoFailure(f"cannot save store to {target}: {exc}") from exc
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def loads(payload: bytes) -> StoreDocument:
    """Parse and validate a serialized document."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseFailure(f"store file is not valid UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(exc.msg, line=exc.lineno, column=exc.colno) from None
    doc = document_from_wire(data)
    validate_document(doc)
    return doc


def load(path: str | Path) -> StoreDocument:
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read store at {path}: {exc}") from exc
    return loads(payload)


# ---------------------------------------------------------------------------
# Audit log


@dataclass(frozen=True)
class AuditEntry:
    """A pending audit event: everything but the sequence number and stamp,
    which the log assigns at append time."""

    actor: str
    kind: str
    detail: Mapping[str, str]


@dataclass(frozen=True)
class AuditEvent:
    seq: int
    at: datetime
    actor: str
    kind: str
    detail: Mapping[str, str]


def event_to_wire(event: AuditEvent) -> dict:
    return {
        "seq": event.seq,
        "at": format_instant(event.at),
        "actor": event.actor,
        "kind": event.kind,
        "detail": dict(event.detail),
    }


def event_from_wire(obj: dict) -> AuditEvent:
    where = "audit event"
    event = _want_object(obj, where)
    detail = _want_object(event.get("detail"), where)
    for key, value in detail.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise _fail(where, "detail must map strings to strings")
    return AuditEvent(
        seq=_want_int(event, "seq", where),
        at=_want_instant(event, "at", where),
        actor=_want_str(event, "actor", where),
        kind=_want_str(event, "kind", where),
        detail=dict(detail),
    )


class AuditLog:
    """Append-only event log with strictly increasing sequence numbers."""

    def append(self, entry: AuditEntry, at: datetime) -> AuditEvent:
        raise NotImplementedError

    def events(self) -> list[AuditEvent]:
        raise NotImplementedError

    def query(
        self,
        *,
        kind: str | None = None,
        actor: str | None = None,
        since: datetime | None = None,
        until: datetime | None = None,
        limit: int | None = None,
    ) -> list[AuditEvent]:
        """Events in sequence order, optionally filtered; ``limit`` keeps the
        most recent matches."""
        selected = [
            e
            for e in self.events()
            if (kind is None or e.kind == kind)
            and (actor is None or e.actor == actor)
            and (since is None or e.at >= since)
            and (until is None or e.at <= until)
        ]
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected


class MemoryAuditLog(AuditLog):
    def __init__(self):
        self._events: list[AuditEvent] = []

    def append(self, entry: AuditEntry, at: datetime) -> AuditEvent:
        event = AuditEvent(
            seq=self._events[-1].seq + 1 if self._events else 1,
            at=at,
            actor=entry.actor,
            kind=entry.kind,
            detail=dict(entry.detail),
        )
        self._events.append(event)
        return event

    def events(self) -> list[AuditEvent]:
        return list(self._events)


class FileAuditLog(AuditLog):
    """One JSON object per line.  Each append is flushed and fsynced before
    returning, so the log is written ahead of the snapshot it describes.

    Lines that fail to parse (e.g. a torn tail after a crash) are skipped on
    read rather than taking the whole log down.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        last = 0
        for event in self.events():
            last = event.seq
        return last + 1

    def append(self, entry: AuditEntry, at: datetime) -> AuditEvent:
        event = AuditEvent(seq=self._next_seq, at=at, actor=entry.actor, kind=entry.kind, detail=dict(entry.detail))
        line = json.dumps(event_to_wire(event), sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                # A torn tail from a crash must not glue onto the new line.
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                handle.write(line.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise IoFailure(f"cannot append to audit log {self.path}: {exc}") from exc
        self._next_seq += 1
        return event

    def events(self) -> list[AuditEvent]:
        try:
            payload = self.path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise IoFailure(f"cannot read audit log {self.path}: {exc}") from exc
        out: list[AuditEvent] = []
        for raw_line in payload.splitlines():
            line = raw_line.strip()
            if not line:
                continue
            try:
                out.append(event_from_wire(json.loads(line.decode("utf-8"))))
            except (ValueError, GatekeeperError):
                continue
        return out
