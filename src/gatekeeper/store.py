"""Durable state: JSON snapshot persistence and the append-only audit log.

The store is a single JSON document written atomically (temp file + rename).
Each stored record's wire form is declared once, in ``_FIELDS``, which
:func:`to_wire` and the loader read in opposite directions.  The record
constructors in ``model`` enforce the per-record invariants, so a record that
breaks one cannot exist; :func:`validate_document` enforces the store-wide
invariants on both save and load.

The audit log is a sibling ``.audit.jsonl`` file, one JSON object per line
with a strictly increasing sequence number; audit lines are written ahead of
the snapshot they describe, so after a crash the audit is a superset of the
persisted history.  One :class:`AuditLog` encodes, decodes and numbers the
lines, whether they live in that file or in memory.  A line that does not
decode (a torn tail, say) is skipped on read, and its sequence number is
never handed out again.
"""

from __future__ import annotations

import contextlib
import fcntl
import itertools
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .credentials import digest_from_wire, digest_to_wire
from .errors import (
    GatekeeperError,
    InvalidArgument,
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
_TAIL_BLOCK = 1 << 13  # bytes the audit reader reads per step back from the end of the file


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
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"instant is out of range: {text!r}") from None


def audit_path_for(store_path: str | Path) -> Path:
    return Path(store_path).with_suffix(AUDIT_SUFFIX)


@dataclass(frozen=True)
class AuditEntry:
    """A pending audit event: everything but the sequence number and stamp,
    which the log assigns at append time."""

    actor: str
    kind: str
    detail: Mapping[str, str]


@dataclass(frozen=True, slots=True)
class AuditEvent:
    seq: int
    at: datetime
    actor: str
    kind: str
    detail: Mapping[str, str]


# ---------------------------------------------------------------------------
# Wire form: one field table per stored record, read in both directions.
# Decoding is defensive: any shape problem becomes ValidationFailure.

_ABSENT = object()  # what a field decoder sees for a key missing from the object


def _fail(where: str, problem: str) -> ValidationFailure:
    return ValidationFailure(f"{where}: {problem}")


def _want_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(where, "expected an object")
    return value


def _str(raw, key: str, where: str) -> str:
    if not isinstance(raw, str):
        raise _fail(where, f"field '{key}' must be a string")
    return raw


def _bool(raw, key: str, where: str) -> bool:
    if not isinstance(raw, bool):
        raise _fail(where, f"field '{key}' must be a boolean")
    return raw


def _int(raw, key: str, where: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise _fail(where, f"field '{key}' must be an integer")
    return raw


def _int_or_zero(raw, key: str, where: str) -> int:
    """A missing key reads as 0; a null is still an error."""
    return 0 if raw is _ABSENT else _int(raw, key, where)


def _instant(raw, key: str, where: str) -> datetime:
    try:
        return parse_instant(_str(raw, key, where))
    except ValueError as exc:
        raise _fail(where, f"field '{key}': {exc}") from None


def _instant_or_null(raw, key: str, where: str) -> datetime | None:
    return None if raw is None or raw is _ABSENT else _instant(raw, key, where)


def _str_or_null(raw, key: str, where: str) -> str | None:
    if raw is None or raw is _ABSENT:
        return None
    if not isinstance(raw, str):
        raise _fail(where, f"field '{key}' must be a string or null")
    return raw


def _enum(enum_type):
    members = {member.value: member for member in enum_type}

    def decode(raw, key: str, where: str):
        try:
            return members[_str(raw, key, where)]
        except KeyError:
            raise _fail(where, f"field '{key}' has unknown value {raw!r}") from None

    return decode


def _digest(raw, key: str, where: str):
    try:
        return digest_from_wire(raw)
    except ValueError as exc:
        raise _fail(where, f"field '{key}': {exc}") from None


def _detail(raw, key: str, where: str) -> dict:
    for name, value in _want_object(raw, where).items():
        if not isinstance(name, str) or not isinstance(value, str):
            raise _fail(where, "detail must map strings to strings")
    return raw


# An enum member is stored as its value; ``_value_`` holds the same value as
# ``.value`` without going through the property, which is several times slower.
_ENUM = attrgetter("_value_")

# (key, encode, decode) per field; ``encode`` is None for values JSON carries
# as they are.  Wire keys are the attribute names, and the order is the decode
# order, so the first problem in a corrupt record is the one reported.
_FIELDS = {
    PolicyConfig: (
        ("multi_admin", None, _bool),
        ("self_registration", _ENUM, _enum(SelfRegistrationMode)),
        ("allow_self_password_change", None, _bool),
        ("session_ttl_seconds", None, _int),
        ("log_denials", None, _bool),
    ),
    UserRecord: (
        ("recovery_failures", None, _int_or_zero),
        ("user_id", None, _str),
        ("password_digest", digest_to_wire, _digest),
        ("role", _ENUM, _enum(Role)),
        ("status", _ENUM, _enum(UserStatus)),
        ("hint_question", None, _str),
        ("hint_answer_digest", digest_to_wire, _digest),
        ("created_by", None, _str),
        ("created_at", format_instant, _instant),
    ),
    SpecialGrant: (
        ("expiry", lambda at: None if at is None else format_instant(at), _instant_or_null),
        ("grant_id", None, _str),
        ("user_id", None, _str),
        ("resource_id", None, _str),
        ("level", _ENUM, _enum(AccessLevel)),
        ("granted_by", None, _str),
        ("granted_at", format_instant, _instant),
    ),
    Resource: (
        ("description", None, _str_or_null),
        ("resource_id", None, _str),
        ("display_name", None, _str),
        ("data_class", _ENUM, _enum(DataClass)),
        ("menu_group", _ENUM, _enum(MenuGroup)),
        ("required_level", _ENUM, _enum(AccessLevel)),
    ),
    Session: (
        ("token", None, _str),
        ("user_id", None, _str),
        ("issued_at", format_instant, _instant),
        ("expires_at", format_instant, _instant),
    ),
    AuditEvent: (
        ("detail", dict, _detail),
        ("seq", None, _int),
        ("at", format_instant, _instant),
        ("actor", None, _str),
        ("kind", None, _str),
    ),
}

# The document's record lists, in decode order.
_RECORD_LISTS = {"users": UserRecord, "grants": SpecialGrant, "resources": Resource, "sessions": Session}

_KEYS = {record_type: frozenset(key for key, _, _ in fields) for record_type, fields in _FIELDS.items()}


def to_wire(record) -> dict:
    """The stored JSON form of any record in ``_FIELDS``."""
    wire = {}
    for key, encode, _ in _FIELDS[type(record)]:
        value = getattr(record, key)
        wire[key] = value if encode is None else encode(value)
    return wire


def _from_wire(record_type, obj, where: str):
    get = _want_object(obj, where).get
    values = {}
    for key, _, decode in _FIELDS[record_type]:
        values[key] = decode(get(key, _ABSENT), key, where)
    try:
        return record_type(**values)
    except InvalidArgument as exc:  # a per-record invariant of ``model``
        raise _fail(where, exc.message) from None


def _stored_from_wire(record_type, obj, where: str):
    """``_from_wire`` for the store document, refusing keys outside the field
    table.  Audit lines skip this, so a field added later hides no line."""
    record = _from_wire(record_type, obj, where)
    known = _KEYS[record_type]
    if not obj.keys() <= known:
        raise _fail(where, f"unknown keys: {sorted(obj.keys() - known)}")
    return record


def document_to_wire(doc: StoreDocument) -> dict:
    wire = {"version": STORE_VERSION, "config": to_wire(doc.config)}
    for key in _RECORD_LISTS:
        wire[key] = [to_wire(record) for record in getattr(doc, key)]
    return wire


def document_from_wire(data) -> StoreDocument:
    """Decode a parsed JSON value into a document.

    Raises UnsupportedVersion for unknown version numbers and
    ValidationFailure, naming the record, for any other shape problem: the
    field decoders and ``_from_wire`` turn every refusal into one, so corrupt
    bytes fail cleanly.
    """
    top = _want_object(data, "document")
    version = top.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise _fail("document", "field 'version' must be an integer")
    if version != STORE_VERSION:
        raise UnsupportedVersion(f"unsupported store version {version} (supported: {STORE_VERSION})")
    unknown = set(top) - {"version", "config", *_RECORD_LISTS}
    if unknown:
        raise _fail("document", f"unknown top-level keys: {sorted(unknown)}")
    config = _stored_from_wire(PolicyConfig, top.get("config"), "config")
    records = {}
    for key, record_type in _RECORD_LISTS.items():
        items = top.get(key)
        if not isinstance(items, list):
            raise _fail(key, "expected a list")
        records[key] = tuple(_stored_from_wire(record_type, obj, f"{key}[{i}]") for i, obj in enumerate(items))
    return StoreDocument(config=config, **records)


# ---------------------------------------------------------------------------
# Store-wide validation


def validate_document(doc: StoreDocument) -> None:
    """Check the invariants the record constructors leave to the store:
    user-id syntax and uniqueness, unique digest salts, the
    administrator count, references between records, and session lifetimes.
    Raise ValidationFailure listing all violations found."""
    problems: list[str] = []

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
            written = 0
            while written < len(payload):  # a write may take less than it is given
                written += os.write(fd, payload[written:])
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
    except RecursionError:
        raise ParseFailure("store file nests too deeply") from None
    doc = document_from_wire(data)
    validate_document(doc)
    return doc


def load(path: str | Path) -> StoreDocument:
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read store at {path}: {exc}") from exc
    return loads(payload)


_held = threading.local()


@contextlib.contextmanager
def store_lock(store_path: str | Path) -> Iterator[None]:
    """Hold the advisory exclusive lock on the store's ``.lock`` sibling,
    which serializes the processes that write one store.  A thread that
    already holds it for this store takes it again at no cost."""
    lock_path = Path(store_path).with_suffix(".lock")
    held = _held.__dict__.setdefault("paths", set())
    key = os.path.abspath(lock_path)
    if key in held:
        yield
        return
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o600)
    except OSError as exc:
        raise IoFailure(f"cannot open store lock at {lock_path}: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        held.add(key)
        yield
    finally:
        held.discard(key)
        os.close(fd)  # closing the descriptor releases the lock


# ---------------------------------------------------------------------------
# Audit log


def _newest_first(handle) -> Iterator[bytes]:
    """An open binary file's lines, newest first, split at ``\\n`` and read back
    from its end in blocks of ``_TAIL_BLOCK`` or more; the first is empty unless the tail is torn."""
    end = handle.seek(0, os.SEEK_END)
    head = b""
    while end:
        start = max(0, end - max(_TAIL_BLOCK, len(head)))  # a line longer than a block doubles the read
        handle.seek(start)
        head, *lines = (handle.read(end - start) + head).split(b"\n")
        yield from reversed(lines)
        end = start
    yield head


def _last_seq(newest_first: Iterable[bytes]) -> int:
    """The ``seq`` of the newest line that is a JSON object with an integer
    ``seq``, whether or not it decodes as an event, so that a skipped line's
    number is never handed out again; 0 if there is none."""
    for line in newest_first:
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            continue
        seq = obj.get("seq") if isinstance(obj, dict) else None
        if isinstance(seq, int) and not isinstance(seq, bool):
            return seq
    return 0


def _decode_event(line: bytes) -> AuditEvent | None:
    """The event a log line holds, or None for a line that does not decode."""
    try:
        return _from_wire(AuditEvent, json.loads(line.decode("utf-8")), "audit event")
    except (ValueError, RecursionError, GatekeeperError):
        return None


class AuditLog:
    """Append-only log of sorted-key JSON lines, one per event, with strictly
    increasing sequence numbers; a line that does not decode is skipped.
    Subclasses keep the lines: ``_lines()`` yields them newest first, and
    ``_appending()`` holds the log for one append and yields its last ``seq``
    and a writer of one line."""

    def append(self, entry: AuditEntry, at: datetime) -> AuditEvent:
        with self._appending() as (last_seq, write):
            event = AuditEvent(seq=last_seq + 1, at=at, actor=entry.actor, kind=entry.kind, detail=dict(entry.detail))
            write(json.dumps(to_wire(event), sort_keys=True).encode("utf-8"))
        return event

    def events(self) -> list[AuditEvent]:
        return self.query()

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
        most recent matches.  The lines are read newest first and decoded one
        at a time, so a limited query stops once it has its matches."""
        selected: list[AuditEvent] = []
        with contextlib.closing(self._lines()) as lines:
            for line in lines:
                if len(selected) == limit:
                    break
                e = _decode_event(line)
                if (
                    e is not None
                    and (kind is None or e.kind == kind)
                    and (actor is None or e.actor == actor)
                    and (since is None or e.at >= since)
                    and (until is None or e.at <= until)
                ):
                    selected.append(e)
        selected.reverse()
        return selected


class MemoryAuditLog(AuditLog):
    """Lines held in a list, encoded exactly as the file log writes them."""

    def __init__(self):
        self._stored: list[bytes] = []

    def _lines(self) -> Iterator[bytes]:
        yield from reversed(self._stored)

    def _appending(self):
        return contextlib.nullcontext((_last_seq(reversed(self._stored)), self._stored.append))


class FileAuditLog(AuditLog):
    """Each append is flushed and fsynced before returning, so the log is
    written ahead of the snapshot it describes.  A missing file has no lines.
    An append holds the file's advisory lock and numbers its line from the
    file's last numbered line, so processes sharing the file never reuse a
    number."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _lines(self) -> Iterator[bytes]:
        try:
            with open(self.path, "rb") as handle:
                yield from filter(None, _newest_first(handle))  # an empty line is never an event
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise IoFailure(f"cannot read audit log {self.path}: {exc}") from exc

    @contextlib.contextmanager
    def _appending(self) -> Iterator[tuple[int, Callable[[bytes], object]]]:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)  # released when the file closes
                lines = _newest_first(handle)
                torn = next(lines)
                if torn:
                    handle.write(b"\n")  # a torn tail from a crash must not glue onto the new line
                    lines = itertools.chain((torn,), lines)
                yield _last_seq(lines), lambda line: handle.write(line + b"\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise IoFailure(f"cannot append to audit log {self.path}: {exc}") from exc
