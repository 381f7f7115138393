"""Persistence: snapshot save/load, atomicity, validation, and the audit log."""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
import sys
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatekeeper.store as store
from gatekeeper.app import Gatekeeper
from gatekeeper.errors import (
    GatekeeperError,
    IoFailure,
    ParseFailure,
    UnsupportedVersion,
    ValidationFailure,
)
from gatekeeper.credentials import CredentialDigest
from gatekeeper.model import (
    AccessLevel,
    DataClass,
    MenuGroup,
    PolicyConfig,
    Resource,
    Role,
    SelfRegistrationMode,
    Session,
    SpecialGrant,
    UserStatus,
)
from gatekeeper.store import (
    _FIELDS,
    FileAuditLog,
    MemoryAuditLog,
    AuditEntry,
    AuditEvent,
    audit_path_for,
    document_to_wire,
    load,
    loads,
    parse_instant,
    save,
    serialize_document,
)

from worlds import (
    FUTURE,
    NOW,
    PAST,
    FakeClock,
    make_doc,
    make_grant,
    make_resource,
    make_user,
    random_world,
)

DATA = Path(__file__).parent / "data"
_ABSENT = object()

# (path into the v1 fixture, value put there or _ABSENT, exact load message)
BAD_FIELDS = [
    (("users", 1, "role"), "wizard", "users[1]: field 'role' has unknown value 'wizard'"),
    (("users", 1, "role"), 7, "users[1]: field 'role' must be a string"),
    (("users", 1, "user_id"), _ABSENT, "users[1]: field 'user_id' must be a string"),
    (("users", 1, "created_at"), "2026-06-01T12:00:00",
     "users[1]: field 'created_at': instant lacks a timezone: '2026-06-01T12:00:00'"),
    (("users", 1, "created_at"), "0001-01-01T00:00:00+01:00",
     "users[1]: field 'created_at': instant is out of range: '0001-01-01T00:00:00+01:00'"),
    (("users", 1, "role"), "outsider", "users[1]: stored users cannot hold the outsider role"),
    (("users", 1, "recovery_failures"), -1, "users[1]: recovery_failures must be >= 0"),
    (("users", 1, "recovery_failures"), True, "users[1]: field 'recovery_failures' must be an integer"),
    (("users", 1, "recovery_failures"), None, "users[1]: field 'recovery_failures' must be an integer"),
    (("users", 1, "password_digest"), "x", "users[1]: field 'password_digest': digest must be an object"),
    (("users", 0, "password_digest", "alg"), "bcrypt",
     "users[0]: field 'password_digest': digest alg must be 'pbkdf2-sha256'"),
    (("users", 1, "hint_answer_digest", "salt"), "c2hvcnQ=",
     "users[1]: field 'hint_answer_digest': digest salt must be at least 16 bytes"),
    (("users", 0), [], "users[0]: expected an object"),
    (("users",), {}, "users: expected a list"),
    (("config",), None, "config: expected an object"),
    (("config", "multi_admin"), "yes", "config: field 'multi_admin' must be a boolean"),
    (("config", "self_registration"), "open", "config: field 'self_registration' has unknown value 'open'"),
    (("config", "session_ttl_seconds"), 1.5, "config: field 'session_ttl_seconds' must be an integer"),
    (("config", "session_ttl_seconds"), 0, "config: session_ttl_seconds must be a positive integer"),
    (("grants", 0, "expiry"), "soon", "grants[0]: field 'expiry': not an RFC 3339 instant: 'soon'"),
    (("grants", 0, "level"), "admin", "grants[0]: grants never carry the admin level"),
    (("grants", 2, "granted_at"), 0, "grants[2]: field 'granted_at' must be a string"),
    (("grants", 1, "grant_id"), "g1", "duplicate grant_id 'g1'"),
    (("resources", 0, "description"), 5, "resources[0]: field 'description' must be a string or null"),
    (("resources", 0, "resource_id"), "", "resources[0]: resource_id must not be empty"),
    (("resources", 4, "required_level"), "read",
     "resources[4]: admin-menu resources require the admin level and the admin level belongs only to admin-menu "
     "resources"),
    (("sessions", 0, "expires_at"), None, "sessions[0]: field 'expires_at' must be a string"),
    (("sessions", 0, "expires_at"), "2026-06-01T15:59:59Z", "session expires before it was issued"),
    (("version",), "1", "document: field 'version' must be an integer"),
    # A misspelt key is refused, not read as the absent field it stands for.
    (("grants", 0, "expires"), "2026-07-01T12:00:00Z", "grants[0]: unknown keys: ['expires']"),
    (("users", 1, "recovery_failure"), 3, "users[1]: unknown keys: ['recovery_failure']"),
    (("config", "log_denial"), False, "config: unknown keys: ['log_denial']"),
    (("sessions", 0, "expires"), None, "sessions[0]: unknown keys: ['expires']"),
    (("resources", 0, "level"), "read", "resources[0]: unknown keys: ['level']"),
]


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        doc = make_doc(
            users=[make_user("boss", Role.MANAGER)],
            resources=[make_resource("report")],
            grants=[make_grant("g1", "boss", "report", AccessLevel.READ, FUTURE)],
            sessions=[Session("tok-1", "boss", NOW, NOW + timedelta(hours=1))],
        )
        path = tmp_path / "store.json"
        save(doc, path)
        assert load(path) == doc

    def test_on_disk_shape(self, tmp_path):
        doc = make_doc()
        path = tmp_path / "store.json"
        save(doc, path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"version", "config", "users", "grants", "resources", "sessions"}
        assert raw["version"] == 1
        digest = raw["users"][0]["password_digest"]
        assert set(digest) == {"alg", "salt", "digest", "cost"}
        parse_instant(raw["users"][0]["created_at"])  # RFC 3339

    def test_keys_are_sorted(self, tmp_path):
        path = tmp_path / "store.json"
        save(make_doc(
            users=[make_user("ann")],
            resources=[make_resource("report")],
            grants=[make_grant("g1", "ann", "report", AccessLevel.READ, FUTURE)],
            sessions=[Session("tok-1", "ann", NOW, FUTURE)],
        ), path)
        objects = []

        def record(pairs):
            objects.append([key for key, _ in pairs])
            return dict(pairs)

        json.loads(path.read_text(), object_pairs_hook=record)
        # the document, config, two users with two digests each, grant, resource, session
        assert len(objects) == 1 + 1 + 2 * 3 + 3
        for keys in objects:
            assert keys == sorted(keys)

    def test_field_table_names_every_attribute(self):
        # to_wire copies a record's attributes, so the table must name each one.
        for record_type, fields in _FIELDS.items():
            assert sorted(key for key, _, _ in fields) == sorted(f.name for f in dataclasses.fields(record_type))

    def test_many_random_worlds_round_trip(self, tmp_path):
        rng = random.Random(20260601)
        for i in range(40):
            doc = random_world(rng, with_sessions=True)
            path = tmp_path / f"store-{i}.json"
            save(doc, path)
            assert load(path) == doc


class TestValidator:
    def _reject(self, doc):
        with pytest.raises(ValidationFailure):
            save(doc, "/tmp/never-written.json")

    def test_case_folded_duplicate_ids(self):
        users = [make_user("ann"), make_user("ANN")]
        self._reject(make_doc(users=users))

    def test_no_active_administrator(self):
        self._reject(make_doc(users=[make_user("ann")], with_root=False))

    def test_disabled_sole_administrator(self):
        admin = make_user("root", Role.ADMINISTRATOR, UserStatus.DISABLED)
        self._reject(make_doc(users=[admin], with_root=False))

    def test_two_admins_without_multi_admin(self):
        users = [
            make_user("root", Role.ADMINISTRATOR),
            make_user("root2", Role.ADMINISTRATOR),
        ]
        self._reject(make_doc(users=users, with_root=False))

    def test_two_admins_allowed_with_multi_admin(self, tmp_path):
        users = [
            make_user("root", Role.ADMINISTRATOR),
            make_user("root2", Role.ADMINISTRATOR),
        ]
        doc = make_doc(users=users, with_root=False, config=PolicyConfig(multi_admin=True))
        save(doc, tmp_path / "ok.json")

    def test_grant_referencing_unknown_user(self):
        doc = make_doc(
            resources=[make_resource("report")],
            grants=[make_grant("g1", "ghost", "report")],
        )
        self._reject(doc)

    def test_grant_referencing_unknown_resource(self):
        doc = make_doc(
            users=[make_user("ann")],
            grants=[make_grant("g1", "ann", "ghost")],
        )
        self._reject(doc)

    def test_duplicate_grant_key(self):
        doc = make_doc(
            users=[make_user("ann")],
            resources=[make_resource("report")],
            grants=[
                make_grant("g1", "ann", "report", AccessLevel.READ),
                make_grant("g2", "ann", "report", AccessLevel.READ),
            ],
        )
        self._reject(doc)

    def test_guest_write_grant(self):
        doc = make_doc(
            users=[make_user("vis", Role.GUEST)],
            resources=[make_resource("report")],
            grants=[make_grant("g1", "vis", "report", AccessLevel.WRITE)],
        )
        self._reject(doc)

    def test_session_referencing_unknown_user(self):
        doc = make_doc(sessions=[Session("tok", "ghost", NOW, FUTURE)])
        self._reject(doc)

    def test_duplicate_session_tokens(self):
        doc = make_doc(
            users=[make_user("ann")],
            sessions=[
                Session("tok", "ann", NOW, FUTURE),
                Session("tok", "ann", NOW, FUTURE),
            ],
        )
        self._reject(doc)

    def test_duplicate_resource_ids(self):
        doc = make_doc(resources=[make_resource("report"), make_resource("report")])
        self._reject(doc)

    def test_reused_digest_salt(self):
        ann = make_user("ann")
        bob_bad = make_user("bob")
        object.__setattr__(bob_bad, "password_digest", ann.password_digest)
        self._reject(make_doc(users=[ann, bob_bad]))


class TestLoadRejections:
    def _write(self, tmp_path, payload: dict | str) -> str:
        path = tmp_path / "store.json"
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text)
        return str(path)

    def _valid_wire(self) -> dict:
        return document_to_wire(make_doc(users=[make_user("ann")]))

    def test_truncated_file(self, tmp_path):
        good = serialize_document(make_doc()).decode()
        path = self._write(tmp_path, good[: len(good) // 2])
        with pytest.raises(ParseFailure) as excinfo:
            load(path)
        assert excinfo.value.line is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load(tmp_path / "absent.json")

    def test_unknown_version(self, tmp_path):
        wire = self._valid_wire()
        wire["version"] = 99
        with pytest.raises(UnsupportedVersion):
            load(self._write(tmp_path, wire))

    def test_duplicate_case_folded_ids_rejected_on_load(self, tmp_path):
        wire = self._valid_wire()
        clone = json.loads(json.dumps(wire["users"][1]))
        clone["user_id"] = "ANN"
        wire["users"].append(clone)
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_outsider_role_rejected_on_load(self, tmp_path):
        wire = self._valid_wire()
        wire["users"][1]["role"] = "outsider"
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_admin_level_grant_rejected_on_load(self, tmp_path):
        wire = self._valid_wire()
        wire["resources"] = [
            {
                "resource_id": "r1",
                "display_name": "R1",
                "data_class": "general",
                "menu_group": "staff_menu",
                "required_level": "read",
                "description": None,
            }
        ]
        wire["grants"] = [
            {
                "grant_id": "g1",
                "user_id": "ann",
                "resource_id": "r1",
                "level": "admin",
                "expiry": None,
                "granted_by": "root",
                "granted_at": "2026-06-01T12:00:00Z",
            }
        ]
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_admin_menu_level_mismatch_rejected_on_load(self, tmp_path):
        wire = self._valid_wire()
        wire["resources"] = [
            {
                "resource_id": "panel",
                "display_name": "Panel",
                "data_class": "sensitive",
                "menu_group": "admin_menu",
                "required_level": "read",
                "description": None,
            }
        ]
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_non_object_top_level(self, tmp_path):
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, "[1, 2, 3]"))

    def test_bad_timestamp(self, tmp_path):
        wire = self._valid_wire()
        wire["users"][0]["created_at"] = "not-a-date"
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_bad_base64(self, tmp_path):
        wire = self._valid_wire()
        wire["users"][0]["password_digest"]["salt"] = "!!!"
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_short_salt(self, tmp_path):
        wire = self._valid_wire()
        wire["users"][0]["password_digest"]["salt"] = "c2hvcnQ="  # 5 bytes
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_negative_ttl(self, tmp_path):
        wire = self._valid_wire()
        wire["config"]["session_ttl_seconds"] = -5
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_negative_recovery_failures(self, tmp_path):
        wire = self._valid_wire()
        wire["users"][1]["recovery_failures"] = -1
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_unknown_enum_values(self, tmp_path):
        wire = self._valid_wire()
        wire["users"][0]["role"] = "wizard"
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))

    def test_unknown_top_level_key(self, tmp_path):
        wire = self._valid_wire()
        wire["extra"] = True
        with pytest.raises(ValidationFailure):
            load(self._write(tmp_path, wire))


class TestV1Format:
    """The v1 files on disk, pinned byte for byte.  The fixtures under
    ``tests/data`` were written by an earlier release of this code; any change
    to the wire form of a record, in either direction, shows up here."""

    STORE = DATA / "store_v1.json"
    AUDIT = DATA / "audit_v1.jsonl"

    def _wire(self) -> dict:
        return json.loads(self.STORE.read_text())

    def test_store_round_trips_byte_identically(self):
        assert serialize_document(load(self.STORE)) == self.STORE.read_bytes()

    def test_store_decodes_to_literal_values(self):
        doc = load(self.STORE)
        assert doc.config == PolicyConfig(
            multi_admin=True,
            self_registration=SelfRegistrationMode.PENDING_APPROVAL,
            allow_self_password_change=False,
            session_ttl_seconds=900,
            log_denials=False,
        )
        assert [(u.user_id, u.role, u.status, u.recovery_failures) for u in doc.users] == [
            ("root", Role.ADMINISTRATOR, UserStatus.ACTIVE, 0),
            ("deputy", Role.ADMINISTRATOR, UserStatus.DISABLED, 0),
            ("maria.m", Role.MANAGER, UserStatus.ACTIVE, 2),
            ("sam_staff", Role.STAFF, UserStatus.ACTIVE, 0),
            ("gus-guest", Role.GUEST, UserStatus.PENDING, 0),
        ]
        assert doc.users[0].password_digest == CredentialDigest(
            algorithm="pbkdf2-sha256",
            salt=bytes(range(17, 33)),
            digest=base64.b64decode("t8rXRh2w7gsl4UcZ+re37v+EMQkxR0wHbtcP/Ic4xd0="),
            cost=1,
        )
        assert doc.users[2].hint_question == "premi\u00e8re \u00e9cole?"
        assert doc.grants[0] == SpecialGrant(
            "g1", "sam_staff", "budget", AccessLevel.READ,
            datetime(2026, 7, 1, 12, tzinfo=timezone.utc), "root", datetime(2026, 6, 1, 13, tzinfo=timezone.utc),
        )
        assert [g.expiry for g in doc.grants[1:]] == [None, None]
        assert doc.grants[2].granted_at == datetime(2026, 6, 1, 15, 0, 0, 250000, tzinfo=timezone.utc)
        assert [r.description for r in doc.resources] == ["Landing page", None, "", None, "Account admin"]
        assert doc.resources[2] == Resource(
            "budget", "Budget \u2014 Q3", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS, AccessLevel.READ, ""
        )
        assert doc.sessions == (
            Session(
                "tok-" + "A" * 28, "maria.m",
                datetime(2026, 6, 1, 16, tzinfo=timezone.utc), datetime(2026, 6, 1, 16, 15, tzinfo=timezone.utc),
            ),
        )

    def test_absent_optional_fields_decode_to_their_defaults(self):
        wire = self._wire()
        del wire["users"][2]["recovery_failures"]
        del wire["grants"][0]["expiry"]
        del wire["resources"][0]["description"]
        doc = loads(json.dumps(wire).encode())
        assert doc.users[2].recovery_failures == 0
        assert doc.grants[0].expiry is None
        assert doc.resources[0].description is None

    def test_audit_events_decode_to_literal_values(self, tmp_path):
        path = tmp_path / "x.audit.jsonl"
        shutil.copyfile(self.AUDIT, path)
        at = datetime(2026, 6, 1, 12, tzinfo=timezone.utc)
        assert FileAuditLog(path).events() == [
            AuditEvent(1, at, "system", "user_created", {"role": "administrator", "user_id": "root"}),
            AuditEvent(2, at + timedelta(minutes=5, microseconds=1000), "root", "role_changed",
                       {"from": "staff", "to": "manager", "user_id": "maria.m"}),
            AuditEvent(3, at + timedelta(minutes=10, microseconds=2000), "root", "grant_issued", {
                "expiry": "2026-07-01T12:00:00Z", "grant_id": "g1", "level": "read",
                "resource_id": "budget", "user_id": "sam_staff",
            }),
            AuditEvent(4, at + timedelta(minutes=15, microseconds=3000), "maria.m", "login_succeeded",
                       {"user_id": "maria.m"}),
            AuditEvent(5, at + timedelta(minutes=20, microseconds=4000), "sam_staff", "access_denied", {}),
            AuditEvent(6, at + timedelta(minutes=25, microseconds=5000), "anonymous", "recovery_failed",
                       {"cause": "premi\u00e8re", "user_id": "maria.m"}),
        ]

    def test_audit_append_writes_a_literal_line(self, tmp_path):
        path = tmp_path / "x.audit.jsonl"
        shutil.copyfile(self.AUDIT, path)
        at = datetime(2026, 6, 2, 9, 30, 0, 500, tzinfo=timezone.utc)
        FileAuditLog(path).append(AuditEntry("root", "grant_revoked", {"grant_id": "g1", "user_id": "sam_staff"}), at)
        assert path.read_bytes() == self.AUDIT.read_bytes() + (
            b'{"actor": "root", "at": "2026-06-02T09:30:00.000500Z", '
            b'"detail": {"grant_id": "g1", "user_id": "sam_staff"}, "kind": "grant_revoked", "seq": 7}\n'
        )

    @pytest.mark.parametrize("field, value", [
        ("seq", True), ("seq", "7"), ("at", "soon"), ("actor", None), ("kind", 5),
        ("detail", []), ("detail", {"k": 1}), ("detail", None), ("at", "0001-01-01T00:00:00+01:00"),
    ])
    def test_malformed_audit_line_is_skipped(self, tmp_path, field, value):
        line = {"actor": "root", "at": "2026-06-02T00:00:00Z", "detail": {}, "kind": "x", "seq": 7, field: value}
        path = tmp_path / "x.audit.jsonl"
        path.write_bytes(self.AUDIT.read_bytes() + json.dumps(line).encode() + b"\n")
        assert [e.seq for e in FileAuditLog(path).events()] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("path, value, message", BAD_FIELDS, ids=[
        ".".join(map(str, path)) + ("=absent" if value is _ABSENT else f"={value!r}") for path, value, _ in BAD_FIELDS
    ])
    def test_exact_load_messages(self, path, value, message):
        wire = self._wire()
        *parents, key = path
        target = wire
        for step in parents:
            target = target[step]
        if value is _ABSENT:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ValidationFailure) as excinfo:
            loads(json.dumps(wire).encode())
        assert excinfo.value.message == message

    @pytest.mark.parametrize(
        "record, breakage, message",
        [
            ("users", {"recovery_failures": "1", "user_id": 1},
             "users[1]: field 'recovery_failures' must be an integer"),
            ("grants", {"expiry": 1, "grant_id": 1}, "grants[1]: field 'expiry' must be a string"),
            ("resources", {"description": 1, "resource_id": 1},
             "resources[1]: field 'description' must be a string or null"),
            ("sessions", {"token": 1, "user_id": 1}, "sessions[1]: field 'token' must be a string"),
        ],
        ids=["users", "grants", "resources", "sessions"],
    )
    def test_first_problem_in_a_record_is_the_one_reported(self, record, breakage, message):
        wire = self._wire()
        wire[record].append(dict(wire[record][0], **breakage))
        wire[record][1], wire[record][-1] = wire[record][-1], wire[record][1]
        with pytest.raises(ValidationFailure) as excinfo:
            loads(json.dumps(wire).encode())
        assert excinfo.value.message == message


# Each record's identifying field: a store-wide refusal names the record by it.
_ID_KEYS = {"users": "user_id", "grants": "grant_id", "resources": "resource_id", "sessions": "user_id"}


def _field_sweep():
    """(location, field, value) for every field of every record in the v1
    store: each key deleted, and set to one value of every JSON type."""
    wire = json.loads((DATA / "store_v1.json").read_text())
    records = [("config", wire["config"])]
    records += [(f"{key}[{i}]", record) for key in _ID_KEYS for i, record in enumerate(wire[key])]
    for where, record in records:
        for field in record:
            for value in (_ABSENT, None, True, 7, 1.5, "x", [], {}):
                yield where, field, value


class TestCorruptFieldSweep:
    def test_every_corrupt_field_is_refused_cleanly_and_names_its_record(self):
        original = json.loads((DATA / "store_v1.json").read_text())
        cases = 0
        for where, field, value in _field_sweep():
            wire = json.loads(json.dumps(original))
            key, _, index = where.partition("[")
            record = wire[key][int(index[:-1])] if index else wire[key]
            names = {where}
            if key in _ID_KEYS:
                names.add(f"'{record[_ID_KEYS[key]]}'")
            if isinstance(value, str):
                names.add(f"'{value}'")
            if value is _ABSENT:
                del record[field]
            else:
                record[field] = value
            cases += 1
            try:
                loads(json.dumps(wire).encode())
            except (ValidationFailure, UnsupportedVersion, ParseFailure) as exc:
                assert any(name in exc.message for name in names), (where, field, value, exc.message)
        assert cases == 840


class TestFuzzedLoader:
    def test_byte_mutants_never_crash(self):
        rng = random.Random(99)
        base = bytearray(serialize_document(make_doc(
            users=[make_user("ann", Role.STAFF)],
            resources=[make_resource("report")],
            grants=[make_grant("g1", "ann", "report")],
        )))
        for _ in range(300):
            mutant = bytearray(base)
            for _ in range(rng.randint(1, 8)):
                op = rng.randrange(3)
                pos = rng.randrange(len(mutant))
                if op == 0:
                    mutant[pos] = rng.randrange(256)
                elif op == 1:
                    del mutant[pos]
                else:
                    mutant.insert(pos, rng.randrange(256))
            try:
                loads(bytes(mutant))
            except GatekeeperError:
                pass  # clean, typed failure is the contract


class TestAtomicSave:
    def test_failed_rename_leaves_old_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        save(make_doc(), path)
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(IoFailure):
            save(make_doc(users=[make_user("ann")]), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        load(path)  # prior snapshot still parses and validates
        leftovers = [p for p in tmp_path.iterdir() if p.name != "store.json"]
        assert leftovers == []  # temp file cleaned up

    def test_failed_write_leaves_old_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        save(make_doc(), path)
        before = path.read_bytes()

        def boom(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", boom)
        with pytest.raises(IoFailure):
            save(make_doc(users=[make_user("ann")]), path)
        monkeypatch.undo()
        assert path.read_bytes() == before

    def test_a_short_write_is_resumed(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        doc = make_doc(users=[make_user("ann")])
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:100]))
        save(doc, path)
        monkeypatch.undo()
        assert path.read_bytes() == serialize_document(doc)

    def test_validation_failure_never_touches_disk(self, tmp_path):
        path = tmp_path / "store.json"
        save(make_doc(), path)
        before = path.read_bytes()
        bad = make_doc(users=[make_user("ann"), make_user("ANN")])
        with pytest.raises(ValidationFailure):
            save(bad, path)
        assert path.read_bytes() == before


# Block sizes for the audit reader: small ones put block edges inside lines.
TAIL_BLOCKS = (1, 7, 64, store._TAIL_BLOCK)


@pytest.fixture(params=["memory", "file"])
def audit_log(request, tmp_path):
    """Each audit log, empty; both must behave the same."""
    return MemoryAuditLog() if request.param == "memory" else FileAuditLog(tmp_path / "x.audit.jsonl")


class TestAuditLog:
    def test_sequence(self, audit_log):
        first = audit_log.append(AuditEntry("root", "user_created", {"user_id": "ann"}), NOW)
        second = audit_log.append(AuditEntry("root", "user_created", {"user_id": "bob"}), NOW)
        assert (first.seq, second.seq) == (1, 2)
        assert audit_log.events() == [first, second]

    def test_appends_and_queries(self, audit_log):
        audit_log.append(AuditEntry("root", "login_failed", {"cause": "bad_password"}), NOW)
        audit_log.append(AuditEntry("root", "login_succeeded", {}), NOW)
        audit_log.append(AuditEntry("ann", "login_failed", {"cause": "unknown_user"}), NOW)
        failed = audit_log.query(kind="login_failed")
        assert [e.actor for e in failed] == ["root", "ann"]
        assert [e.seq for e in audit_log.events()] == [1, 2, 3]

    def test_file_log_resumes_sequence_across_instances(self, tmp_path):
        path = tmp_path / "x.audit.jsonl"
        FileAuditLog(path).append(AuditEntry("root", "a", {}), NOW)
        event = FileAuditLog(path).append(AuditEntry("root", "b", {}), NOW)
        assert event.seq == 2
        assert [e.seq for e in FileAuditLog(path).events()] == [1, 2]

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "x.audit.jsonl"
        log = FileAuditLog(path)
        log.append(AuditEntry("root", "a", {"k": "v"}), NOW)
        log.append(AuditEntry("root", "b", {}), NOW)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        parsed = json.loads(lines[0])
        assert set(parsed) == {"seq", "at", "actor", "kind", "detail"}

    def test_torn_tail_is_skipped(self, tmp_path, monkeypatch):
        for block in TAIL_BLOCKS:
            monkeypatch.setattr(store, "_TAIL_BLOCK", block)
            path = tmp_path / f"{block}.audit.jsonl"
            log = FileAuditLog(path)
            log.append(AuditEntry("root", "a", {}), NOW)
            with open(path, "ab") as handle:
                handle.write(b'{"seq": 2, "at": "2026-')  # crash mid-write
            resumed = FileAuditLog(path)
            assert [e.seq for e in resumed.events()] == [1], block

    def test_append_after_torn_tail_does_not_glue(self, tmp_path, monkeypatch):
        for block in TAIL_BLOCKS:
            monkeypatch.setattr(store, "_TAIL_BLOCK", block)
            path = tmp_path / f"{block}.audit.jsonl"
            log = FileAuditLog(path)
            log.append(AuditEntry("root", "a", {}), NOW)
            with open(path, "ab") as handle:
                handle.write(b'{"seq": 2, "at": "2026-')
            resumed = FileAuditLog(path)
            resumed.append(AuditEntry("root", "b", {}), NOW)
            assert [(e.seq, e.kind) for e in resumed.events()] == [(1, "a"), (2, "b")], block

    def test_audit_path_is_a_sibling_with_audit_suffix(self, tmp_path):
        assert audit_path_for(tmp_path / "mis.json") == tmp_path / "mis.audit.jsonl"
        assert audit_path_for(tmp_path / "db.v1.json") == tmp_path / "db.v1.audit.jsonl"

    def test_time_range_query(self, audit_log):
        audit_log.append(AuditEntry("root", "a", {}), PAST)
        audit_log.append(AuditEntry("root", "b", {}), NOW)
        audit_log.append(AuditEntry("root", "c", {}), FUTURE)
        assert [e.kind for e in audit_log.query(since=NOW)] == ["b", "c"]
        assert [e.kind for e in audit_log.query(until=NOW)] == ["a", "b"]
        assert [e.kind for e in audit_log.query(limit=1)] == ["c"]

    def test_undecodable_event_is_skipped_and_its_seq_not_reused(self, audit_log):
        audit_log.append(AuditEntry("root", "a", {"n": 1}), NOW)  # detail values must be strings
        event = audit_log.append(AuditEntry("root", "b", {}), NOW)
        assert event.seq == 2
        assert audit_log.events() == [event]

    @pytest.mark.parametrize(
        "field, value", [("detail", {"n": 1}), ("at", "0001-01-01T00:00:00+01:00")], ids=["detail", "out-of-range-at"]
    )
    def test_reopened_log_does_not_reuse_a_skipped_seq(self, tmp_path, field, value):
        path = tmp_path / "x.audit.jsonl"
        skipped = {"actor": "root", "at": "2026-06-02T00:00:00Z", "detail": {}, "kind": "x", "seq": 7, field: value}
        path.write_bytes((DATA / "audit_v1.jsonl").read_bytes() + json.dumps(skipped).encode() + b"\n")
        assert FileAuditLog(path).append(AuditEntry("root", "b", {}), NOW).seq == 8
        assert [e.seq for e in FileAuditLog(path).events()] == [1, 2, 3, 4, 5, 6, 8]

    def test_deeply_nested_line_is_skipped(self, tmp_path):
        path = tmp_path / "x.audit.jsonl"
        path.write_bytes((DATA / "audit_v1.jsonl").read_bytes() + b"[" * 100_000 + b"]" * 100_000 + b"\n")
        log = FileAuditLog(path)
        assert [e.seq for e in log.events()] == [1, 2, 3, 4, 5, 6]
        assert log.append(AuditEntry("root", "b", {}), NOW).seq == 7

    def test_each_append_reads_only_the_last_line(self, tmp_path, monkeypatch):
        path = tmp_path / "x.audit.jsonl"
        shutil.copyfile(DATA / "audit_v1.jsonl", path)
        consumed, real_last_seq = [], store._last_seq

        def counted(lines):
            consumed.append(0)
            for line in lines:
                consumed[-1] += 1
                yield line

        monkeypatch.setattr(store, "_last_seq", lambda lines: real_last_seq(counted(lines)))
        log = FileAuditLog(path)
        assert [log.append(AuditEntry("root", "a", {}), NOW).seq for _ in range(3)] == [7, 8, 9]
        assert FileAuditLog(path).append(AuditEntry("other", "b", {}), NOW).seq == 10
        assert log.append(AuditEntry("root", "c", {}), NOW).seq == 11
        assert consumed == [1] * 5  # every append, whichever log made the one before
        decoded, real_decode = [], store._decode_event
        monkeypatch.setattr(store, "_decode_event", lambda line: decoded.append(line) or real_decode(line))
        assert [e.seq for e in log.query(limit=2)] == [10, 11]
        assert len(decoded) == 2

    def test_concurrent_appends_from_many_logs_never_reuse_a_seq(self, tmp_path):
        path = tmp_path / "x.audit.jsonl"
        shared = FileAuditLog(path)
        logs = [shared, shared, FileAuditLog(path), FileAuditLog(path), FileAuditLog(path)]
        errors = []

        def appender(log, n):
            try:
                for i in range(20):
                    log.append(AuditEntry(f"writer{n}", "x", {"i": str(i)}), NOW)
            except Exception as exc:  # reported below; a thread's exception is otherwise lost
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=appender, args=(log, n)) for n, log in enumerate(logs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert [e.seq for e in FileAuditLog(path).events()] == list(range(1, 101))

    def test_opening_a_file_log_decodes_no_event(self, tmp_path, monkeypatch):
        path = tmp_path / "x.audit.jsonl"
        shutil.copyfile(DATA / "audit_v1.jsonl", path)

        def refuse(*args):
            raise AssertionError("an event was decoded")

        monkeypatch.setattr(store, "_from_wire", refuse)
        assert FileAuditLog(path).append(AuditEntry("root", "b", {}), NOW).seq == 7

    def test_building_a_file_log_or_opening_a_store_opens_no_audit_file(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        save(make_doc(), path)
        shutil.copyfile(DATA / "audit_v1.jsonl", audit_path_for(path))

        def refuse(*args, **kwargs):
            raise AssertionError("the audit file was opened")

        monkeypatch.setattr(store, "open", refuse, raising=False)
        FileAuditLog(audit_path_for(path))
        Gatekeeper.open(path)


_INSTANTS = [PAST, NOW, FUTURE]
_UNDECODABLE = [
    b"not json",
    b"\xff\xfe",
    b"[" * 50,
    b'{"seq": 3}',
    b'{"actor": "root", "at": "2026-06-02T00:00:00Z", "detail": {"n": 1}, "kind": "a", "seq": 4}',
]


@st.composite
def audit_file_bytes(draw) -> bytes:
    """A log file's bytes: encoded events mixed with lines that do not
    decode, perhaps ending in a line torn mid-write."""
    log = MemoryAuditLog()
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 4)) == 0:
            log._stored.append(draw(st.sampled_from(_UNDECODABLE)))
        else:
            entry = AuditEntry(draw(st.sampled_from(["root", "ann"])), draw(st.sampled_from(["a", "b", "c"])), {})
            log.append(entry, draw(st.sampled_from(_INSTANTS)))
    content = b"".join(line + b"\n" for line in log._stored)
    if content and draw(st.booleans()):
        content = content[: -draw(st.integers(2, len(log._stored[-1])))]  # the torn tail has no newline
    return content


class TestNewestFirstQuery:
    """``query`` reads the log from its newest line; it must answer exactly as
    filtering every event in order and keeping the last ``limit`` would."""

    @staticmethod
    def whole_log_query(content, kind=None, actor=None, since=None, until=None, limit=None):
        """The query answered from every line of ``content``, split and decoded
        oldest first without the log's reader."""
        selected = [
            e
            for e in map(store._decode_event, content.split(b"\n"))
            if e is not None
            and (kind is None or e.kind == kind)
            and (actor is None or e.actor == actor)
            and (since is None or e.at >= since)
            and (until is None or e.at <= until)
        ]
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected

    @settings(max_examples=300, deadline=None)
    @given(
        content=audit_file_bytes(),
        backend=st.sampled_from(["memory", "file"]),
        kind=st.sampled_from([None, "a", "b", "c", "z"]),
        actor=st.sampled_from([None, "root", "ann"]),
        since=st.sampled_from([None, *_INSTANTS]),
        until=st.sampled_from([None, *_INSTANTS]),
        limit=st.one_of(st.none(), st.integers(-2, 40)),
        block=st.sampled_from(TAIL_BLOCKS),
    )
    def test_matches_filtering_the_whole_log(
        self, tmp_path_factory, content, backend, kind, actor, since, until, limit, block
    ):
        if backend == "memory":
            log = MemoryAuditLog()
            log._stored.extend(content.splitlines())
        else:
            path = tmp_path_factory.getbasetemp() / "differential.audit.jsonl"
            path.write_bytes(content)
            log = FileAuditLog(path)
        with mock.patch.object(store, "_TAIL_BLOCK", block):
            got = log.query(kind=kind, actor=actor, since=since, until=until, limit=limit)
        assert got == self.whole_log_query(content, kind, actor, since, until, limit)
        assert log.events() == self.whole_log_query(content)

    @pytest.mark.parametrize("block", TAIL_BLOCKS)
    def test_every_cut_of_a_history(self, tmp_path, monkeypatch, block):
        """A crash can leave the log cut at any byte.  At every cut, a query
        answers from the lines that survive whole, and the next append takes a
        number above every one in the file and starts a line of its own."""
        monkeypatch.setattr(store, "_TAIL_BLOCK", block)
        path = tmp_path / "x.audit.jsonl"
        history = FileAuditLog(path)
        for actor, kind, detail, at in [
            ("root", "a", {}, PAST),
            ("ann", "b", {"user_id": "ann"}, NOW),
            ("root", "b", {}, NOW),
            ("ann", "a", {}, FUTURE),
            ("root", "c", {"n": 1}, FUTURE),  # detail values must be strings: numbered, never decoded
        ]:
            history.append(AuditEntry(actor, kind, detail), at)
        content = path.read_bytes()
        for cut in range(len(content) + 1):
            kept = content[:cut]
            path.write_bytes(kept)
            log = FileAuditLog(path)
            for filters in ({}, {"kind": "b"}, {"actor": "root", "limit": 1}, {"since": NOW, "limit": 2}):
                assert log.query(**filters) == self.whole_log_query(kept, **filters), (cut, filters)
            numbered = [0]
            for line in kept.split(b"\n"):
                with contextlib.suppress(ValueError):
                    numbered.append(json.loads(line)["seq"])
            event = log.append(AuditEntry("root", "z", {}), NOW)
            assert event.seq == max(numbered) + 1, cut
            assert log.events() == [*self.whole_log_query(kept), event], cut

    def test_a_query_closes_the_file_before_it_returns(self, tmp_path, monkeypatch):
        path = tmp_path / "x.audit.jsonl"
        shutil.copyfile(DATA / "audit_v1.jsonl", path)
        handles = []
        monkeypatch.setattr(store, "open", lambda *args: handles.append(open(*args)) or handles[-1], raising=False)
        assert [e.seq for e in FileAuditLog(path).query(limit=1)] == [6]
        assert len(FileAuditLog(path).query()) == 6
        assert len(handles) == 2
        assert all(handle.closed for handle in handles)

    def test_a_limited_query_decodes_only_the_lines_it_needs(self, monkeypatch):
        log = MemoryAuditLog()
        for i in range(100):
            log.append(AuditEntry("root", "ab"[i % 2], {}), NOW)
        decoded = []
        real = store._decode_event
        monkeypatch.setattr(store, "_decode_event", lambda line: decoded.append(line) or real(line))
        assert [e.seq for e in log.query(kind="a", limit=3)] == [95, 97, 99]
        assert len(decoded) == 6


class TestNewestFirstReader:
    """The audit reader yields a file's ``\\n``-separated lines newest first:
    exactly ``content.split(b"\\n")`` reversed, whatever the block size."""

    @staticmethod
    def read(content: bytes) -> list[bytes]:
        return list(store._newest_first(io.BytesIO(content)))

    @pytest.mark.parametrize("block", TAIL_BLOCKS)
    @pytest.mark.parametrize(
        "shape",
        [
            lambda block: b"",
            lambda block: b'{"seq": 1}\n{"seq": 2',
            lambda block: b"x" * (3 * block + 1) + b"\nlast\n",
            lambda block: b"ab\n" * block,
            lambda block: b"a\rb\r\nc\n",
        ],
        ids=["empty-file", "no-final-newline", "line-longer-than-a-block", "size-a-multiple-of-the-block", "bare-cr"],
    )
    def test_edges(self, monkeypatch, shape, block):
        monkeypatch.setattr(store, "_TAIL_BLOCK", block)
        content = shape(block)
        assert self.read(content) == content.split(b"\n")[::-1]

    def test_a_line_longer_than_a_block_is_read_in_doubling_steps(self, monkeypatch):
        reads = []

        class Counted(io.BytesIO):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

        monkeypatch.setattr(store, "_TAIL_BLOCK", 8)
        content = b"x" * 8000 + b"\nlast\n"
        assert list(store._newest_first(Counted(content))) == content.split(b"\n")[::-1]
        assert len(reads) < 15  # not one read, and one copy of the line so far, per 8 bytes
        assert sum(reads) == len(content)

    @settings(max_examples=300, deadline=None)
    @given(
        content=st.lists(st.sampled_from([b"\n", b"a", b"bc", b"\r", b"x" * 70])).map(b"".join),
        block=st.integers(1, 80),
    )
    def test_matches_splitting_the_whole_file(self, content, block):
        with mock.patch.object(store, "_TAIL_BLOCK", block):
            assert self.read(content) == content.split(b"\n")[::-1]


class TestAuditRoundTripAllKinds:
    def test_every_event_kind_survives_the_file_log(self, tmp_path, clock):
        """Exercise every audit-emitting operation against a file-backed log
        and confirm nothing is dropped on re-read (a non-string detail value
        would be skipped silently and surface as a seq gap here)."""
        from gatekeeper.app import Gatekeeper
        from gatekeeper.engine import ANONYMOUS
        from gatekeeper.model import DataClass, MenuGroup, SelfRegistrationMode, PolicyConfig

        path = tmp_path / "store.json"
        gk = Gatekeeper.bootstrap(
            "root", "rootpass1", hint_question="pet?", hint_answer="rex",
            config=PolicyConfig(self_registration=SelfRegistrationMode.AUTO_GUEST),
            store_path=path, clock=clock,
        ).gatekeeper
        admin = gk.principal_for("root")
        gk.add_resource(admin, make_resource("rep", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS))
        gk.create_user(admin, "alice", "password1", Role.STAFF, "q?", "a")
        gk.self_register("walkin", "password1", "q?", "a")
        grant = gk.grant_special(admin, "alice", "rep", AccessLevel.WRITE, FUTURE)
        gk.revoke_grant(admin, grant.grant_id)
        gk.set_role(admin, "alice", Role.MANAGER)
        gk.set_status(admin, "alice", UserStatus.DISABLED)
        gk.set_status(admin, "alice", UserStatus.ACTIVE)
        session = gk.login("alice", "password1")
        gk.change_password(session.token, "password1", "password2")
        gk.logout(session.token)
        with pytest.raises(Exception):
            gk.login("alice", "wrong")
        gk.recover_begin("alice")
        with pytest.raises(Exception):
            gk.recover_complete("alice", "wrong")
        gk.recover_complete("alice", "a")
        gk.check(ANONYMOUS, "rep", AccessLevel.READ)  # denial, logged

        events = FileAuditLog(audit_path_for(path)).events()
        seqs = [e.seq for e in events]
        assert seqs == list(range(1, len(seqs) + 1))
        kinds = {e.kind for e in events}
        assert kinds == {
            "user_created", "user_registered", "resource_added",
            "grant_issued", "grant_revoked", "role_changed", "status_changed",
            "login_succeeded", "login_failed", "logged_out", "password_changed",
            "recovery_started", "recovery_failed", "recovery_completed",
            "access_denied",
        }
        for event in events:
            assert all(isinstance(k, str) and isinstance(v, str) for k, v in event.detail.items())


class TestWriteAheadOrdering:
    def test_audit_written_before_snapshot_and_gap_detectable(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        result = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=FakeClock())
        gk = result.gatekeeper
        admin = gk.principal_for("root")

        import gatekeeper.app as app_module

        def boom(doc, target):
            raise IoFailure("simulated crash after audit append, before snapshot save")

        monkeypatch.setattr(app_module, "save", boom)
        with pytest.raises(IoFailure):
            gk.create_user(admin, "ann", "password1", Role.STAFF)
        monkeypatch.undo()

        # The audit file recorded the intent; the snapshot never did.
        replayed = Gatekeeper.open(path)
        audited_creates = {
            e.detail.get("user_id")
            for e in FileAuditLog(audit_path_for(path)).events()
            if e.kind == "user_created"
        }
        stored_ids = {u.user_id for u in replayed.snapshot.users}
        assert "ann" in audited_creates
        assert "ann" not in stored_ids  # audit is a strict superset: the gap is visible

    def test_in_memory_state_not_published_when_save_fails(self, tmp_path, monkeypatch):
        path = tmp_path / "store.json"
        result = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=FakeClock())
        gk = result.gatekeeper
        admin = gk.principal_for("root")

        import gatekeeper.app as app_module

        calls = {"n": 0}
        real_save = app_module.save

        def boom(doc, target):
            calls["n"] += 1
            raise IoFailure("no space")

        monkeypatch.setattr(app_module, "save", boom)
        with pytest.raises(IoFailure):
            gk.create_user(admin, "ann", "password1", Role.STAFF)
        monkeypatch.setattr(app_module, "save", real_save)
        assert calls["n"] == 1
        assert all(u.user_id != "ann" for u in gk.snapshot.users)
        record = gk.create_user(admin, "ann2", "password1", Role.STAFF)  # engine still usable
        assert record.user_id == "ann2"


class TestSessionPruningOnSave:
    def test_expired_sessions_dropped_by_next_mutation(self, clock):
        result = Gatekeeper.bootstrap("root", "rootpass1", clock=clock)
        gk = result.gatekeeper
        admin = gk.principal_for("root")
        session = gk.login("root", "rootpass1")
        clock.advance(seconds=gk.config.session_ttl_seconds + 60)
        gk.create_user(admin, "ann", "password1", Role.STAFF)
        assert all(s.token != session.token for s in gk.snapshot.sessions)

    def test_session_at_its_expiry_instant_is_kept(self, clock):
        gk = Gatekeeper.bootstrap("root", "rootpass1", clock=clock).gatekeeper
        admin = gk.principal_for("root")
        session = gk.login("root", "rootpass1")
        clock.advance(seconds=gk.config.session_ttl_seconds)
        gk.create_user(admin, "ann", "password1", Role.STAFF)
        assert session in gk.snapshot.sessions
