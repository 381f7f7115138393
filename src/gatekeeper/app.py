"""The embeddable engine façade.

A ``Gatekeeper`` owns one published store snapshot and funnels every
mutation through a single writer lock: audit lines first (write-ahead), then
the snapshot file, then the in-memory publish.  Decisions and menus read the
last fully published snapshot without the lock, but resolving a bearer token
slides its session's expiry, which is a commit under the writer lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from . import directory, sessions
from .credentials import DEFAULT_COST, generate_password
from .engine import (
    Decision,
    MenuTree,
    Principal,
    decide,
    principal_for,
    visible_menu,
)
from .errors import GatekeeperError, UnknownUser
from .model import (
    AccessLevel,
    PolicyConfig,
    Resource,
    Role,
    Session,
    SpecialGrant,
    StoreDocument,
    UserRecord,
    UserStatus,
    find_user,
)
from .store import (
    AuditEntry,
    AuditEvent,
    FileAuditLog,
    MemoryAuditLog,
    audit_path_for,
    load,
    save,
)

Clock = Callable[[], datetime]


def system_clock() -> datetime:
    return datetime.now(timezone.utc)


@dataclass
class BootstrapResult:
    gatekeeper: "Gatekeeper"
    admin: UserRecord
    password: str


class Gatekeeper:
    """Policy engine, user directory and session manager over one store."""

    def __init__(
        self,
        document: StoreDocument,
        *,
        store_path: str | Path | None = None,
        clock: Clock | None = None,
        digest_cost: int = DEFAULT_COST,
    ):
        self._doc = document
        self.store_path = Path(store_path) if store_path is not None else None
        self.audit = FileAuditLog(audit_path_for(self.store_path)) if self.store_path else MemoryAuditLog()
        self.clock = clock or system_clock
        self.digest_cost = digest_cost
        self._write_lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        admin_id: str,
        password: str | None = None,
        *,
        hint_question: str = "",
        hint_answer: str = "",
        config: PolicyConfig | None = None,
        store_path: str | Path | None = None,
        clock: Clock | None = None,
        digest_cost: int = DEFAULT_COST,
    ) -> BootstrapResult:
        """Create a fresh store holding its first administrator.

        Nothing in the access model can mint the first administrator, so
        bootstrap builds the record itself, audited as 'system', and commits
        it through the same writer path as every other mutation.
        When no password is supplied a random one is generated; either way
        it is handed back for explicit echo to the operator.  An existing
        store at ``store_path`` is refused, not replaced.
        """
        if store_path is not None and Path(store_path).exists():
            raise GatekeeperError(f"store already exists at {store_path}")
        if password is None:
            password = generate_password()

        def add_first_admin(doc: StoreDocument, now: datetime):
            directory.check_password_strength(password)
            directory.check_new_id(doc, admin_id)
            admin = directory.build_user_record(
                admin_id, password, Role.ADMINISTRATOR, hint_question, hint_answer,
                created_by="system", status=UserStatus.ACTIVE, now=now, digest_cost=digest_cost,
            )
            detail = {"user_id": admin_id, "role": "administrator"}
            entry = AuditEntry(actor="system", kind="user_created", detail=detail)
            return replace(doc, users=(admin,)), admin, (entry,)

        # The empty starting snapshot is never saved: it holds no administrator.
        empty = StoreDocument(config=config or PolicyConfig())
        gk = cls(empty, store_path=store_path, clock=clock, digest_cost=digest_cost)
        admin = gk._apply(add_first_admin)
        return BootstrapResult(gatekeeper=gk, admin=admin, password=password)

    @classmethod
    def open(
        cls,
        store_path: str | Path,
        *,
        clock: Clock | None = None,
        digest_cost: int = DEFAULT_COST,
    ) -> "Gatekeeper":
        return cls(load(store_path), store_path=store_path, clock=clock, digest_cost=digest_cost)

    # -- snapshot plumbing ---------------------------------------------------

    @property
    def snapshot(self) -> StoreDocument:
        """The last published snapshot; safe to read from any thread."""
        return self._doc

    @property
    def config(self) -> PolicyConfig:
        return self._doc.config

    def _apply(self, mutate: Callable[[StoreDocument, datetime], directory.MutationResult]):
        """Run one serialized mutation; the only place that appends to the
        audit log or commits a snapshot.

        ``mutate`` returns (new snapshot or None, outcome, tuple of audit
        entries, empty when there is nothing to audit).  The entries are
        appended in order, all before the snapshot is saved.  A failure that
        must also change state (a hint mismatch advances its counter, a dead
        session is dropped) returns its error as the outcome, which is raised
        after the new snapshot is committed; an unchanged snapshot is not
        saved.
        """
        now = self.clock()
        with self._write_lock:
            new_doc, outcome, entries = mutate(self._doc, now)
            for entry in entries:
                self.audit.append(entry, now)
            if new_doc is not None and new_doc is not self._doc:
                new_doc = sessions.prune_expired_sessions(new_doc, now)
                if self.store_path:
                    save(new_doc, self.store_path)
                self._doc = new_doc
        if isinstance(outcome, GatekeeperError):
            raise outcome
        return outcome

    # -- user directory ------------------------------------------------------

    def validate_user_id(self, candidate: str) -> GatekeeperError | None:
        return directory.validate_user_id(self._doc, candidate)

    def create_user(
        self,
        actor: Principal,
        user_id: str,
        password: str,
        role: Role,
        hint_question: str = "",
        hint_answer: str = "",
    ) -> UserRecord:
        return self._apply(
            lambda doc, now: directory.create_user(
                doc, actor, user_id, password, role, hint_question, hint_answer,
                now=now, digest_cost=self.digest_cost,
            )
        )

    def self_register(
        self,
        user_id: str,
        password: str,
        hint_question: str = "",
        hint_answer: str = "",
    ) -> UserRecord:
        return self._apply(
            lambda doc, now: directory.self_register(
                doc, user_id, password, hint_question, hint_answer,
                now=now, digest_cost=self.digest_cost,
            )
        )

    def update_user(
        self, actor: Principal, user_id: str, role: Role | None = None, status: UserStatus | None = None
    ) -> UserRecord:
        """Change a user's role, status or both in one commit."""
        return self._apply(lambda doc, now: directory.update_user(doc, actor, user_id, role, status))

    def set_role(self, actor: Principal, user_id: str, new_role: Role) -> UserRecord:
        return self._apply(lambda doc, now: directory.set_role(doc, actor, user_id, new_role))

    def set_status(self, actor: Principal, user_id: str, new_status: UserStatus) -> UserRecord:
        return self._apply(lambda doc, now: directory.set_status(doc, actor, user_id, new_status))

    def grant_special(
        self,
        actor: Principal,
        user_id: str,
        resource_id: str,
        level: AccessLevel,
        expiry: datetime | None = None,
    ) -> SpecialGrant:
        return self._apply(
            lambda doc, now: directory.grant_special(doc, actor, user_id, resource_id, level, expiry, now=now)
        )

    def revoke_grant(self, actor: Principal, grant_id: str) -> None:
        return self._apply(lambda doc, now: directory.revoke_grant(doc, actor, grant_id))

    def list_users(
        self, actor: Principal, role: Role | None = None, status: UserStatus | None = None
    ) -> list[UserRecord]:
        return directory.list_users(self._doc, actor, role, status)

    def list_grants(self, actor: Principal) -> list[SpecialGrant]:
        return directory.list_grants(self._doc, actor)

    def add_resource(self, actor: Principal, resource: Resource) -> Resource:
        return self._apply(lambda doc, now: directory.add_resource(doc, actor, resource))

    def list_resources(self) -> list[Resource]:
        return list(self._doc.resources)

    def principal_for(self, user_id: str) -> Principal:
        """The authenticated principal a user's current record implies."""
        record = find_user(self._doc, user_id)
        if record is None:
            raise UnknownUser(f"no such user: '{user_id}'")
        return principal_for(record)

    # -- authentication ------------------------------------------------------

    def login(self, user_id: str, password: str) -> Session:
        return self._apply(
            lambda doc, now: sessions.login(doc, user_id, password, now=now, digest_cost=self.digest_cost)
        )

    def resolve(self, token: str) -> Principal:
        return self._apply(lambda doc, now: sessions.resolve(doc, token, now=now))

    def logout(self, token: str) -> None:
        return self._apply(lambda doc, now: sessions.logout(doc, token))

    def change_password(self, token: str, old_password: str, new_password: str) -> None:
        return self._apply(
            lambda doc, now: sessions.change_password(
                doc, token, old_password, new_password, now=now, digest_cost=self.digest_cost
            )
        )

    def recover_begin(self, user_id: str) -> str:
        return self._apply(lambda doc, now: sessions.recover_begin(doc, user_id))

    def recover_complete(self, user_id: str, hint_answer: str) -> str:
        return self._apply(
            lambda doc, now: sessions.recover_complete(
                doc, user_id, hint_answer, now=now, digest_cost=self.digest_cost
            )
        )

    # -- decisions -----------------------------------------------------------

    def decide(self, principal: Principal, resource_id: str, level: AccessLevel) -> Decision:
        return decide(self._doc, principal, resource_id, level, self.clock())

    def check(self, principal: Principal, resource_id: str, level: AccessLevel) -> Decision:
        """Like :meth:`decide`, but denials are written to the audit log when
        the policy asks for it.  This is the entry point the CLI and the
        HTTP service use for explicit access checks."""
        decision = self.decide(principal, resource_id, level)
        if not decision.allowed and self.config.log_denials:
            entry = AuditEntry(
                actor=principal.user_id or "anonymous",
                kind="access_denied",
                detail={
                    "resource_id": resource_id,
                    "level": level.value,
                    "reason": decision.reason.value,
                },
            )
            self._apply(lambda doc, now: (None, None, (entry,)))
        return decision

    def visible_menu(self, principal: Principal) -> MenuTree:
        return visible_menu(self._doc, principal, self.clock())

    # -- audit ---------------------------------------------------------------

    def audit_events(
        self,
        *,
        kind: str | None = None,
        actor: str | None = None,
        since: datetime | None = None,
        until: datetime | None = None,
        limit: int | None = None,
    ) -> list[AuditEvent]:
        return self.audit.query(kind=kind, actor=actor, since=since, until=until, limit=limit)
