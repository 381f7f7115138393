"""The embeddable engine façade.

A ``Gatekeeper`` owns one published store snapshot and funnels every
mutation through a single writer lock: audit lines first (write-ahead), then
the snapshot file, then the in-memory publish.  Decisions, menus and bearer
token resolves read the last fully published snapshot without that lock.  A
resolve slides its session's expiry in memory only; the next mutation, or
``persist_slides`` at shutdown, folds the slides into the snapshot it saves.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from . import directory, sessions
from .credentials import generate_password
from .engine import (
    Decision,
    MenuTree,
    Principal,
    decide,
    principal_for,
    visible_menu,
)
from .errors import GatekeeperError, IoFailure, StoreChanged, UnknownUser
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
    store_lock,
)

Clock = Callable[[], datetime]

# The built-in administrator that bootstrap acts as when it creates the first user.
_SYSTEM = Principal(user_id="system", role=Role.ADMINISTRATOR, status=UserStatus.ACTIVE)


def system_clock() -> datetime:
    return datetime.now(timezone.utc)


def _generation(path: Path) -> tuple[int, int, int] | None:
    """The store file's inode, size and mtime; None when there is no file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise IoFailure(f"cannot stat store at {path}: {exc}") from exc
    return st.st_ino, st.st_size, st.st_mtime_ns


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
        generation: tuple[int, int, int] | None = None,
    ):
        """``generation`` is the store file's stamp taken before ``document``
        was read from it; None when there is no file yet."""
        self._doc = document
        self.store_path = Path(store_path) if store_path is not None else None
        self.audit = FileAuditLog(audit_path_for(self.store_path)) if self.store_path else MemoryAuditLog()
        self.clock = clock or system_clock
        self._write_lock = threading.Lock()
        # The store file as this instance last read or wrote it.
        self._generation = generation
        # token -> an expiry a resolve slid past the published snapshot's.
        self._slides: dict[str, datetime] = {}
        self._slide_lock = threading.Lock()

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
    ) -> BootstrapResult:
        """Create a fresh store holding its first administrator.

        Nothing in the access model can mint the first administrator, so
        bootstrap acts as the built-in 'system' administrator: it creates
        the account through ``directory.create_user``, audited as 'system',
        and commits it through the same writer path as every other mutation.
        When no password is supplied a random one is generated; either way
        it is handed back for explicit echo to the operator.  An existing
        store at ``store_path`` is refused, not replaced.
        """
        if store_path is not None and Path(store_path).exists():
            raise GatekeeperError(f"store already exists at {store_path}")
        if password is None:
            password = generate_password()
        # The empty starting snapshot is never saved: it holds no administrator.
        empty = StoreDocument(config=config or PolicyConfig())
        gk = cls(empty, store_path=store_path, clock=clock)
        admin = gk._apply(
            lambda doc, now: directory.create_user(
                doc, _SYSTEM, admin_id, password, Role.ADMINISTRATOR, hint_question, hint_answer, now=now
            )
        )
        return BootstrapResult(gatekeeper=gk, admin=admin, password=password)

    @classmethod
    def open(
        cls,
        store_path: str | Path,
        *,
        clock: Clock | None = None,
    ) -> "Gatekeeper":
        # Stamped before the load: a save landing in between is refused later, not lost.
        generation = _generation(Path(store_path))
        return cls(load(store_path), store_path=store_path, clock=clock, generation=generation)

    # -- snapshot plumbing ---------------------------------------------------

    @property
    def snapshot(self) -> StoreDocument:
        """The last published snapshot; safe to read from any thread."""
        return self._doc

    @property
    def config(self) -> PolicyConfig:
        return self._doc.config

    def _apply(self, mutate: Callable[[StoreDocument, datetime], directory.MutationResult]):
        """Run one serialized mutation and commit what it returns; every
        write goes through here.

        ``mutate`` sees the published snapshot with every pending slide
        folded in.  It returns (new snapshot, outcome, tuple of audit
        entries, empty when there is nothing to audit).  The entries are
        appended in order, all before the snapshot is saved.  The snapshot
        is pruned of expired sessions, saved and published, unless it is
        None or the published snapshot itself; the slides it now carries are
        forgotten.  A save holds the store lock the CLI's writing commands
        take, from the check that the store file is as this instance last
        read or wrote it until the new file is stamped; a file that changed
        is not overwritten.  A failure that must also change state (a hint
        mismatch advances its counter) returns its error as the outcome,
        which is raised after the commit.
        """
        now = self.clock()
        with self._write_lock:
            with self._slide_lock:
                slides = dict(self._slides)
            doc, outcome, entries = mutate(sessions.fold_slides(self._doc, slides), now)
            saving = doc is not None and doc is not self._doc
            on_file = saving and self.store_path is not None
            with store_lock(self.store_path) if on_file else contextlib.nullcontext():
                if on_file and _generation(self.store_path) != self._generation:
                    raise StoreChanged(
                        f"store {self.store_path} changed on disk since this process last read or wrote it; "
                        "nothing was saved"
                    )
                for entry in entries:
                    self.audit.append(entry, now)
                if saving:
                    doc = sessions.prune_expired_sessions(doc, now)
                    if on_file:
                        save(doc, self.store_path)
                        self._generation = _generation(self.store_path)
            if saving:
                self._doc = doc
                stored = {s.token: s.expires_at for s in doc.sessions}
                with self._slide_lock:
                    self._slides = {t: e for t, e in self._slides.items() if e > stored.get(t, e)}
        if isinstance(outcome, GatekeeperError):
            raise outcome
        return outcome

    def persist_slides(self) -> None:
        """Save the expiries resolves slid in memory; nothing when none is
        pending.  ``serve`` calls this once on shutdown."""
        self._apply(lambda doc, now: (doc, None, ()))

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
                doc, actor, user_id, password, role, hint_question, hint_answer, now=now
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
            lambda doc, now: directory.self_register(doc, user_id, password, hint_question, hint_answer, now=now)
        )

    def update_user(
        self, actor: Principal, user_id: str, role: Role | None = None, status: UserStatus | None = None
    ) -> UserRecord:
        """Change a user's role, status or both in one commit."""
        return self._apply(lambda doc, now: directory.update_user(doc, actor, user_id, role, status))

    def set_role(self, actor: Principal, user_id: str, new_role: Role) -> UserRecord:
        return self.update_user(actor, user_id, role=new_role)

    def set_status(self, actor: Principal, user_id: str, new_status: UserStatus) -> UserRecord:
        return self.update_user(actor, user_id, status=new_status)

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
        return self._apply(lambda doc, now: sessions.login(doc, user_id, password, now=now))

    def resolve(self, token: str) -> Principal:
        """The principal of a live bearer token; InvalidToken for a dead one.
        Reads the published snapshot without the writer lock, writes nothing,
        and keeps the slid expiry in memory."""
        with self._slide_lock:
            slid = self._slides.get(token)
        principal, slide = sessions.resolve(self._doc, token, now=self.clock(), slid=slid)
        if slide is not None:
            with self._slide_lock:  # a concurrent resolve may have recorded a later slide
                self._slides[token] = max(slide, self._slides.get(token, slide))
        return principal

    def logout(self, token: str) -> None:
        return self._apply(lambda doc, now: sessions.logout(doc, token))

    def change_password(self, token: str, old_password: str, new_password: str) -> None:
        return self._apply(
            lambda doc, now: sessions.change_password(doc, token, old_password, new_password, now=now)
        )

    def recover_begin(self, user_id: str) -> str:
        return self._apply(lambda doc, now: sessions.recover_begin(doc, user_id))

    def recover_complete(self, user_id: str, hint_answer: str) -> str:
        return self._apply(lambda doc, now: sessions.recover_complete(doc, user_id, hint_answer, now=now))

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
