"""User lifecycle and grant administration.

Every operation here takes the current store snapshot and returns a
replacement snapshot plus the audit entries describing what changed; nothing
is mutated in place.  All administrative operations are gated on an acting
principal who must be an active administrator.
"""

from __future__ import annotations

import re
from dataclasses import replace
from datetime import datetime

from .credentials import make_digest, make_hint_digest, MIN_PASSWORD_LENGTH
from .engine import Principal
from .errors import (
    AdminCapExceeded,
    AdminLevelNotGrantable,
    GuestWriteForbidden,
    IdAlreadyExists,
    InvalidArgument,
    InvalidId,
    NotAuthorized,
    ResourceAlreadyExists,
    SelfDemotionForbidden,
    SelfDisableForbidden,
    SelfRegistrationDisabled,
    UnknownGrant,
    UnknownResource,
    UnknownUser,
    WeakPassword,
)
from .model import (
    AccessLevel,
    Resource,
    Role,
    SelfRegistrationMode,
    SpecialGrant,
    StoreDocument,
    UserRecord,
    UserStatus,
    active_admin_count,
    find_grant,
    find_resource,
    find_user,
    grants_for,
    replace_user,
    user_id_syntax_error,
)
from .store import AuditEntry, format_instant

SELF_REGISTRATION_ACTOR = "self-registration"

# (new snapshot or None, outcome, audit entries in order); see Gatekeeper._apply.
MutationResult = tuple[StoreDocument | None, object, tuple[AuditEntry, ...]]


def validate_user_id(doc: StoreDocument, candidate: str) -> InvalidId | IdAlreadyExists | None:
    """The refusal creating ``candidate`` would meet (InvalidId for bad
    syntax, IdAlreadyExists for an id taken under case-folding), or None
    when it is free.  Read-only; the refusal is returned, not raised."""
    reason = user_id_syntax_error(candidate)
    if reason:
        return InvalidId(reason)
    if find_user(doc, candidate) is not None:
        return IdAlreadyExists()
    return None


def require_admin(actor: Principal) -> None:
    """Raise NotAuthorized unless ``actor`` is an active administrator.  An
    anonymous principal is always an outsider, so it never passes."""
    if actor.role is not Role.ADMINISTRATOR or actor.status is not UserStatus.ACTIVE:
        raise NotAuthorized()


def require_user(doc: StoreDocument, user_id: str) -> UserRecord:
    """The stored record for ``user_id``; UnknownUser when there is none."""
    record = find_user(doc, user_id)
    if record is None:
        raise UnknownUser(f"no such user: '{user_id}'")
    return record


def _check_admin_cap(doc: StoreDocument) -> None:
    """Raise AdminCapExceeded unless the policy admits another administrator."""
    if not doc.config.multi_admin and active_admin_count(doc) >= 1:
        raise AdminCapExceeded()


def check_password_strength(password: str) -> None:
    if len(password) < MIN_PASSWORD_LENGTH:
        raise WeakPassword()


def _add_user(
    doc: StoreDocument, user_id: str, password: str, role: Role, status: UserStatus,
    hint_question: str, hint_answer: str, created_by: str, now: datetime,
) -> tuple[StoreDocument, UserRecord]:
    """``doc`` with a new user appended, and the record: the one place a user is made.
    The id is checked before the password; a refused request makes no digest."""
    refusal = validate_user_id(doc, user_id)
    if refusal is not None:
        raise refusal
    check_password_strength(password)
    record = UserRecord(
        user_id=user_id,
        password_digest=make_digest(password),
        role=role,
        status=status,
        hint_question=hint_question,
        hint_answer_digest=make_hint_digest(hint_answer),
        created_by=created_by,
        created_at=now,
    )
    return replace(doc, users=doc.users + (record,)), record


def create_user(
    doc: StoreDocument,
    actor: Principal,
    user_id: str,
    password: str,
    role: Role,
    hint_question: str = "",
    hint_answer: str = "",
    *,
    now: datetime,
) -> MutationResult:
    """Provision an account (administrator only).

    The new record is always Active.  Creating a second administrator is
    refused unless the multi-admin policy is enabled.  Refusals come in one
    order: the actor, the role and the cap, the id, then the password.
    """
    require_admin(actor)
    if role not in (Role.GUEST, Role.STAFF, Role.MANAGER, Role.ADMINISTRATOR):
        raise InvalidArgument("new users must be guest, staff, manager or administrator")
    if role is Role.ADMINISTRATOR:
        _check_admin_cap(doc)
    new_doc, record = _add_user(
        doc, user_id, password, role, UserStatus.ACTIVE, hint_question, hint_answer, actor.user_id, now
    )
    entry = AuditEntry(
        actor=actor.user_id,
        kind="user_created",
        detail={"user_id": user_id, "role": role.value},
    )
    return new_doc, record, (entry,)


def self_register(
    doc: StoreDocument,
    user_id: str,
    password: str,
    hint_question: str = "",
    hint_answer: str = "",
    *,
    now: datetime,
) -> MutationResult:
    """Self-service registration, when the policy allows it.

    Auto-guest mode yields an active guest; pending-approval mode yields a
    guest that stays scoped to the outsider baseline until an administrator
    assigns a role or enables the account.
    """
    mode = doc.config.self_registration
    if mode is SelfRegistrationMode.DISABLED:
        raise SelfRegistrationDisabled()
    status = UserStatus.ACTIVE if mode is SelfRegistrationMode.AUTO_GUEST else UserStatus.PENDING
    new_doc, record = _add_user(
        doc, user_id, password, Role.GUEST, status, hint_question, hint_answer, SELF_REGISTRATION_ACTOR, now
    )
    entry = AuditEntry(
        actor="anonymous",
        kind="user_registered",
        detail={"user_id": user_id, "status": status.value},
    )
    return new_doc, record, (entry,)


def update_user(
    doc: StoreDocument,
    actor: Principal,
    user_id: str,
    role: Role | None = None,
    status: UserStatus | None = None,
) -> MutationResult:
    """Reassign a user's role, enable or disable the account, or both, as
    one change with one audit entry per field (role first).

    Promoting past the administrator cap is refused, as are demoting and
    disabling the last active administrator (either would orphan the
    store).  Assigning a role to a pending self-registration activates the
    account; pending itself arises only from self-registration and cannot be
    assigned.  Enabling an account clears any recovery lockout; disabling
    one ends every session of the user.
    """
    if role is None and status is None:
        raise InvalidArgument("provide 'role' and/or 'status'")
    require_admin(actor)
    if status is UserStatus.PENDING:
        raise InvalidArgument("pending arises only from self-registration")
    target = require_user(doc, user_id)
    sole_admin = (
        target.role is Role.ADMINISTRATOR
        and target.status is UserStatus.ACTIVE
        and active_admin_count(doc) == 1
    )
    updated, entries = target, ()
    if role is not None:
        activated = UserStatus.ACTIVE if target.status is UserStatus.PENDING else target.status
        updated = replace(target, role=role, status=activated)  # the record refuses the outsider role
        if role is Role.ADMINISTRATOR and target.role is not Role.ADMINISTRATOR:
            _check_admin_cap(doc)
        if role is not Role.ADMINISTRATOR and sole_admin:
            raise SelfDemotionForbidden()
        if role is Role.GUEST and any(g.level is AccessLevel.WRITE for g in grants_for(doc, target.user_id)):
            raise GuestWriteForbidden("user holds write grants; revoke them before assigning the guest role")
        detail = {"user_id": target.user_id, "from": target.role.value, "to": role.value}
        entries += (AuditEntry(actor=actor.user_id, kind="role_changed", detail=detail),)
    if status is not None:
        if status is UserStatus.DISABLED and sole_admin:
            raise SelfDisableForbidden()
        detail = {"user_id": target.user_id, "from": updated.status.value, "to": status.value}
        entries += (AuditEntry(actor=actor.user_id, kind="status_changed", detail=detail),)
        failures = 0 if status is UserStatus.ACTIVE else updated.recovery_failures
        updated = replace(updated, status=status, recovery_failures=failures)
    new_doc = replace_user(doc, updated)
    if status is UserStatus.DISABLED:
        new_doc = replace(new_doc, sessions=tuple(s for s in doc.sessions if s.user_id != target.user_id))
    return new_doc, updated, entries


# Nothing in the package calls these single-field forms, or the façade
# methods of the same name: they remain only because bench/tracer.py patches
# them, until a change that may edit the tracer deletes them (ROADMAP item 6).
def set_role(doc: StoreDocument, actor: Principal, user_id: str, new_role: Role) -> MutationResult:
    return update_user(doc, actor, user_id, role=new_role)


def set_status(doc: StoreDocument, actor: Principal, user_id: str, new_status: UserStatus) -> MutationResult:
    return update_user(doc, actor, user_id, status=new_status)


_GRANT_ID_RE = re.compile(r"^g(\d+)$")


def _next_grant_id(doc: StoreDocument) -> str:
    highest = 0
    for grant in doc.grants:
        match = _GRANT_ID_RE.match(grant.grant_id)
        if match:
            highest = max(highest, int(match.group(1)))
    return f"g{highest + 1}"


def grant_special(
    doc: StoreDocument,
    actor: Principal,
    user_id: str,
    resource_id: str,
    level: AccessLevel,
    expiry: datetime | None = None,
    *,
    now: datetime,
) -> MutationResult:
    """Issue a special allowance for one user on one resource.

    Re-issuing an existing (user, resource, level) grant replaces its expiry
    instead of duplicating it.  The admin level is never grantable, and
    guests never receive write access.
    """
    require_admin(actor)
    target = require_user(doc, user_id)
    if find_resource(doc, resource_id) is None:
        raise UnknownResource(f"no such resource: '{resource_id}'")
    if level is AccessLevel.ADMIN:
        raise AdminLevelNotGrantable()
    if level is AccessLevel.WRITE and target.role is Role.GUEST:
        raise GuestWriteForbidden()

    existing = next((g for g in grants_for(doc, target.user_id, resource_id) if g.level is level), None)
    if existing is not None:
        updated = replace(existing, expiry=expiry, granted_by=actor.user_id, granted_at=now)
        grants = tuple(updated if g.grant_id == existing.grant_id else g for g in doc.grants)
    else:
        updated = SpecialGrant(
            grant_id=_next_grant_id(doc),
            user_id=target.user_id,
            resource_id=resource_id,
            level=level,
            expiry=expiry,
            granted_by=actor.user_id,
            granted_at=now,
        )
        grants = doc.grants + (updated,)
    entry = AuditEntry(
        actor=actor.user_id,
        kind="grant_issued",
        detail={
            "grant_id": updated.grant_id,
            "user_id": updated.user_id,
            "resource_id": resource_id,
            "level": level.value,
            "expiry": format_instant(expiry) if expiry else "never",
        },
    )
    return replace(doc, grants=grants), updated, (entry,)


def revoke_grant(
    doc: StoreDocument,
    actor: Principal,
    grant_id: str,
) -> MutationResult:
    require_admin(actor)
    grant = find_grant(doc, grant_id)
    if grant is None:
        raise UnknownGrant(f"no such grant: '{grant_id}'")
    grants = tuple(g for g in doc.grants if g.grant_id != grant_id)
    entry = AuditEntry(
        actor=actor.user_id,
        kind="grant_revoked",
        detail={"grant_id": grant_id, "user_id": grant.user_id, "resource_id": grant.resource_id},
    )
    return replace(doc, grants=grants), None, (entry,)


def list_users(
    doc: StoreDocument,
    actor: Principal,
    role: Role | None = None,
    status: UserStatus | None = None,
) -> list[UserRecord]:
    """Directory listing (administrator only), ordered by case-folded id.

    Returned records still hold digests; every serialization boundary must
    go through the redacting wire form.
    """
    require_admin(actor)
    selected = [
        u
        for u in doc.users
        if (role is None or u.role is role) and (status is None or u.status is status)
    ]
    selected.sort(key=lambda u: u.user_id.casefold())
    return selected


def list_grants(doc: StoreDocument, actor: Principal) -> list[SpecialGrant]:
    """Grant listing (administrator only), in stable store order."""
    require_admin(actor)
    return list(doc.grants)


def add_resource(doc: StoreDocument, actor: Principal, resource: Resource) -> MutationResult:
    require_admin(actor)
    if find_resource(doc, resource.resource_id) is not None:
        raise ResourceAlreadyExists()
    entry = AuditEntry(
        actor=actor.user_id,
        kind="resource_added",
        detail={
            "resource_id": resource.resource_id,
            "data_class": resource.data_class.value,
            "menu_group": resource.menu_group.value,
            "required_level": resource.required_level.value,
        },
    )
    return replace(doc, resources=doc.resources + (resource,)), resource, (entry,)
