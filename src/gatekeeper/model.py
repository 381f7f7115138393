"""Domain model: the three categorical axes (roles, data classes, access
levels), protected resources and menu groups, the baseline role-capability
matrix, and the record types held by a store document.

Everything here is an immutable value type; the functions are pure.  Any
number of threads may share and call them concurrently.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from datetime import datetime

from .credentials import CredentialDigest
from .errors import InvalidArgument


class Role(enum.Enum):
    """The five user categories.

    Employees form a strict chain Outsider < Staff < Manager < Administrator.
    Guest sits outside the chain: it compares only to Outsider.
    """

    OUTSIDER = "outsider"
    GUEST = "guest"
    STAFF = "staff"
    MANAGER = "manager"
    ADMINISTRATOR = "administrator"


class DataClass(enum.Enum):
    """Resource sensitivity tiers, totally ordered Public < General <
    Managerial < Sensitive."""

    PUBLIC = "public"
    GENERAL = "general"
    MANAGERIAL = "managerial"
    SENSITIVE = "sensitive"


class AccessLevel(enum.Enum):
    READ = "read"
    WRITE = "write"
    ADMIN = "admin"


class MenuGroup(enum.Enum):
    """Menu groups, declared in their fixed presentation order."""

    PUBLIC_PAGES = "public_pages"
    STAFF_MENU = "staff_menu"
    MANAGER_REPORTS = "manager_reports"
    ADMIN_MENU = "admin_menu"


class UserStatus(enum.Enum):
    ACTIVE = "active"
    DISABLED = "disabled"
    PENDING = "pending"


class SelfRegistrationMode(enum.Enum):
    DISABLED = "disabled"
    AUTO_GUEST = "auto_guest"
    PENDING_APPROVAL = "pending_approval"


_EMPLOYEE_RANK = {Role.OUTSIDER: 0, Role.STAFF: 1, Role.MANAGER: 2, Role.ADMINISTRATOR: 3}

DATA_CLASS_RANK = {
    DataClass.PUBLIC: 0,
    DataClass.GENERAL: 1,
    DataClass.MANAGERIAL: 2,
    DataClass.SENSITIVE: 3,
}

#: Most sensitive class each role may read by baseline right alone.
_READ_CEILING = {
    Role.OUTSIDER: DataClass.PUBLIC,
    Role.GUEST: DataClass.PUBLIC,
    Role.STAFF: DataClass.GENERAL,
    Role.MANAGER: DataClass.MANAGERIAL,
    Role.ADMINISTRATOR: DataClass.SENSITIVE,
}


def role_dominates(lower: Role, higher: Role) -> bool:
    """True iff ``higher`` is ``lower`` or sits above it.

    Administrator dominates every role.  Guest dominates only Outsider and
    itself; no employee short of Administrator dominates Guest.
    """
    if lower is higher:
        return True
    if higher is Role.ADMINISTRATOR:
        return True
    if lower is Role.OUTSIDER:
        return True
    if Role.GUEST in (lower, higher):
        return False
    return _EMPLOYEE_RANK[lower] < _EMPLOYEE_RANK[higher]


def baseline_allows(role: Role, data_class: DataClass, level: AccessLevel) -> bool:
    """The baseline capability matrix, before special grants.

    Read access reaches up to a per-role sensitivity ceiling: outsiders and
    guests see Public, staff add General, managers add Managerial, and
    administrators see everything.  Write and Admin are administrator-only.
    """
    if level is AccessLevel.READ:
        return DATA_CLASS_RANK[data_class] <= DATA_CLASS_RANK[_READ_CEILING[role]]
    return role is Role.ADMINISTRATOR


_USER_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")
USER_ID_MIN_LENGTH = 3
USER_ID_MAX_LENGTH = 64


def user_id_syntax_error(candidate: str) -> str | None:
    """Why ``candidate`` is not an acceptable user-id, or None if it is.

    Ids are 3-64 characters of ASCII letters, digits, dot, underscore and
    hyphen; uniqueness is enforced case-insensitively elsewhere.
    """
    if not candidate:
        return "user-id must not be empty"
    if len(candidate) < USER_ID_MIN_LENGTH:
        return f"user-id is too short (minimum {USER_ID_MIN_LENGTH} characters)"
    if len(candidate) > USER_ID_MAX_LENGTH:
        return f"user-id is too long (maximum {USER_ID_MAX_LENGTH} characters)"
    if not _USER_ID_RE.match(candidate):
        return "user-id may contain only letters, digits, '.', '_' and '-'"
    return None


@dataclass(frozen=True)
class PolicyConfig:
    """Deployment policy switches stored with the data."""

    multi_admin: bool = False
    self_registration: SelfRegistrationMode = SelfRegistrationMode.DISABLED
    allow_self_password_change: bool = True
    session_ttl_seconds: int = 1800
    log_denials: bool = True

    def __post_init__(self):
        if not isinstance(self.session_ttl_seconds, int) or self.session_ttl_seconds <= 0:
            raise InvalidArgument("session_ttl_seconds must be a positive integer")


@dataclass(frozen=True, slots=True)
class Resource:
    """A protected report, form or page.

    ``required_level`` is the level exercised when the resource is opened
    from a menu: Read for reports and pages, Write for data-entry forms, and
    Admin for administration screens (which live in the admin menu and
    nowhere else).
    """

    resource_id: str
    display_name: str
    data_class: DataClass
    menu_group: MenuGroup
    required_level: AccessLevel
    description: str | None = None

    def __post_init__(self):
        if not self.resource_id:
            raise InvalidArgument("resource_id must not be empty")
        admin_group = self.menu_group is MenuGroup.ADMIN_MENU
        admin_level = self.required_level is AccessLevel.ADMIN
        if admin_group != admin_level:
            raise InvalidArgument(
                "admin-menu resources require the admin level and the admin level "
                "belongs only to admin-menu resources"
            )


@dataclass(frozen=True, slots=True)
class UserRecord:
    """A provisioned account.  Outsiders have no records by definition."""

    user_id: str
    password_digest: CredentialDigest
    role: Role
    status: UserStatus
    hint_question: str
    hint_answer_digest: CredentialDigest
    created_by: str
    created_at: datetime
    recovery_failures: int = 0

    def __post_init__(self):
        if self.role is Role.OUTSIDER:
            raise InvalidArgument("stored users cannot hold the outsider role")
        if self.recovery_failures < 0:
            raise InvalidArgument("recovery_failures must be >= 0")


@dataclass(frozen=True, slots=True)
class SpecialGrant:
    """A per-user, per-resource, per-level allowance with optional expiry.

    The grant is live up to and including its expiry instant.
    """

    grant_id: str
    user_id: str
    resource_id: str
    level: AccessLevel
    expiry: datetime | None
    granted_by: str
    granted_at: datetime

    def __post_init__(self):
        if self.level is AccessLevel.ADMIN:
            raise InvalidArgument("grants never carry the admin level")

    def live_at(self, now: datetime) -> bool:
        return self.expiry is None or now <= self.expiry

    def covers(self, level: AccessLevel) -> bool:
        """Write grants satisfy read requests; nothing satisfies admin."""
        if level is AccessLevel.ADMIN:
            return False
        return self.level is level or (self.level is AccessLevel.WRITE and level is AccessLevel.READ)


@dataclass(frozen=True, slots=True)
class Session:
    token: str
    user_id: str
    issued_at: datetime
    expires_at: datetime

    def live_at(self, now: datetime) -> bool:
        return now <= self.expires_at


@dataclass(frozen=True)
class StoreDocument:
    """One immutable snapshot of all durable state."""

    config: PolicyConfig
    users: tuple[UserRecord, ...] = ()
    grants: tuple[SpecialGrant, ...] = ()
    resources: tuple[Resource, ...] = ()
    sessions: tuple[Session, ...] = ()


def find_user(doc: StoreDocument, user_id: str) -> UserRecord | None:
    """Case-insensitive user lookup (ids are unique under case-folding)."""
    folded = user_id.casefold()
    for user in doc.users:
        if user.user_id.casefold() == folded:
            return user
    return None


def replace_user(doc: StoreDocument, record: UserRecord) -> StoreDocument:
    """``doc`` with the stored user of ``record``'s id swapped for ``record``."""
    users = tuple(record if u.user_id == record.user_id else u for u in doc.users)
    return replace(doc, users=users)


def find_resource(doc: StoreDocument, resource_id: str) -> Resource | None:
    for resource in doc.resources:
        if resource.resource_id == resource_id:
            return resource
    return None


def find_grant(doc: StoreDocument, grant_id: str) -> SpecialGrant | None:
    for grant in doc.grants:
        if grant.grant_id == grant_id:
            return grant
    return None


def find_session(doc: StoreDocument, token: str) -> Session | None:
    for session in doc.sessions:
        if session.token == token:
            return session
    return None


def grants_for(doc: StoreDocument, user_id: str, resource_id: str | None = None) -> tuple[SpecialGrant, ...]:
    return tuple(
        g
        for g in doc.grants
        if g.user_id == user_id and (resource_id is None or g.resource_id == resource_id)
    )


def active_admin_count(doc: StoreDocument) -> int:
    return sum(
        1
        for u in doc.users
        if u.role is Role.ADMINISTRATOR and u.status is UserStatus.ACTIVE
    )
