"""Builders for test universes: hand-rolled stores, controllable clocks,
exhaustively enumerated small worlds, and seeded random worlds.

Generated documents always satisfy the store-wide validator (one active
administrator, no admin-level grants, no guest write grants, unique ids), so
the same builders feed the engine oracle, persistence round-trips, and the
lifecycle tests.
"""

from __future__ import annotations

import itertools
import random
from datetime import datetime, timedelta, timezone

from gatekeeper.credentials import make_digest
from gatekeeper.model import (
    AccessLevel,
    DataClass,
    MenuGroup,
    PolicyConfig,
    Resource,
    Role,
    Session,
    SpecialGrant,
    StoreDocument,
    UserRecord,
    UserStatus,
)

NOW = datetime(2026, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
PAST = NOW - timedelta(days=1)
FUTURE = NOW + timedelta(days=1)

FAST_COST = 1  # tiny KDF cost keeps the big generated suites quick


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self, start: datetime = NOW):
        self.current = start

    def now(self) -> datetime:
        return self.current

    def advance(self, **kwargs) -> datetime:
        self.current += timedelta(**kwargs)
        return self.current

    def set(self, at: datetime) -> datetime:
        self.current = at
        return self.current

    def __call__(self) -> datetime:
        return self.now()


def make_user(
    user_id: str,
    role: Role = Role.STAFF,
    status: UserStatus = UserStatus.ACTIVE,
    password: str = "password1",
    hint_question: str = "favourite colour?",
    hint_answer: str = "blue",
    created_by: str = "root",
    created_at: datetime = NOW,
) -> UserRecord:
    return UserRecord(
        user_id=user_id,
        password_digest=make_digest(password),
        role=role,
        status=status,
        hint_question=hint_question,
        hint_answer_digest=make_digest(hint_answer.strip().casefold()),
        created_by=created_by,
        created_at=created_at,
    )


def make_resource(
    resource_id: str,
    data_class: DataClass = DataClass.GENERAL,
    menu_group: MenuGroup = MenuGroup.STAFF_MENU,
    required_level: AccessLevel = AccessLevel.READ,
    display_name: str | None = None,
) -> Resource:
    return Resource(
        resource_id=resource_id,
        display_name=display_name or resource_id.replace("-", " ").title(),
        data_class=data_class,
        menu_group=menu_group,
        required_level=required_level,
    )


def make_grant(
    grant_id: str,
    user_id: str,
    resource_id: str,
    level: AccessLevel = AccessLevel.READ,
    expiry: datetime | None = None,
    granted_by: str = "root",
    granted_at: datetime = NOW,
) -> SpecialGrant:
    return SpecialGrant(
        grant_id=grant_id,
        user_id=user_id,
        resource_id=resource_id,
        level=level,
        expiry=expiry,
        granted_by=granted_by,
        granted_at=granted_at,
    )


ROOT = "root"


def make_doc(
    users: list[UserRecord] | None = None,
    resources: list[Resource] | None = None,
    grants: list[SpecialGrant] | None = None,
    sessions: list[Session] | None = None,
    config: PolicyConfig | None = None,
    with_root: bool = True,
) -> StoreDocument:
    """A valid document; a root administrator is included unless disabled."""
    all_users = list(users or [])
    if with_root and not any(u.user_id == ROOT for u in all_users):
        all_users.insert(0, make_user(ROOT, Role.ADMINISTRATOR, password="rootpass1"))
    return StoreDocument(
        config=config or PolicyConfig(),
        users=tuple(all_users),
        resources=tuple(resources or []),
        grants=tuple(grants or []),
        sessions=tuple(sessions or []),
    )


# ---------------------------------------------------------------------------
# Exhaustive small worlds: one user, one resource, every grant combination.

_USER_ROLES = (Role.GUEST, Role.STAFF, Role.MANAGER, Role.ADMINISTRATOR)
_STATUSES = (UserStatus.ACTIVE, UserStatus.DISABLED, UserStatus.PENDING)

_RESOURCE_SHAPES = [(MenuGroup.ADMIN_MENU, AccessLevel.ADMIN)] + [
    (group, level)
    for group in (MenuGroup.PUBLIC_PAGES, MenuGroup.STAFF_MENU, MenuGroup.MANAGER_REPORTS)
    for level in (AccessLevel.READ, AccessLevel.WRITE)
]

# absent, unexpiring, already expired, expiring exactly now, still future
_GRANT_EXPIRIES = ("absent", None, PAST, NOW, FUTURE)


def exhaustive_small_worlds():
    """Yield every world with one subject user, one resource, and any
    combination of read/write grants across five expiry shapes."""
    for role, status in itertools.product(_USER_ROLES, _STATUSES):
        multi = role is Role.ADMINISTRATOR  # a second admin needs the multi-admin policy
        config = PolicyConfig(multi_admin=multi)
        for data_class, (group, required) in itertools.product(DataClass, _RESOURCE_SHAPES):
            resource = make_resource("res", data_class, group, required)
            for read_exp, write_exp in itertools.product(_GRANT_EXPIRIES, repeat=2):
                grants = []
                if read_exp != "absent":
                    grants.append(make_grant("g1", "subject", "res", AccessLevel.READ, read_exp))
                if write_exp != "absent":
                    if role is Role.GUEST:
                        continue  # guests never hold write grants
                    grants.append(make_grant("g2", "subject", "res", AccessLevel.WRITE, write_exp))
                user = make_user("subject", role, status)
                yield make_doc(users=[user], resources=[resource], grants=grants, config=config)


# ---------------------------------------------------------------------------
# Seeded random worlds.

_RANDOM_ROLES = (Role.GUEST, Role.STAFF, Role.MANAGER)


def random_world(
    rng: random.Random,
    max_users: int = 6,
    max_resources: int = 8,
    max_grants: int = 10,
    with_sessions: bool = False,
) -> StoreDocument:
    multi_admin = rng.random() < 0.25
    config = PolicyConfig(
        multi_admin=multi_admin,
        session_ttl_seconds=rng.choice([60, 1800, 86400]),
    )

    users = [make_user(ROOT, Role.ADMINISTRATOR, password="rootpass1")]
    for i in range(rng.randint(0, max_users - 1)):
        roles = _RANDOM_ROLES + ((Role.ADMINISTRATOR,) if multi_admin else ())
        users.append(
            make_user(
                f"usr{i}",
                role=rng.choice(roles),
                status=rng.choice(_STATUSES),
            )
        )

    resources = []
    for i in range(rng.randint(0, max_resources)):
        group = rng.choice(list(MenuGroup))
        if group is MenuGroup.ADMIN_MENU:
            level = AccessLevel.ADMIN
        else:
            level = rng.choice([AccessLevel.READ, AccessLevel.WRITE])
        resources.append(make_resource(f"res{i}", rng.choice(list(DataClass)), group, level))

    grants = []
    used_keys = set()
    if resources:
        for i in range(rng.randint(0, max_grants)):
            user = rng.choice(users)
            resource = rng.choice(resources)
            if user.role is Role.GUEST:
                level = AccessLevel.READ
            else:
                level = rng.choice([AccessLevel.READ, AccessLevel.WRITE])
            key = (user.user_id, resource.resource_id, level)
            if key in used_keys:
                continue
            used_keys.add(key)
            expiry = rng.choice([None, PAST, NOW, FUTURE])
            grants.append(make_grant(f"g{i}", user.user_id, resource.resource_id, level, expiry))

    sessions = []
    if with_sessions:
        for i in range(rng.randint(0, 3)):
            user = rng.choice(users)
            issued = NOW - timedelta(minutes=rng.randint(0, 120))
            sessions.append(
                Session(
                    token=f"tok-{rng.getrandbits(64):016x}-{i}",
                    user_id=user.user_id,
                    issued_at=issued,
                    expires_at=issued + timedelta(seconds=rng.randint(0, 7200)),
                )
            )

    return StoreDocument(
        config=config,
        users=tuple(users),
        resources=tuple(resources),
        grants=tuple(grants),
        sessions=tuple(sessions),
    )
