"""Seeded worlds for the benchmark: a store document, its audit log, and
the request pools the workloads draw from.

Everything here is a pure function of the seed and the shape, so one seed
always yields byte-identical store and audit files.  Salts come from the
seeded generator instead of ``os.urandom`` for the same reason.

Bulk users carry cost-1 digests to keep generation cheap; only the
dedicated login users are ever verified (by ``login`` and password change),
and they carry ``DEFAULT_COST`` digests.  Sessions and grant expiries sit
decades away from any plausible run clock, so no verdict flips mid-run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from gatekeeper.credentials import DEFAULT_COST, PBKDF2_SHA256, CredentialDigest
from gatekeeper.engine import principal_for
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
from gatekeeper.store import format_instant, serialize_document

from reference import oracle_decide, oracle_visible_ids

BASE = datetime(2026, 1, 1, tzinfo=timezone.utc)
FAR_FUTURE = datetime(2099, 1, 1, tzinfo=timezone.utc)
FAR_PAST = datetime(2000, 1, 1, tzinfo=timezone.utc)

BULK_COST = 1


@dataclass(frozen=True)
class Shape:
    users: int
    resources: int
    grants: int
    sessions: int
    audit_lines: int
    admin_users: int = 8  # staff whose role and grants only the admin touches
    login_users: int = 2  # DEFAULT_COST digests; the only users that log in
    reserved_resources: int = 10  # targets of admin grants, never read-checked


SHAPES = {
    "tiny": Shape(users=60, resources=24, grants=60, sessions=20, audit_lines=300,
                  admin_users=4, reserved_resources=4),
    "2k": Shape(users=2000, resources=200, grants=2000, sessions=300, audit_lines=50_000),
    "10k": Shape(users=10_000, resources=500, grants=10_000, sessions=1500, audit_lines=50_000),
}

# (menu group, data class, required level) with relative weights.
_RESOURCE_KINDS = [
    ((MenuGroup.PUBLIC_PAGES, DataClass.PUBLIC, AccessLevel.READ), 20),
    ((MenuGroup.STAFF_MENU, DataClass.GENERAL, AccessLevel.READ), 25),
    ((MenuGroup.STAFF_MENU, DataClass.GENERAL, AccessLevel.WRITE), 10),
    ((MenuGroup.STAFF_MENU, DataClass.MANAGERIAL, AccessLevel.READ), 5),
    ((MenuGroup.MANAGER_REPORTS, DataClass.MANAGERIAL, AccessLevel.READ), 20),
    ((MenuGroup.MANAGER_REPORTS, DataClass.MANAGERIAL, AccessLevel.WRITE), 5),
    ((MenuGroup.MANAGER_REPORTS, DataClass.SENSITIVE, AccessLevel.READ), 10),
    ((MenuGroup.ADMIN_MENU, DataClass.SENSITIVE, AccessLevel.ADMIN), 5),
]

_AUDIT_KINDS = ("login_succeeded", "logged_out", "access_denied", "grant_issued", "role_changed")


@dataclass(frozen=True)
class Check:
    """One access question and the oracle's answer to it."""

    user_id: str
    resource_id: str
    level: AccessLevel
    verdict: str
    reason: str


@dataclass(frozen=True)
class LoginUser:
    user_id: str
    passwords: tuple[str, str]  # the cycle alternates between these


@dataclass
class World:
    doc: StoreDocument
    store_bytes: bytes
    audit_bytes: bytes
    root_token: str
    tokens: dict[str, str]  # reader user id -> pre-issued session token
    menu_users: list[str]  # skewed draw order for menu requests
    admin_users: list[str]
    login_users: list[LoginUser]
    reserved_resources: list[str]
    initial_grant_ids: frozenset[str]
    seed: int
    bulk: list[UserRecord]
    readers: list[UserRecord]
    readable: list[Resource]
    menus: dict[str, set[str]] = field(default_factory=dict)

    def check_pool(self, users: list[UserRecord], per_class: int, now: datetime) -> dict[str, list["Check"]]:
        """Allow and deny questions over ``users``, answered by the oracle at
        ``now``.

        Grant-backed questions come from the users' own grants, so the allow
        pool holds both baseline and special-grant allows; resources are
        drawn with a skewed popularity.
        """
        rng = random.Random(f"gatekeeper-bench/checks/{self.seed}/{len(users)}")
        by_id = {u.user_id: u for u in users}
        resource_ids = {r.resource_id for r in self.readable}
        candidates = [
            (g.user_id, g.resource_id, g.level)
            for g in self.doc.grants
            if g.user_id in by_id and g.resource_id in resource_ids
        ]
        rng.shuffle(candidates)
        candidates = candidates[:per_class]
        levels = [AccessLevel.READ] * 3 + [AccessLevel.WRITE]
        for resource in _skewed(rng, self.readable, per_class * 3):
            candidates.append((rng.choice(users).user_id, resource.resource_id, rng.choice(levels)))

        pools: dict[str, list[Check]] = {"allow": [], "deny": []}
        for user_id, resource_id, level in candidates:
            verdict, reason = oracle_decide(self.doc, principal_for(by_id[user_id]), resource_id, level, now)
            pools[verdict].append(Check(user_id, resource_id, level, verdict, reason))
        return pools

    def expected_menu(self, user_id: str) -> set[str]:
        """The oracle's menu for a reader; no workload changes what it
        depends on, so it is computed once per user."""
        if user_id not in self.menus:
            user = next(u for u in self.doc.users if u.user_id == user_id)
            now = datetime.now(timezone.utc)
            self.menus[user_id] = oracle_visible_ids(self.doc, principal_for(user), now)
        return self.menus[user_id]


def _digest(rng: random.Random, secret: str, cost: int) -> CredentialDigest:
    salt = rng.randbytes(16)
    raw = hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, cost)
    return CredentialDigest(algorithm=PBKDF2_SHA256, salt=salt, digest=raw, cost=cost)


def _user(rng, user_id, role, status=UserStatus.ACTIVE, password="bulk-password", cost=BULK_COST):
    return UserRecord(
        user_id=user_id,
        password_digest=_digest(rng, password, cost),
        role=role,
        status=status,
        hint_question="favourite colour?",
        hint_answer_digest=_digest(rng, "blue", cost),
        created_by="root",
        created_at=BASE,
    )


def _skewed(rng: random.Random, items: list, count: int, exponent: float = 1.1) -> list:
    """``count`` draws from ``items`` with Zipf-like popularity."""
    order = items[:]
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(order))]
    return rng.choices(order, weights=weights, k=count)


def _audit_log(rng: random.Random, lines: int, user_ids: list[str], resource_ids: list[str]) -> bytes:
    start = BASE - timedelta(seconds=lines)
    out = []
    for seq in range(1, lines + 1):
        kind = rng.choice(_AUDIT_KINDS)
        actor = rng.choice(user_ids)
        if kind == "access_denied":
            detail = {"resource_id": rng.choice(resource_ids), "level": "read", "reason": "no_matching_rule"}
        elif kind == "grant_issued":
            detail = {"grant_id": f"g{seq}", "user_id": actor, "resource_id": rng.choice(resource_ids),
                      "level": "read", "expiry": "never"}
        elif kind == "role_changed":
            detail = {"user_id": actor, "from": "staff", "to": "manager"}
        else:
            detail = {"user_id": actor}
        event = {"seq": seq, "at": format_instant(start + timedelta(seconds=seq)), "actor": actor,
                 "kind": kind, "detail": detail}
        out.append(json.dumps(event, sort_keys=True))
    return ("\n".join(out) + "\n").encode("utf-8")


def generate(seed: int, shape_name: str) -> World:
    shape = SHAPES[shape_name]
    rng = random.Random(f"gatekeeper-bench/{shape_name}/{seed}")

    root = _user(rng, "root", Role.ADMINISTRATOR)
    bulk = []
    for i in range(shape.users):
        role = rng.choices([Role.GUEST, Role.STAFF, Role.MANAGER], weights=[15, 60, 25])[0]
        status = rng.choices([UserStatus.ACTIVE, UserStatus.DISABLED, UserStatus.PENDING], weights=[92, 5, 3])[0]
        bulk.append(_user(rng, f"u{i:05d}", role, status))
    admin_users = [_user(rng, f"adm{i:02d}", Role.STAFF) for i in range(shape.admin_users)]
    login_users = [
        LoginUser(f"login{i}", (f"login-pass-{i}-a", f"login-pass-{i}-b")) for i in range(shape.login_users)
    ]
    login_records = [
        UserRecord(
            user_id=lu.user_id,
            password_digest=_digest(rng, lu.passwords[0], DEFAULT_COST),
            role=Role.STAFF,
            status=UserStatus.ACTIVE,
            hint_question="favourite colour?",
            hint_answer_digest=_digest(rng, "blue", DEFAULT_COST),
            created_by="root",
            created_at=BASE,
        )
        for lu in login_users
    ]

    kinds, weights = zip(*_RESOURCE_KINDS)
    resources = []
    for i in range(shape.resources):
        group, data_class, level = rng.choices(kinds, weights=weights)[0]
        resources.append(Resource(
            resource_id=f"rep{i:04d}",
            display_name=f"Report {rng.randrange(10_000):04d}",
            data_class=data_class,
            menu_group=group,
            required_level=level,
        ))
    grantable = [r for r in resources if r.required_level is not AccessLevel.ADMIN]
    reserved = grantable[-shape.reserved_resources:]
    readable = [r for r in resources if r not in reserved]

    grants = []
    keys = set()
    grantable_to_readers = [r for r in grantable if r not in reserved]
    while len(grants) < shape.grants:
        user = rng.choice(bulk)
        resource = rng.choice(grantable_to_readers)
        level = AccessLevel.READ if user.role is Role.GUEST else rng.choices(
            [AccessLevel.READ, AccessLevel.WRITE], weights=[70, 30])[0]
        key = (user.user_id, resource.resource_id, level)
        if key in keys:
            continue
        keys.add(key)
        expiry = rng.choices([None, FAR_FUTURE, FAR_PAST], weights=[60, 25, 15])[0]
        grants.append(SpecialGrant(
            grant_id=f"g{len(grants) + 1}",
            user_id=user.user_id,
            resource_id=resource.resource_id,
            level=level,
            expiry=expiry,
            granted_by="root",
            granted_at=BASE,
        ))

    active = [u for u in bulk if u.status is UserStatus.ACTIVE]
    readers = rng.sample(active, shape.sessions)
    tokens = {u.user_id: f"tok-{rng.getrandbits(128):032x}" for u in readers}
    root_token = f"tok-{rng.getrandbits(128):032x}"
    sessions = [Session(token=root_token, user_id="root", issued_at=BASE, expires_at=FAR_FUTURE)]
    sessions += [Session(token=tokens[u.user_id], user_id=u.user_id, issued_at=BASE, expires_at=FAR_FUTURE)
                 for u in readers]

    doc = StoreDocument(
        config=PolicyConfig(),
        users=tuple([root] + bulk + admin_users + login_records),
        resources=tuple(resources),
        grants=tuple(grants),
        sessions=tuple(sessions),
    )
    audit_bytes = _audit_log(rng, shape.audit_lines, [u.user_id for u in bulk], [r.resource_id for r in resources])

    menu_users = [u.user_id for u in _skewed(rng, readers, 4000)]

    return World(
        doc=doc,
        store_bytes=serialize_document(doc),
        audit_bytes=audit_bytes,
        root_token=root_token,
        tokens=tokens,
        menu_users=menu_users,
        admin_users=[u.user_id for u in admin_users],
        login_users=login_users,
        reserved_resources=[r.resource_id for r in reserved],
        initial_grant_ids=frozenset(g.grant_id for g in grants),
        seed=seed,
        bulk=bulk,
        readers=readers,
        readable=readable,
    )
