"""Policy decision point.

``decide`` combines, in a fixed order, the requesting user's status, their
role baseline, and any special grants into an allow/deny verdict with a
machine-readable reason and a human-readable trace.  ``visible_menu``
projects the menu tree a principal may see, derived entirely from those
decisions.

Both functions are read-only over an immutable store snapshot and are safe
to call from any number of threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime

from .errors import InvalidArgument, UnknownResource
from .model import (
    AccessLevel,
    MenuGroup,
    Role,
    StoreDocument,
    UserRecord,
    UserStatus,
    baseline_allows,
    find_resource,
    grants_for,
)


@dataclass(frozen=True)
class Principal:
    """The requesting party: an anonymous site visitor (``user_id`` None) or
    a resolved session.

    Anonymous principals always carry the Outsider role and Active status.
    """

    user_id: str | None
    role: Role
    status: UserStatus

    def __post_init__(self):
        if self.user_id is None:
            if self.role is not Role.OUTSIDER or self.status is not UserStatus.ACTIVE:
                raise InvalidArgument("anonymous principals are outsiders with active status")
        elif not self.user_id:
            raise InvalidArgument("authenticated principals carry a user_id")


ANONYMOUS = Principal(user_id=None, role=Role.OUTSIDER, status=UserStatus.ACTIVE)


def principal_for(record: UserRecord) -> Principal:
    return Principal(user_id=record.user_id, role=record.role, status=record.status)


class Verdict(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


class DecisionReason(enum.Enum):
    ADMIN_ROLE = "admin_role"
    BASELINE = "baseline"
    SPECIAL_GRANT = "special_grant"
    USER_DISABLED = "user_disabled"
    USER_PENDING = "user_pending"
    NO_MATCHING_RULE = "no_matching_rule"


_ALLOW_REASONS = {DecisionReason.ADMIN_ROLE, DecisionReason.BASELINE, DecisionReason.SPECIAL_GRANT}


@dataclass(frozen=True)
class Decision:
    """An allow/deny verdict, implied by its reason, with the rule
    evaluations that produced it."""

    reason: DecisionReason
    grant_id: str | None
    trace: tuple[str, ...]

    @property
    def allowed(self) -> bool:
        return self.reason in _ALLOW_REASONS

    @property
    def verdict(self) -> Verdict:
        return Verdict.ALLOW if self.allowed else Verdict.DENY


@dataclass(frozen=True)
class MenuItem:
    resource_id: str
    display_name: str


@dataclass(frozen=True)
class MenuTree:
    """Visible menu groups in fixed order; empty groups are omitted."""

    groups: tuple[tuple[MenuGroup, tuple[MenuItem, ...]], ...]


def decide(
    doc: StoreDocument,
    principal: Principal,
    resource_id: str,
    level: AccessLevel,
    now: datetime,
) -> Decision:
    """Decide one access request.

    Rules evaluate in a fixed order and each evaluation is recorded in the
    trace: a disabled user is denied outright; a pending user is scoped to
    the outsider baseline; an administrator is allowed everything; then the
    role baseline; then live special grants (a write grant also satisfies a
    read request); otherwise deny.

    Raises UnknownResource for an id absent from the store: a misconfigured
    caller is an error, not a policy denial.
    """
    resource = find_resource(doc, resource_id)
    if resource is None:
        raise UnknownResource(f"no such resource: '{resource_id}'")

    who = principal.user_id if principal.user_id is not None else "(anonymous)"
    trace = [
        f"request: {who} role={principal.role.value} status={principal.status.value} "
        f"wants {level.value} on '{resource.resource_id}' (class={resource.data_class.value})"
    ]

    if principal.status is UserStatus.DISABLED:
        trace.append("status is disabled: deny")
        return Decision(DecisionReason.USER_DISABLED, None, tuple(trace))

    if principal.status is UserStatus.PENDING:
        trace.append("status is pending: scoped to the outsider baseline, grants ignored")
        if baseline_allows(Role.OUTSIDER, resource.data_class, level):
            trace.append(f"baseline(outsider, {resource.data_class.value}, {level.value}): allow")
            return Decision(DecisionReason.BASELINE, None, tuple(trace))
        trace.append(f"baseline(outsider, {resource.data_class.value}, {level.value}): no")
        return Decision(DecisionReason.USER_PENDING, None, tuple(trace))

    if principal.role is Role.ADMINISTRATOR:
        trace.append("role is administrator: allow")
        return Decision(DecisionReason.ADMIN_ROLE, None, tuple(trace))

    if baseline_allows(principal.role, resource.data_class, level):
        trace.append(f"baseline({principal.role.value}, {resource.data_class.value}, {level.value}): allow")
        return Decision(DecisionReason.BASELINE, None, tuple(trace))
    trace.append(f"baseline({principal.role.value}, {resource.data_class.value}, {level.value}): no")

    if principal.user_id is None:
        trace.append("anonymous principal holds no grants")
    else:
        matched = False
        for grant in grants_for(doc, principal.user_id, resource.resource_id):
            matched = True
            if not grant.covers(level):
                trace.append(f"grant {grant.grant_id} ({grant.level.value}) does not cover {level.value}: skip")
                continue
            if not grant.live_at(now):
                trace.append(f"grant {grant.grant_id} expired at {grant.expiry.isoformat()}: skip")
                continue
            expiry = grant.expiry.isoformat() if grant.expiry else "never"
            trace.append(f"grant {grant.grant_id} ({grant.level.value}, expires {expiry}): allow")
            return Decision(DecisionReason.SPECIAL_GRANT, grant.grant_id, tuple(trace))
        if not matched:
            trace.append("no grants for this user on this resource")

    trace.append("no matching rule: deny")
    return Decision(DecisionReason.NO_MATCHING_RULE, None, tuple(trace))


def visible_menu(doc: StoreDocument, principal: Principal, now: datetime) -> MenuTree:
    """Project the menu a principal may see.

    A resource appears iff ``decide`` allows it at its own required level.
    Groups keep their fixed order; items sort by display name
    (case-insensitive, ties broken by resource id); empty groups are omitted.
    """
    by_group: dict[MenuGroup, list[MenuItem]] = {group: [] for group in MenuGroup}
    for resource in doc.resources:
        decision = decide(doc, principal, resource.resource_id, resource.required_level, now)
        if decision.allowed:
            by_group[resource.menu_group].append(
                MenuItem(resource_id=resource.resource_id, display_name=resource.display_name)
            )
    groups = []
    for group in MenuGroup:
        items = by_group[group]
        if not items:
            continue
        items.sort(key=lambda item: (item.display_name.casefold(), item.resource_id))
        groups.append((group, tuple(items)))
    return MenuTree(groups=tuple(groups))
