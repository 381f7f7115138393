"""Independent reference implementations used as test oracles.

Everything in this module is derived by hand from the access-rights rules,
not from the package under test: the full 60-cell baseline capability table
and the 25-pair role dominance table are written out literally, and
``oracle_decide`` re-derives each verdict from first principles with plain
scans over the store data.  Keep this file free of imports from
``gatekeeper`` internals beyond the data types themselves.
"""

from __future__ import annotations

from datetime import datetime

from gatekeeper.engine import Principal
from gatekeeper.model import AccessLevel, DataClass, Role, StoreDocument, UserStatus

R = Role
C = DataClass
L = AccessLevel

# Hand-written baseline capability table: all 5 roles x 4 classes x 3 levels.
# Read reaches each role's sensitivity ceiling; write/admin are administrator-only.
BASELINE_TABLE: dict[tuple[Role, DataClass, AccessLevel], bool] = {
    # outsider
    (R.OUTSIDER, C.PUBLIC, L.READ): True,
    (R.OUTSIDER, C.GENERAL, L.READ): False,
    (R.OUTSIDER, C.MANAGERIAL, L.READ): False,
    (R.OUTSIDER, C.SENSITIVE, L.READ): False,
    (R.OUTSIDER, C.PUBLIC, L.WRITE): False,
    (R.OUTSIDER, C.GENERAL, L.WRITE): False,
    (R.OUTSIDER, C.MANAGERIAL, L.WRITE): False,
    (R.OUTSIDER, C.SENSITIVE, L.WRITE): False,
    (R.OUTSIDER, C.PUBLIC, L.ADMIN): False,
    (R.OUTSIDER, C.GENERAL, L.ADMIN): False,
    (R.OUTSIDER, C.MANAGERIAL, L.ADMIN): False,
    (R.OUTSIDER, C.SENSITIVE, L.ADMIN): False,
    # guest
    (R.GUEST, C.PUBLIC, L.READ): True,
    (R.GUEST, C.GENERAL, L.READ): False,
    (R.GUEST, C.MANAGERIAL, L.READ): False,
    (R.GUEST, C.SENSITIVE, L.READ): False,
    (R.GUEST, C.PUBLIC, L.WRITE): False,
    (R.GUEST, C.GENERAL, L.WRITE): False,
    (R.GUEST, C.MANAGERIAL, L.WRITE): False,
    (R.GUEST, C.SENSITIVE, L.WRITE): False,
    (R.GUEST, C.PUBLIC, L.ADMIN): False,
    (R.GUEST, C.GENERAL, L.ADMIN): False,
    (R.GUEST, C.MANAGERIAL, L.ADMIN): False,
    (R.GUEST, C.SENSITIVE, L.ADMIN): False,
    # staff
    (R.STAFF, C.PUBLIC, L.READ): True,
    (R.STAFF, C.GENERAL, L.READ): True,
    (R.STAFF, C.MANAGERIAL, L.READ): False,
    (R.STAFF, C.SENSITIVE, L.READ): False,
    (R.STAFF, C.PUBLIC, L.WRITE): False,
    (R.STAFF, C.GENERAL, L.WRITE): False,
    (R.STAFF, C.MANAGERIAL, L.WRITE): False,
    (R.STAFF, C.SENSITIVE, L.WRITE): False,
    (R.STAFF, C.PUBLIC, L.ADMIN): False,
    (R.STAFF, C.GENERAL, L.ADMIN): False,
    (R.STAFF, C.MANAGERIAL, L.ADMIN): False,
    (R.STAFF, C.SENSITIVE, L.ADMIN): False,
    # manager
    (R.MANAGER, C.PUBLIC, L.READ): True,
    (R.MANAGER, C.GENERAL, L.READ): True,
    (R.MANAGER, C.MANAGERIAL, L.READ): True,
    (R.MANAGER, C.SENSITIVE, L.READ): False,
    (R.MANAGER, C.PUBLIC, L.WRITE): False,
    (R.MANAGER, C.GENERAL, L.WRITE): False,
    (R.MANAGER, C.MANAGERIAL, L.WRITE): False,
    (R.MANAGER, C.SENSITIVE, L.WRITE): False,
    (R.MANAGER, C.PUBLIC, L.ADMIN): False,
    (R.MANAGER, C.GENERAL, L.ADMIN): False,
    (R.MANAGER, C.MANAGERIAL, L.ADMIN): False,
    (R.MANAGER, C.SENSITIVE, L.ADMIN): False,
    # administrator
    (R.ADMINISTRATOR, C.PUBLIC, L.READ): True,
    (R.ADMINISTRATOR, C.GENERAL, L.READ): True,
    (R.ADMINISTRATOR, C.MANAGERIAL, L.READ): True,
    (R.ADMINISTRATOR, C.SENSITIVE, L.READ): True,
    (R.ADMINISTRATOR, C.PUBLIC, L.WRITE): True,
    (R.ADMINISTRATOR, C.GENERAL, L.WRITE): True,
    (R.ADMINISTRATOR, C.MANAGERIAL, L.WRITE): True,
    (R.ADMINISTRATOR, C.SENSITIVE, L.WRITE): True,
    (R.ADMINISTRATOR, C.PUBLIC, L.ADMIN): True,
    (R.ADMINISTRATOR, C.GENERAL, L.ADMIN): True,
    (R.ADMINISTRATOR, C.MANAGERIAL, L.ADMIN): True,
    (R.ADMINISTRATOR, C.SENSITIVE, L.ADMIN): True,
}

# Hand-enumerated dominance table over all 25 (lower, higher) pairs.
# Chain: outsider < staff < manager < administrator; guest compares only to
# outsider (below it) and administrator (above it).
DOMINANCE_TABLE: dict[tuple[Role, Role], bool] = {
    (R.OUTSIDER, R.OUTSIDER): True,
    (R.OUTSIDER, R.GUEST): True,
    (R.OUTSIDER, R.STAFF): True,
    (R.OUTSIDER, R.MANAGER): True,
    (R.OUTSIDER, R.ADMINISTRATOR): True,
    (R.GUEST, R.OUTSIDER): False,
    (R.GUEST, R.GUEST): True,
    (R.GUEST, R.STAFF): False,
    (R.GUEST, R.MANAGER): False,
    (R.GUEST, R.ADMINISTRATOR): True,
    (R.STAFF, R.OUTSIDER): False,
    (R.STAFF, R.GUEST): False,
    (R.STAFF, R.STAFF): True,
    (R.STAFF, R.MANAGER): True,
    (R.STAFF, R.ADMINISTRATOR): True,
    (R.MANAGER, R.OUTSIDER): False,
    (R.MANAGER, R.GUEST): False,
    (R.MANAGER, R.STAFF): False,
    (R.MANAGER, R.MANAGER): True,
    (R.MANAGER, R.ADMINISTRATOR): True,
    (R.ADMINISTRATOR, R.OUTSIDER): False,
    (R.ADMINISTRATOR, R.GUEST): False,
    (R.ADMINISTRATOR, R.STAFF): False,
    (R.ADMINISTRATOR, R.MANAGER): False,
    (R.ADMINISTRATOR, R.ADMINISTRATOR): True,
}

assert len(BASELINE_TABLE) == 60
assert len(DOMINANCE_TABLE) == 25


def oracle_decide(
    doc: StoreDocument,
    principal: Principal,
    resource_id: str,
    level: AccessLevel,
    now: datetime,
) -> tuple[str, str]:
    """Re-derive (verdict, reason) from first principles.

    Rule order, spelled out: disabled users are denied; pending users get
    only what an outsider's baseline gives; administrators get everything;
    then the literal baseline table; then live special grants, where a write
    grant also covers a read request; otherwise deny.
    """
    resource = None
    for candidate in doc.resources:
        if candidate.resource_id == resource_id:
            resource = candidate
            break
    assert resource is not None, "oracle requires an existing resource"

    if principal.status is UserStatus.DISABLED:
        return ("deny", "user_disabled")
    if principal.status is UserStatus.PENDING:
        if BASELINE_TABLE[(Role.OUTSIDER, resource.data_class, level)]:
            return ("allow", "baseline")
        return ("deny", "user_pending")
    if principal.role is Role.ADMINISTRATOR:
        return ("allow", "admin_role")
    if BASELINE_TABLE[(principal.role, resource.data_class, level)]:
        return ("allow", "baseline")
    if principal.user_id is not None:
        for grant in doc.grants:
            if grant.user_id != principal.user_id or grant.resource_id != resource_id:
                continue
            covered = grant.level is level or (
                grant.level is AccessLevel.WRITE and level is AccessLevel.READ
            )
            live = grant.expiry is None or now <= grant.expiry
            if covered and live:
                return ("allow", "special_grant")
    return ("deny", "no_matching_rule")


def oracle_visible_ids(doc: StoreDocument, principal: Principal, now: datetime) -> set[str]:
    """Resource ids an independent derivation says the principal should see."""
    return {
        r.resource_id
        for r in doc.resources
        if oracle_decide(doc, principal, r.resource_id, r.required_level, now)[0] == "allow"
    }
