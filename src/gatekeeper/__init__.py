"""Embeddable role-based access control for MIS-style report sites.

The engine combines four facts into each decision: who the user is (their
role), what the data is (its sensitivity class), what they want to do (read,
write or administer), and any special per-user allowances an administrator
has issued.  A user directory, session authentication, durable JSON storage
with an audit trail, an admin CLI, and a JSON HTTP service are built on top.
"""

from .app import BootstrapResult, Gatekeeper
from .engine import (
    ANONYMOUS,
    Decision,
    DecisionReason,
    MenuItem,
    MenuTree,
    Principal,
    Verdict,
    decide,
    principal_for,
    visible_menu,
)
from .errors import GatekeeperError
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
    baseline_allows,
    role_dominates,
)
from .store import AuditEvent, load, save

__version__ = "0.1.0"

__all__ = [
    "ANONYMOUS",
    "AccessLevel",
    "AuditEvent",
    "BootstrapResult",
    "DataClass",
    "Decision",
    "DecisionReason",
    "Gatekeeper",
    "GatekeeperError",
    "MenuGroup",
    "MenuItem",
    "MenuTree",
    "PolicyConfig",
    "Principal",
    "Resource",
    "Role",
    "SelfRegistrationMode",
    "Session",
    "SpecialGrant",
    "StoreDocument",
    "UserRecord",
    "UserStatus",
    "Verdict",
    "baseline_allows",
    "decide",
    "load",
    "principal_for",
    "role_dominates",
    "save",
    "visible_menu",
    "__version__",
]
