"""Outward-facing JSON views that differ from the stored record forms.

Grants, resources, sessions and audit events cross the CLI and HTTP
boundary in their stored form (``store.to_wire``).  Only the views that
differ live here: the redacted user record, and the decision and menu views
derived from the engine's results.

User records cross this boundary redacted: no digest bytes, no salts, no
plaintext secrets ever appear in a serialized view.  :func:`public_user`
names every field it shows, so a field added to the record stays private
until it is added here.  Counts coming in the other way are read here too.
"""

from __future__ import annotations

from .engine import Decision, MenuTree
from .model import UserRecord
from .sessions import RECOVERY_LOCK_THRESHOLD
from .store import format_instant


def public_user(user: UserRecord) -> dict:
    return {
        "user_id": user.user_id,
        "role": user.role.value,
        "status": user.status.value,
        "hint_question": user.hint_question,
        "created_by": user.created_by,
        "created_at": format_instant(user.created_at),
        "recovery_locked": user.recovery_failures >= RECOVERY_LOCK_THRESHOLD,
    }


def decision_wire(decision: Decision) -> dict:
    return {
        "verdict": decision.verdict.value,
        "reason": decision.reason.value,
        "grant_id": decision.grant_id,
        "trace": list(decision.trace),
    }


def menu_wire(tree: MenuTree) -> dict:
    return {
        "groups": [
            {
                "group": group.value,
                "items": [
                    {"resource_id": item.resource_id, "display_name": item.display_name}
                    for item in items
                ],
            }
            for group, items in tree.groups
        ]
    }


def _parse_count(text: str) -> int:
    """A count from outside the program, in ASCII digits only; ValueError for anything
    else.  ``int()`` alone also takes signs, spaces, '_' and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative integer: {text!r}")
    return int(text)
