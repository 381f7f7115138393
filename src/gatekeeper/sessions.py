"""Authentication: login, session resolution, logout, password change, and
hint-based recovery.

Login failure is reported identically for every internal cause (unknown
user, wrong password, disabled, pending) so account names cannot be
enumerated; the audit log records the true cause.  Sessions hold no role
copy: the user's current role and status are re-resolved on every use, so
role changes and disables take effect immediately.

Operations follow the same snapshot-in, snapshot-out convention as the
directory module.  A hint mismatch must both change state and fail: it
returns the error as the outcome beside the snapshot with its counter
advanced, and the calling shell raises it after committing.  A resolve only
reads: the shell keeps the slid expiry in memory and folds it into the next
snapshot it commits.  A session leaves the store in the commit that ends it
(logout, password change, recovery, or disabling its user), or, once
expired, in the prune that runs before every save.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta, timezone
from typing import Mapping

from .credentials import (
    dummy_digest,
    generate_password,
    make_digest,
    new_session_token,
    verify_hint_answer,
    verify_secret,
)
from .directory import MutationResult, check_password_strength
from .engine import Principal, principal_for
from .errors import (
    AuthFailed,
    HintMismatch,
    InvalidToken,
    OldPasswordMismatch,
    PolicyForbidden,
    RecoveryLocked,
    RecoveryUnavailable,
)
from .model import (
    Session,
    StoreDocument,
    UserRecord,
    UserStatus,
    find_session,
    find_user,
    replace_user,
)
from .store import AuditEntry

RECOVERY_LOCK_THRESHOLD = 5


def _expiry(doc: StoreDocument, now: datetime) -> datetime:
    """When a session issued or used at ``now`` expires, clamped to the last
    representable instant."""
    try:
        return now + timedelta(seconds=doc.config.session_ttl_seconds)
    except OverflowError:
        return datetime.max.replace(tzinfo=timezone.utc)


def _issue_session(doc: StoreDocument, user: UserRecord, now: datetime) -> Session:
    return Session(token=new_session_token(), user_id=user.user_id, issued_at=now, expires_at=_expiry(doc, now))


def login(
    doc: StoreDocument,
    user_id: str,
    password: str,
    *,
    now: datetime,
) -> MutationResult:
    """Verify credentials and issue a session.

    Every failure surfaces as the same AuthFailed; the audit entry carries
    the internal cause: unknown user, bad password, then disabled or
    pending.  Every attempt pays for exactly one digest verification, an
    unknown user's against a dummy, so timing does not reveal which ids
    exist.
    """
    user = find_user(doc, user_id)
    verified = verify_secret(password, dummy_digest() if user is None else user.password_digest)
    if user is None or not verified or user.status is not UserStatus.ACTIVE:
        cause = "unknown_user" if user is None else "bad_password" if not verified else user.status.value
        return None, AuthFailed(), (_login_failed(user_id, cause),)

    session = _issue_session(doc, user, now)
    new_doc = replace(doc, sessions=doc.sessions + (session,))
    entry = AuditEntry(actor=user.user_id, kind="login_succeeded", detail={"user_id": user.user_id})
    return new_doc, session, (entry,)


def _login_failed(user_id: str, cause: str) -> AuditEntry:
    return AuditEntry(actor="anonymous", kind="login_failed", detail={"user_id": user_id, "cause": cause})


def _locate(
    doc: StoreDocument, token: str, now: datetime, slid: datetime | None = None
) -> tuple[Session, UserRecord, datetime] | None:
    """The live session of ``token``, its user and its effective expiry, or
    None when the token is unknown or expired, or its user is missing or
    disabled (an older store may hold such a session).  The effective expiry
    is the later of the stored one and ``slid``, an expiry an earlier resolve
    recorded outside the snapshot."""
    session = find_session(doc, token)
    if session is None:
        return None
    expires_at = session.expires_at if slid is None else max(session.expires_at, slid)
    if now > expires_at:
        return None
    user = find_user(doc, session.user_id)
    if user is None or user.status is UserStatus.DISABLED:
        return None
    return session, user, expires_at


def resolve(
    doc: StoreDocument, token: str, *, now: datetime, slid: datetime | None = None
) -> tuple[Principal, datetime | None]:
    """Resolve a live token to a principal carrying the user's current role
    and status; raise InvalidToken for a dead one.

    A live session slides to now + TTL, but never backwards, so a clock
    stepped back cannot leave a session expiring before it was issued.  The
    snapshot is only read: the slid expiry comes back beside the principal,
    or None when the stored expiry is already as late, for the caller to
    keep until the next commit folds it in (see :func:`fold_slides`).
    """
    located = _locate(doc, token, now, slid)
    if located is None:
        raise InvalidToken()
    session, user, expires_at = located
    slide = max(expires_at, _expiry(doc, now))
    return principal_for(user), slide if slide > session.expires_at else None


def fold_slides(doc: StoreDocument, slides: Mapping[str, datetime]) -> StoreDocument:
    """``doc`` with each session's expiry moved to the one ``slides`` holds
    for its token where that is later; ``doc`` itself when none is."""
    if not slides:
        return doc
    folded = tuple(
        replace(s, expires_at=slides[s.token]) if slides.get(s.token, s.expires_at) > s.expires_at else s
        for s in doc.sessions
    )
    return doc if folded == doc.sessions else replace(doc, sessions=folded)


def logout(doc: StoreDocument, token: str) -> MutationResult:
    """Invalidate a token.  Idempotent: unknown tokens are a no-op."""
    session = find_session(doc, token)
    if session is None:
        return None, None, ()
    entry = AuditEntry(actor=session.user_id, kind="logged_out", detail={"user_id": session.user_id})
    return replace(doc, sessions=tuple(s for s in doc.sessions if s.token != token)), None, (entry,)


def change_password(
    doc: StoreDocument,
    token: str,
    old_password: str,
    new_password: str,
    *,
    now: datetime,
) -> MutationResult:
    """Self-service password change for the session's own user.

    The old password must verify; on success every other live session of
    the user is invalidated while the acting session stays usable.
    """
    located = _locate(doc, token, now)
    if located is None:
        raise InvalidToken()
    _, user, _ = located
    if not doc.config.allow_self_password_change:
        raise PolicyForbidden()
    if not verify_secret(old_password, user.password_digest):
        raise OldPasswordMismatch()
    check_password_strength(new_password)
    updated = replace(user, password_digest=make_digest(new_password))
    sessions = tuple(s for s in doc.sessions if s.user_id != user.user_id or s.token == token)
    entry = AuditEntry(actor=user.user_id, kind="password_changed", detail={"user_id": user.user_id})
    return replace(replace_user(doc, updated), sessions=sessions), None, (entry,)


def _recovery_failed(user_id: str, cause: str) -> AuditEntry:
    return AuditEntry(actor="anonymous", kind="recovery_failed", detail={"user_id": user_id, "cause": cause})


def _recoverable(user: UserRecord | None) -> str | None:
    """The internal reason recovery is unavailable, or None when it can run."""
    if user is None:
        return "unknown_user"
    if user.status is not UserStatus.ACTIVE:
        return "not_active"
    if not user.hint_question.strip():
        return "no_hint"
    return None


def recover_begin(doc: StoreDocument, user_id: str) -> MutationResult:
    """Start recovery: return the stored hint question for an active user.

    Unavailable outcomes (unknown user, non-active user, no hint on file)
    are indistinguishable to the caller.
    """
    user = find_user(doc, user_id)
    cause = _recoverable(user)
    if cause is not None:
        return None, RecoveryUnavailable(), (_recovery_failed(user_id, cause),)
    entry = AuditEntry(actor="anonymous", kind="recovery_started", detail={"user_id": user.user_id})
    return None, user.hint_question, (entry,)


def recover_complete(
    doc: StoreDocument,
    user_id: str,
    hint_answer: str,
    *,
    now: datetime,
) -> MutationResult:
    """Finish recovery: on a matching hint answer, issue a fresh random
    password (returned exactly once) and invalidate every live session.

    Five consecutive mismatches lock recovery for the account until an
    administrator re-enables it; the counter resets on success.
    """
    user = find_user(doc, user_id)
    cause = _recoverable(user)
    if cause is not None:
        return None, RecoveryUnavailable(), (_recovery_failed(user_id, cause),)
    if user.recovery_failures >= RECOVERY_LOCK_THRESHOLD:
        return None, RecoveryLocked(), (_recovery_failed(user_id, "locked"),)
    if not verify_hint_answer(hint_answer, user.hint_answer_digest):
        bumped = replace(user, recovery_failures=user.recovery_failures + 1)
        return replace_user(doc, bumped), HintMismatch(), (_recovery_failed(user_id, "hint_mismatch"),)

    new_password = generate_password()
    updated = replace(user, password_digest=make_digest(new_password), recovery_failures=0)
    sessions = tuple(s for s in doc.sessions if s.user_id != user.user_id)
    entry = AuditEntry(actor="anonymous", kind="recovery_completed", detail={"user_id": user.user_id})
    return replace(replace_user(doc, updated), sessions=sessions), new_password, (entry,)


def prune_expired_sessions(doc: StoreDocument, now: datetime) -> StoreDocument:
    """Drop sessions past their expiry.  Applied before each snapshot save."""
    live = tuple(s for s in doc.sessions if s.live_at(now))
    if len(live) == len(doc.sessions):
        return doc
    return replace(doc, sessions=live)
