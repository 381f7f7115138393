"""Domain errors shared by every layer.

Each error carries a stable machine-readable ``code`` that the CLI and the
HTTP service use when rendering diagnostics, and the ``http_status`` the
service answers it with (400 unless a class says otherwise).  Errors whose
wording is part of an anti-enumeration contract (``AuthFailed``,
``RecoveryUnavailable``) accept no custom message, so their rendered form
cannot vary with the internal cause.
"""

from __future__ import annotations


class GatekeeperError(Exception):
    """Base class for every error raised by this package."""

    code = "error"
    http_status = 400
    default_message = "operation failed"

    def __init__(self, message: str | None = None):
        super().__init__(message if message is not None else self.default_message)

    @property
    def message(self) -> str:
        return self.args[0]


class NotAuthorized(GatekeeperError):
    code = "not_authorized"
    http_status = 403
    default_message = "this operation requires an active administrator"


class UnknownUser(GatekeeperError):
    code = "unknown_user"
    http_status = 404
    default_message = "no such user"


class UnknownResource(GatekeeperError):
    code = "unknown_resource"
    http_status = 404
    default_message = "no such resource"


class UnknownGrant(GatekeeperError):
    code = "unknown_grant"
    http_status = 404
    default_message = "no such grant"


class IdAlreadyExists(GatekeeperError):
    code = "id_already_exists"
    http_status = 409
    default_message = "user-id already exists; choose a different user-id"


class ResourceAlreadyExists(GatekeeperError):
    code = "resource_already_exists"
    http_status = 409
    default_message = "resource-id already exists; choose a different resource-id"


class InvalidId(GatekeeperError):
    code = "invalid_id"
    default_message = "user-id is not acceptable"


class AdminCapExceeded(GatekeeperError):
    code = "admin_cap_exceeded"
    http_status = 409
    default_message = "an active administrator already exists and multi-admin is disabled"


class WeakPassword(GatekeeperError):
    code = "weak_password"
    default_message = "password must be at least 8 characters"


class SelfRegistrationDisabled(GatekeeperError):
    code = "self_registration_disabled"
    default_message = "self-registration is disabled by policy"


class SelfDemotionForbidden(GatekeeperError):
    code = "self_demotion_forbidden"
    http_status = 409
    default_message = "the sole active administrator cannot give up the administrator role"


class SelfDisableForbidden(GatekeeperError):
    code = "self_disable_forbidden"
    http_status = 409
    default_message = "the sole active administrator cannot be disabled"


class AdminLevelNotGrantable(GatekeeperError):
    code = "admin_level_not_grantable"
    default_message = "the admin access level cannot be granted; it belongs to the administrator role"


class GuestWriteForbidden(GatekeeperError):
    code = "guest_write_forbidden"
    default_message = "guests may not hold write access"


class InvalidArgument(GatekeeperError):
    code = "invalid_argument"
    default_message = "invalid argument"


class AuthFailed(GatekeeperError):
    """Login failure.  Deliberately identical for every internal cause."""

    code = "auth_failed"
    http_status = 401
    default_message = "invalid credentials"

    def __init__(self):
        super().__init__(self.default_message)


class InvalidToken(GatekeeperError):
    code = "invalid_token"
    http_status = 401
    default_message = "invalid or expired session token"

    def __init__(self):
        super().__init__(self.default_message)


class OldPasswordMismatch(GatekeeperError):
    code = "old_password_mismatch"
    default_message = "the old password does not match"


class PolicyForbidden(GatekeeperError):
    code = "policy_forbidden"
    default_message = "password self-service is disabled by policy"


class HintMismatch(GatekeeperError):
    code = "hint_mismatch"
    http_status = 401
    default_message = "the hint answer does not match"


class RecoveryUnavailable(GatekeeperError):
    """Recovery refusal.  Deliberately identical for every internal cause."""

    code = "recovery_unavailable"
    http_status = 404
    default_message = "password recovery is not available for this user"

    def __init__(self):
        super().__init__(self.default_message)


class RecoveryLocked(GatekeeperError):
    code = "recovery_locked"
    http_status = 401
    default_message = "password recovery is locked for this account; contact an administrator"


class IoFailure(GatekeeperError):
    code = "io_failure"
    http_status = 500
    default_message = "storage I/O failed"


class StoreChanged(GatekeeperError):
    """The store file changed on disk since this process last read or wrote
    it, so saving would overwrite another process's commit."""

    code = "store_changed"
    http_status = 409
    default_message = "the store file changed on disk; nothing was saved"


class ParseFailure(GatekeeperError):
    """Malformed store or audit bytes.  Carries the position when known."""

    code = "parse_failure"
    default_message = "malformed store file"

    def __init__(self, message: str | None = None, line: int | None = None, column: int | None = None):
        if message is not None and line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationFailure(GatekeeperError):
    code = "validation_failure"
    default_message = "store document violates an invariant"


class UnsupportedVersion(GatekeeperError):
    code = "unsupported_version"
    default_message = "unsupported store format version"
