"""Salted credential digests plus secret generation.

Passwords and hint answers are stored only as salted PBKDF2-SHA256 digests.
Every new digest is made at ``DEFAULT_COST``, read at call time.  The cost
is recorded per digest, so records made at an older cost keep verifying
after the constant changes.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import os
import secrets
import string
from dataclasses import dataclass

PBKDF2_SHA256 = "pbkdf2-sha256"
DEFAULT_COST = 120_000
MIN_SALT_BYTES = 16
MIN_PASSWORD_LENGTH = 8

GENERATED_PASSWORD_LENGTH = 12
_PASSWORD_ALPHABET = string.ascii_letters + string.digits  # 62 symbols

# 24 random bytes -> 192 bits of entropy, comfortably above the 128-bit floor.
_TOKEN_BYTES = 24


@dataclass(frozen=True)
class CredentialDigest:
    """A salted, cost-parameterized digest of a shared secret."""

    algorithm: str
    salt: bytes
    digest: bytes
    cost: int


def make_digest(secret: str) -> CredentialDigest:
    salt = os.urandom(MIN_SALT_BYTES)
    raw = hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, DEFAULT_COST)
    return CredentialDigest(algorithm=PBKDF2_SHA256, salt=salt, digest=raw, cost=DEFAULT_COST)


def verify_secret(secret: str, stored: CredentialDigest) -> bool:
    """Only PBKDF2-SHA256 digests exist: ``digest_from_wire`` refuses others."""
    candidate = hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), stored.salt, stored.cost)
    return hmac.compare_digest(candidate, stored.digest)


_dummies: dict[int, CredentialDigest] = {}


def dummy_digest() -> CredentialDigest:
    """A throwaway digest verified against when a login names an unknown user,
    so the unknown-user path costs the same as a wrong-password path.  One
    is kept per cost, so a changed ``DEFAULT_COST`` gets a fresh one."""
    if DEFAULT_COST not in _dummies:
        _dummies[DEFAULT_COST] = make_digest(secrets.token_urlsafe(32))
    return _dummies[DEFAULT_COST]


def normalize_hint_answer(answer: str) -> str:
    """Hint answers compare case-insensitively after whitespace trimming."""
    return answer.strip().casefold()


def make_hint_digest(answer: str) -> CredentialDigest:
    """Digest a hint answer, normalized.  A blank answer digests an
    unguessable random secret so it can never be matched."""
    return make_digest(normalize_hint_answer(answer) or secrets.token_urlsafe(32))


def verify_hint_answer(answer: str, stored: CredentialDigest) -> bool:
    normalized = normalize_hint_answer(answer)
    if not normalized:
        return False
    return verify_secret(normalized, stored)


def generate_password() -> str:
    """A fresh 12-character password from a 62-symbol alphabet (CSPRNG)."""
    return "".join(secrets.choice(_PASSWORD_ALPHABET) for _ in range(GENERATED_PASSWORD_LENGTH))


def new_session_token() -> str:
    return secrets.token_urlsafe(_TOKEN_BYTES)


def digest_to_wire(cd: CredentialDigest) -> dict:
    return {
        "alg": cd.algorithm,
        "salt": base64.b64encode(cd.salt).decode("ascii"),
        "digest": base64.b64encode(cd.digest).decode("ascii"),
        "cost": cd.cost,
    }


def digest_from_wire(obj: dict) -> CredentialDigest:
    """Inverse of :func:`digest_to_wire`.  Raises ValueError on bad shape."""
    if not isinstance(obj, dict):
        raise ValueError("digest must be an object")
    alg = obj.get("alg")
    salt = obj.get("salt")
    digest = obj.get("digest")
    cost = obj.get("cost")
    if not isinstance(alg, str) or not isinstance(salt, str) or not isinstance(digest, str):
        raise ValueError("digest fields alg/salt/digest must be strings")
    if alg != PBKDF2_SHA256:
        raise ValueError(f"digest alg must be {PBKDF2_SHA256!r}")
    if not isinstance(cost, int) or isinstance(cost, bool) or cost < 1:
        raise ValueError("digest cost must be a positive integer")
    try:
        salt_bytes = base64.b64decode(salt, validate=True)
        digest_bytes = base64.b64decode(digest, validate=True)
    except Exception as exc:
        raise ValueError(f"digest salt/digest are not valid base64: {exc}") from None
    if len(salt_bytes) < MIN_SALT_BYTES:
        raise ValueError(f"digest salt must be at least {MIN_SALT_BYTES} bytes")
    return CredentialDigest(algorithm=alg, salt=salt_bytes, digest=digest_bytes, cost=cost)
