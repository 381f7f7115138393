"""Administrator and operator command-line interface.

Commands cover the full lifecycle: store bootstrap, user management, grants,
resources, decision queries, menu projection, login simulation, password
flows, audit inspection, and serving the HTTP API.

The administrative commands and ``passwd change`` require ``--as <user_id>``,
and no other command accepts it.  They log that user in with a password
taken from GATEKEEPER_PASSWORD (or an interactive prompt); the CLI goes
through the same login path as the service and never bypasses authorization.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import getpass
import json
import os
import signal
import sys
import threading
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping

from .app import Gatekeeper, system_clock
from .engine import ANONYMOUS, Principal
from .errors import GatekeeperError, IoFailure
from .model import (
    AccessLevel, DataClass, MenuGroup, PolicyConfig, Resource, Role, SelfRegistrationMode, Session, UserStatus,
)
from .store import format_instant, parse_instant, store_lock, to_wire
from .wire import _parse_count, decision_wire, menu_wire, public_user

STORE_ENV = "GATEKEEPER_STORE"
PASSWORD_ENV = "GATEKEEPER_PASSWORD"

USAGE_ERROR = 2

_ROLE_CHOICES = [r.value for r in Role]
_LEVEL_CHOICES = [l.value for l in AccessLevel]
_CLASS_CHOICES = [c.value for c in DataClass]
_GROUP_CHOICES = [g.value.replace("_", "-") for g in MenuGroup]
_REGISTRATION_CHOICES = [m.value.replace("_", "-") for m in SelfRegistrationMode]


class UsageError(Exception):
    """A problem with how the command was invoked, not with the domain."""


@dataclass
class Ctx:
    env: Mapping[str, str]
    stdout: IO[str]
    as_json: bool
    store_path: Path
    clock: Callable[[], datetime]

    def emit(self, human: str, payload: dict) -> None:
        if self.as_json:
            print(json.dumps(payload, sort_keys=True), file=self.stdout)
        else:
            print(human, file=self.stdout)


def _option(parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type from ``parse``: its ValueError is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _prompt_secret(label: str) -> str:
    """A secret typed at the terminal without echo or, with no terminal, the next
    line of stdin, unprompted.  End of input, a closed stdin or Ctrl-C is a usage error."""
    stdin = sys.stdin
    try:
        if stdin is not None and stdin.isatty():
            return getpass.getpass(label)
        line = stdin.readline() if stdin is not None else ""
    except (EOFError, KeyboardInterrupt, OSError, ValueError):  # ValueError: stdin is closed
        line = ""
    if not line:
        raise UsageError("a password is required and no terminal is available")
    return line.rstrip("\r\n")


def _auth_password(ctx: Ctx, label: str) -> str:
    password = ctx.env.get(PASSWORD_ENV)
    if password is not None:
        return password
    return _prompt_secret(f"password for {label}: ")


def _open(ctx: Ctx) -> Gatekeeper:
    return Gatekeeper.open(ctx.store_path, clock=ctx.clock)


@contextlib.contextmanager
def _locked(ctx: Ctx) -> Iterator[Gatekeeper]:
    """Take the store lock, then open the store; for mutating commands."""
    with store_lock(ctx.store_path):
        yield _open(ctx)


@contextlib.contextmanager
def _logged_in(ctx: Ctx, user_id: str, password: str) -> Iterator[tuple[Gatekeeper, Session]]:
    """Take the store lock, then log ``user_id`` in for the block and out after it."""
    with _locked(ctx) as gk:
        session = gk.login(user_id, password)
        try:
            yield gk, session
        finally:
            gk.logout(session.token)


@contextlib.contextmanager
def _as_admin(args, ctx: Ctx) -> Iterator[tuple[Gatekeeper, Principal]]:
    """Log the acting administrator in; yield the engine and their principal."""
    with _logged_in(ctx, args.as_user, _auth_password(ctx, args.as_user)) as (gk, session):
        yield gk, gk.principal_for(session.user_id)


# ---------------------------------------------------------------------------
# Command handlers


def cmd_bootstrap(args, ctx: Ctx) -> int:
    config = PolicyConfig(
        multi_admin=args.multi_admin,
        self_registration=SelfRegistrationMode(args.self_registration.replace("-", "_")),
        allow_self_password_change=not args.no_self_password_change,
        session_ttl_seconds=args.session_ttl,
        log_denials=not args.no_log_denials,
    )
    result = Gatekeeper.bootstrap(
        args.admin_id,
        args.password,
        hint_question=args.hint_question,
        hint_answer=args.hint_answer,
        config=config,
        store_path=ctx.store_path,
        clock=ctx.clock,
    )
    human = (
        f"initialized store at {ctx.store_path}\n"
        f"administrator '{result.admin.user_id}' created\n"
        f"password: {result.password}"
    )
    ctx.emit(human, {
        "store": str(ctx.store_path),
        "admin": public_user(result.admin),
        "password": result.password,
    })
    return 0


def cmd_user_add(args, ctx: Ctx) -> int:
    password = args.password if args.password is not None else _prompt_secret(f"password for {args.user_id}: ")
    with _as_admin(args, ctx) as (gk, actor):
        record = gk.create_user(
            actor, args.user_id, password, Role(args.role),
            args.hint_question, args.hint_answer,
        )
    ctx.emit(
        f"created user '{record.user_id}' ({record.role.value}, {record.status.value})",
        public_user(record),
    )
    return 0


def cmd_user_list(args, ctx: Ctx) -> int:
    role = Role(args.role) if args.role else None
    status = UserStatus(args.status) if args.status else None
    with _as_admin(args, ctx) as (gk, actor):
        users = gk.list_users(actor, role, status)
    lines = [f"{u.user_id}  {u.role.value}  {u.status.value}" for u in users]
    ctx.emit("\n".join(lines) if lines else "(no users)", {"users": [public_user(u) for u in users]})
    return 0


def cmd_user_update(args, ctx: Ctx) -> int:
    role = Role(args.role) if args.role else None
    with _as_admin(args, ctx) as (gk, actor):
        record = gk.update_user(actor, args.user_id, role=role, status=args.status)
    if role is None:
        ctx.emit(f"user '{record.user_id}' is now {record.status.value}", public_user(record))
    else:
        ctx.emit(f"user '{record.user_id}' role is now {record.role.value}", public_user(record))
    return 0


def cmd_grant_add(args, ctx: Ctx) -> int:
    with _as_admin(args, ctx) as (gk, actor):
        grant = gk.grant_special(actor, args.user_id, args.resource_id, AccessLevel(args.level), args.expires)
    until = format_instant(grant.expiry) if grant.expiry else "revoked"
    ctx.emit(
        f"grant {grant.grant_id}: '{grant.user_id}' may {grant.level.value} '{grant.resource_id}' until {until}",
        to_wire(grant),
    )
    return 0


def cmd_grant_revoke(args, ctx: Ctx) -> int:
    with _as_admin(args, ctx) as (gk, actor):
        gk.revoke_grant(actor, args.grant_id)
    ctx.emit(f"grant {args.grant_id} revoked", {"revoked": args.grant_id})
    return 0


def cmd_grant_list(args, ctx: Ctx) -> int:
    with _as_admin(args, ctx) as (gk, actor):
        grants = gk.list_grants(actor)
    lines = [
        f"{g.grant_id}  {g.user_id}  {g.resource_id}  {g.level.value}  "
        f"{format_instant(g.expiry) if g.expiry else 'never'}"
        for g in grants
    ]
    ctx.emit("\n".join(lines) if lines else "(no grants)", {"grants": [to_wire(g) for g in grants]})
    return 0


def cmd_resource_add(args, ctx: Ctx) -> int:
    group = MenuGroup(args.group.replace("-", "_"))
    if args.level:
        level = AccessLevel(args.level)
    else:
        level = AccessLevel.ADMIN if group is MenuGroup.ADMIN_MENU else AccessLevel.READ
    resource = Resource(
        resource_id=args.resource_id,
        display_name=args.name or args.resource_id,
        data_class=DataClass(args.data_class),
        menu_group=group,
        required_level=level,
        description=args.description,
    )
    with _as_admin(args, ctx) as (gk, actor):
        gk.add_resource(actor, resource)
    ctx.emit(
        f"resource '{resource.resource_id}' added to {resource.menu_group.value}",
        to_wire(resource),
    )
    return 0


def cmd_resource_list(args, ctx: Ctx) -> int:
    gk = _open(ctx)
    resources = gk.list_resources()
    lines = [
        f"{r.resource_id}  {r.data_class.value}  {r.menu_group.value}  {r.required_level.value}"
        for r in resources
    ]
    ctx.emit(
        "\n".join(lines) if lines else "(no resources)",
        {"resources": [to_wire(r) for r in resources]},
    )
    return 0


def cmd_check(args, ctx: Ctx) -> int:
    with _locked(ctx) as gk:  # a denial may append to the audit log
        principal = gk.principal_for(args.user) if args.user else ANONYMOUS
        decision = gk.check(principal, args.resource, AccessLevel(args.level))
    trace = "\n".join(f"  - {line}" for line in decision.trace)
    human = f"decision: {decision.verdict.value}\nreason: {decision.reason.value}\ntrace:\n{trace}"
    ctx.emit(human, decision_wire(decision))
    return 0


def cmd_menu(args, ctx: Ctx) -> int:
    gk = _open(ctx)
    tree = gk.visible_menu(gk.principal_for(args.user) if args.user else ANONYMOUS)
    lines = []
    for group, items in tree.groups:
        lines.append(f"[{group.value}]")
        for item in items:
            lines.append(f"  {item.display_name}  ({item.resource_id})")
    ctx.emit("\n".join(lines) if lines else "(empty menu)", menu_wire(tree))
    return 0


def cmd_login(args, ctx: Ctx) -> int:
    password = args.password if args.password is not None else _auth_password(ctx, args.user_id)
    with _locked(ctx) as gk:
        session = gk.login(args.user_id, password)
    ctx.emit(
        f"token: {session.token}\nexpires: {format_instant(session.expires_at)}",
        to_wire(session),
    )
    return 0


def cmd_passwd_change(args, ctx: Ctx) -> int:
    old_password = _auth_password(ctx, args.as_user)
    new_password = args.new_password if args.new_password is not None else _prompt_secret("new password: ")
    with _logged_in(ctx, args.as_user, old_password) as (gk, session):
        gk.change_password(session.token, old_password, new_password)
    ctx.emit("password changed", {"changed": args.as_user})
    return 0


def cmd_passwd_recover_begin(args, ctx: Ctx) -> int:
    with _locked(ctx) as gk:
        question = gk.recover_begin(args.user_id)
    ctx.emit(f"hint question: {question}", {"hint_question": question})
    return 0


def cmd_passwd_recover_complete(args, ctx: Ctx) -> int:
    with _locked(ctx) as gk:
        password = gk.recover_complete(args.user_id, args.answer)
    ctx.emit(f"new password: {password}", {"password": password})
    return 0


def cmd_audit_tail(args, ctx: Ctx) -> int:
    gk = _open(ctx)
    events = gk.audit_events(kind=args.kind, actor=args.actor, limit=args.lines)
    lines = []
    for event in events:
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.detail.items()))
        lines.append(f"[{event.seq}] {format_instant(event.at)} {event.actor} {event.kind} {detail}".rstrip())
    ctx.emit("\n".join(lines) if lines else "(no events)", {"events": [to_wire(e) for e in events]})
    return 0


def cmd_serve(args, ctx: Ctx) -> int:
    host, _, port_text = args.bind.rpartition(":")
    try:
        port = _parse_count(port_text)
        if not host or port > 65535:
            raise ValueError(args.bind)
    except ValueError:
        raise UsageError("--bind must look like HOST:PORT") from None
    from .web import make_server  # only serve loads the HTTP stack
    gk = _open(ctx)
    try:
        server = make_server(gk, host, port)
    except OSError as exc:
        raise IoFailure(f"cannot listen on {host}:{port_text}: {exc}") from exc
    print(f"serving on http://{host}:{port_text if port else server.server_address[1]}", file=ctx.stdout)
    ctx.stdout.flush()
    # SIGTERM stops the server like Ctrl-C; only the main thread may set a handler.
    in_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if in_main else None
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if in_main:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)
    gk.persist_slides()
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", help=f"store file path (default: ${STORE_ENV})")
    common.add_argument("--json", action="store_true", help="emit one JSON document on stdout")
    common.add_argument("--now", type=_option(parse_instant), help="fixed RFC 3339 clock for this invocation")
    acting = argparse.ArgumentParser(add_help=False, parents=[common])
    acting.add_argument("--as", dest="as_user", metavar="USER_ID", required=True, help="acting user")

    parser = argparse.ArgumentParser(prog="gatekeeper", description="Role-based access control for MIS report sites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bootstrap", parents=[common], help="create a store and its first administrator")
    p.add_argument("admin_id")
    p.add_argument("--password", help="admin password (generated and echoed when omitted)")
    p.add_argument("--hint-question", default="")
    p.add_argument("--hint-answer", default="")
    p.add_argument("--multi-admin", action="store_true")
    p.add_argument(
        "--self-registration",
        default=PolicyConfig.self_registration.value.replace("_", "-"),
        choices=_REGISTRATION_CHOICES,
    )
    p.add_argument("--session-ttl", type=_option(_parse_count), default=PolicyConfig.session_ttl_seconds)
    p.add_argument("--no-self-password-change", action="store_true")
    p.add_argument("--no-log-denials", action="store_true")
    p.set_defaults(func=cmd_bootstrap)

    user = sub.add_parser("user", help="user management").add_subparsers(dest="subcommand", required=True)
    p = user.add_parser("add", parents=[acting])
    p.add_argument("user_id")
    p.add_argument("--role", required=True, choices=_ROLE_CHOICES)
    p.add_argument("--password")
    p.add_argument("--hint-question", default="")
    p.add_argument("--hint-answer", default="")
    p.set_defaults(func=cmd_user_add)
    p = user.add_parser("list", parents=[acting])
    p.add_argument("--role", choices=_ROLE_CHOICES)
    p.add_argument("--status", choices=[s.value for s in UserStatus])
    p.set_defaults(func=cmd_user_list)
    p = user.add_parser("set-role", parents=[acting])
    p.add_argument("user_id")
    p.add_argument("--role", required=True, choices=_ROLE_CHOICES)
    p.set_defaults(func=cmd_user_update, status=None)
    for name, status in (("enable", UserStatus.ACTIVE), ("disable", UserStatus.DISABLED)):
        p = user.add_parser(name, parents=[acting])
        p.add_argument("user_id")
        p.set_defaults(func=cmd_user_update, role=None, status=status)

    grant = sub.add_parser("grant", help="special grants").add_subparsers(dest="subcommand", required=True)
    p = grant.add_parser("add", parents=[acting])
    p.add_argument("user_id")
    p.add_argument("resource_id")
    p.add_argument("--level", required=True, choices=_LEVEL_CHOICES)
    p.add_argument("--expires", type=_option(parse_instant),
                   help="RFC 3339 expiry (grant lives until this instant inclusive)")
    p.set_defaults(func=cmd_grant_add)
    p = grant.add_parser("revoke", parents=[acting])
    p.add_argument("grant_id")
    p.set_defaults(func=cmd_grant_revoke)
    p = grant.add_parser("list", parents=[acting])
    p.set_defaults(func=cmd_grant_list)

    resource = sub.add_parser("resource", help="protected resources").add_subparsers(dest="subcommand", required=True)
    p = resource.add_parser("add", parents=[acting])
    p.add_argument("resource_id")
    p.add_argument("--name", help="display name (defaults to the id)")
    p.add_argument("--class", dest="data_class", required=True, choices=_CLASS_CHOICES)
    p.add_argument("--group", required=True, choices=_GROUP_CHOICES)
    p.add_argument("--level", choices=_LEVEL_CHOICES,
                   help="required level (default: admin for the admin menu, read elsewhere)")
    p.add_argument("--description")
    p.set_defaults(func=cmd_resource_add)
    p = resource.add_parser("list", parents=[common])
    p.set_defaults(func=cmd_resource_list)

    p = sub.add_parser("check", parents=[common], help="evaluate one access decision")
    p.add_argument("--user", help="authenticated user (omit for an anonymous outsider)")
    p.add_argument("--resource", required=True)
    p.add_argument("--level", required=True, choices=_LEVEL_CHOICES)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("menu", parents=[common], help="project the visible menu")
    p.add_argument("--user", help="authenticated user (omit for an anonymous outsider)")
    p.set_defaults(func=cmd_menu)

    p = sub.add_parser("login", parents=[common], help="authenticate and print a session token")
    p.add_argument("user_id")
    p.add_argument("--password")
    p.set_defaults(func=cmd_login)

    passwd = sub.add_parser("passwd", help="password self-service").add_subparsers(dest="subcommand", required=True)
    p = passwd.add_parser("change", parents=[acting])
    p.add_argument("--new-password")
    p.set_defaults(func=cmd_passwd_change)
    p = passwd.add_parser("recover-begin", parents=[common])
    p.add_argument("user_id")
    p.set_defaults(func=cmd_passwd_recover_begin)
    p = passwd.add_parser("recover-complete", parents=[common])
    p.add_argument("user_id")
    p.add_argument("--answer", required=True)
    p.set_defaults(func=cmd_passwd_recover_complete)

    audit = sub.add_parser("audit", help="audit log").add_subparsers(dest="subcommand", required=True)
    p = audit.add_parser("tail", parents=[common])
    p.add_argument("-n", "--lines", type=_option(_parse_count), default=10)
    p.add_argument("--kind")
    p.add_argument("--actor")
    p.set_defaults(func=cmd_audit_tail)

    p = sub.add_parser("serve", parents=[common], help="run the HTTP policy service")
    p.add_argument("--bind", default="127.0.0.1:8047", metavar="HOST:PORT")
    p.set_defaults(func=cmd_serve)

    return parser


# ---------------------------------------------------------------------------
# Entry points


def execute(
    argv: list[str],
    env: Mapping[str, str] | None = None,
    *,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    """Run one CLI invocation; returns the exit code instead of exiting."""
    env = env if env is not None else os.environ
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0

        try:
            store_arg = args.store or env.get(STORE_ENV)
            if not store_arg:
                raise UsageError(f"no store given: pass --store or set ${STORE_ENV}")
            clock = system_clock if args.now is None else lambda: args.now
            ctx = Ctx(env=env, stdout=out, as_json=args.json, store_path=Path(store_arg), clock=clock)
            return args.func(args, ctx)
        except UsageError as exc:
            print(f"error: {exc}", file=err)
            return USAGE_ERROR
        except GatekeeperError as exc:
            if getattr(args, "json", False):
                print(json.dumps({"error": exc.code, "message": exc.message}, sort_keys=True), file=out)
            print(f"error: {exc.message}", file=err)
            return 1


def main() -> None:
    raise SystemExit(execute(sys.argv[1:]))
