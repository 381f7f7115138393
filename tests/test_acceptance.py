"""Acceptance suite.

One test per acceptance criterion, each printing a single
``ACCEPTANCE <n> <name>: PASS|FAIL`` line on the real stdout so the verdicts
survive pytest's capture.  Criteria with stated runtime budgets assert them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import string
import sys
import time

import pytest

from gatekeeper.app import Gatekeeper
from gatekeeper.cli import execute
from gatekeeper.engine import ANONYMOUS, decide, principal_for, visible_menu
from gatekeeper.errors import (
    AuthFailed,
    GatekeeperError,
    HintMismatch,
    IdAlreadyExists,
    InvalidId,
    InvalidToken,
    IoFailure,
    RecoveryLocked,
    ValidationFailure,
)
from gatekeeper.model import (
    AccessLevel,
    DataClass,
    MenuGroup,
    PolicyConfig,
    Role,
    SelfRegistrationMode,
    UserStatus,
    active_admin_count,
    baseline_allows,
)
from gatekeeper.sessions import RECOVERY_LOCK_THRESHOLD
from gatekeeper.store import load, loads, save, serialize_document
from gatekeeper.web import HttpRequest, PolicyService

from reference import BASELINE_TABLE, oracle_decide, oracle_visible_ids
from worlds import (
    FakeClock,
    NOW,
    exhaustive_small_worlds,
    make_resource,
    random_world,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number} {name}: PASS", file=sys.__stdout__)


def all_principals(doc):
    return [ANONYMOUS] + [principal_for(u) for u in doc.users]


def test_criterion_1_baseline_matrix_conformance():
    with criterion(1, "baseline-matrix-conformance"):
        started = time.perf_counter()
        mismatches = [
            cell
            for cell, expected in BASELINE_TABLE.items()
            if baseline_allows(*cell) is not expected
        ]
        elapsed = time.perf_counter() - started
        assert mismatches == []
        assert len(BASELINE_TABLE) == 60
        assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle-equivalence"):
        started = time.perf_counter()
        mismatches = 0
        checked = 0

        def check_world(doc):
            nonlocal mismatches, checked
            for principal in all_principals(doc):
                for resource in doc.resources:
                    for level in AccessLevel:
                        decision = decide(doc, principal, resource.resource_id, level, NOW)
                        expected = oracle_decide(doc, principal, resource.resource_id, level, NOW)
                        checked += 1
                        if (decision.verdict.value, decision.reason.value) != expected:
                            mismatches += 1

        # Decisions depend only on the requesting user's own role, status and
        # grants, so one subject user exhausts the rule interactions; the
        # randomized pass crosses multiple users anyway.
        exhausted = 0
        for doc in exhaustive_small_worlds():
            exhausted += 1
            check_world(doc)

        rng = random.Random(0xACCE55)
        for _ in range(1000):
            check_world(random_world(rng, max_users=6, max_resources=8, max_grants=10))

        elapsed = time.perf_counter() - started
        assert exhausted > 5000
        assert checked > 50_000
        assert mismatches == 0
        assert elapsed < 30.0


def test_criterion_3_menu_decision_consistency():
    with criterion(3, "menu-decision-consistency"):
        rng = random.Random(0x3E2D)
        violations = 0
        for _ in range(500):
            doc = random_world(rng)
            for principal in all_principals(doc):
                tree = visible_menu(doc, principal, NOW)
                shown = {item.resource_id for _, items in tree.groups for item in items}
                if shown != oracle_visible_ids(doc, principal, NOW):
                    violations += 1
        assert violations == 0


def test_criterion_4_lifecycle_state_machine():
    with criterion(4, "lifecycle-state-machine"):
        master = random.Random(0x11FE)
        ids = ["ann", "bob", "cat", "dan", "ANN", "Bob", "eve"]
        roles = [Role.GUEST, Role.STAFF, Role.MANAGER, Role.ADMINISTRATOR]
        statuses = [UserStatus.ACTIVE, UserStatus.DISABLED]
        levels = [AccessLevel.READ, AccessLevel.WRITE]
        sequences = 10_000
        ops_run = 0

        for _ in range(sequences):
            rng = random.Random(master.getrandbits(64))
            clock = FakeClock()
            multi = rng.random() < 0.5
            result = Gatekeeper.bootstrap(
                "root", "rootpass1", config=PolicyConfig(multi_admin=multi),
                clock=clock,
            )
            gk = result.gatekeeper
            admin = gk.principal_for("root")
            gk.add_resource(admin, make_resource("res0", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS))
            gk.add_resource(admin, make_resource("res1", DataClass.GENERAL, MenuGroup.STAFF_MENU))

            for _ in range(rng.randint(1, 8)):
                op = rng.randrange(5)
                try:
                    if op == 0:
                        gk.create_user(admin, rng.choice(ids), "password1", rng.choice(roles))
                    elif op == 1:
                        gk.set_role(admin, rng.choice(ids), rng.choice(roles))
                    elif op == 2:
                        gk.set_status(admin, rng.choice(ids), rng.choice(statuses))
                    elif op == 3:
                        gk.grant_special(admin, rng.choice(ids), f"res{rng.randrange(2)}", rng.choice(levels))
                    else:
                        gk.revoke_grant(admin, f"g{rng.randint(1, 6)}")
                except GatekeeperError:
                    pass
                ops_run += 1

                doc = gk.snapshot
                folded = [u.user_id.casefold() for u in doc.users]
                assert len(folded) == len(set(folded)), "case-folded id collision"
                assert active_admin_count(doc) >= 1, "store lost its last active administrator"
                user_roles = {u.user_id: u.role for u in doc.users}
                for grant in doc.grants:
                    assert grant.level is not AccessLevel.ADMIN, "admin-level grant"
                    assert not (
                        user_roles[grant.user_id] is Role.GUEST and grant.level is AccessLevel.WRITE
                    ), "guest write grant"
                seqs = [e.seq for e in gk.audit_events()]
                assert seqs == list(range(1, len(seqs) + 1)), "audit sequence gap"

        assert ops_run >= sequences


def test_criterion_5_authentication_suite():
    with criterion(5, "authentication-suite"):
        clock = FakeClock()
        gk = Gatekeeper.bootstrap(
            "root", "rootpass1", hint_question="pet?", hint_answer="rex",
            config=PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL),
            clock=clock,
        ).gatekeeper
        admin = gk.principal_for("root")
        gk.create_user(admin, "alice", "password1", Role.MANAGER, "colour?", "red")
        gk.create_user(admin, "victim", "password1", Role.STAFF, "colour?", "blue")
        gk.self_register("pend", "password1")  # pending
        gk.set_status(admin, "victim", UserStatus.DISABLED)

        # AuthFailed is byte-identical across all four causes, in the library
        # rendering and on the wire.
        service = PolicyService(gk)
        causes = [
            ("ghost", "password1"),    # unknown user
            ("alice", "wrong-pass"),   # wrong password
            ("victim", "password1"),   # disabled
            ("pend", "password1"),     # pending
        ]
        library_renderings = set()
        wire_renderings = set()
        for user_id, password in causes:
            with pytest.raises(AuthFailed) as excinfo:
                gk.login(user_id, password)
            library_renderings.add((str(excinfo.value), excinfo.value.code))
            response = service.handle(HttpRequest.make(
                "POST", "/api/login", {},
                json.dumps({"user_id": user_id, "password": password}).encode(),
            ))
            wire_renderings.add((response.status, response.body))
        assert len(library_renderings) == 1
        assert len(wire_renderings) == 1

        # Exactly one password authenticates at any instant, across change and
        # recovery.
        session = gk.login("alice", "password1")
        gk.change_password(session.token, "password1", "password2")
        with pytest.raises(AuthFailed):
            gk.login("alice", "password1")
        assert gk.login("alice", "password2")
        issued = gk.recover_complete("alice", "red")
        with pytest.raises(AuthFailed):
            gk.login("alice", "password2")
        assert gk.login("alice", issued)

        # Recovery locks at exactly five consecutive failures.
        for i in range(RECOVERY_LOCK_THRESHOLD - 1):
            with pytest.raises(HintMismatch):
                gk.recover_complete("alice", f"wrong-{i}")
        fresh_password = gk.recover_complete("alice", "red")  # 4 failures: still open
        for i in range(RECOVERY_LOCK_THRESHOLD):
            with pytest.raises(HintMismatch):
                gk.recover_complete("alice", f"wrong-{i}")
        with pytest.raises(RecoveryLocked):
            gk.recover_complete("alice", "red")  # 5 failures: locked even for the right answer

        # Disabled users fail both login and resolve.
        live = gk.login("alice", fresh_password)
        gk.set_status(admin, "alice", UserStatus.DISABLED)
        with pytest.raises(AuthFailed):
            gk.login("alice", fresh_password)
        with pytest.raises(InvalidToken):
            gk.resolve(live.token)


def test_criterion_6_unique_id_flowchart(tmp_path):
    with criterion(6, "unique-id-flowchart"):
        # The admin-facing flow: a duplicate id (any casing) warns and asks
        # for a different user-id.
        env = {
            "GATEKEEPER_STORE": str(tmp_path / "store.json"),
            "GATEKEEPER_PASSWORD": "rootpass1",
        }

        def run_cli(args):
            out, err = io.StringIO(), io.StringIO()
            code = execute(args, env, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        assert run_cli(["bootstrap", "root", "--password", "rootpass1"])[0] == 0
        add = ["user", "add", "umishra", "--role", "staff", "--password", "password1", "--as", "root"]
        assert run_cli(add)[0] == 0
        for duplicate in ("umishra", "UMISHRA", "UMishra"):
            code, _, err = run_cli(
                ["user", "add", duplicate, "--role", "staff", "--password", "password1", "--as", "root"]
            )
            assert code == 1
            assert "user-id already exists; choose a different user-id" in err

        # validate_user_id agrees with create_user on 1,000 random candidates.
        gk = Gatekeeper.open(env["GATEKEEPER_STORE"])
        admin = gk.principal_for("root")
        rng = random.Random(0x60D)
        alphabet = string.ascii_letters + string.digits + "._-" + " /;é"
        existing = ["root", "umishra"]
        for i in range(1000):
            shape = rng.randrange(4)
            if shape == 0:
                candidate = rng.choice(existing)
                candidate = "".join(
                    ch.upper() if rng.random() < 0.5 else ch.lower() for ch in candidate
                )
            else:
                candidate = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(0, 70))
                )
            refusal = gk.validate_user_id(candidate)
            try:
                gk.create_user(admin, candidate, "password1", Role.STAFF)
                raised = None
                existing.append(candidate)
            except (IdAlreadyExists, InvalidId) as exc:
                raised = exc
            assert type(refusal) is type(raised), (candidate, refusal, raised)
            if raised is not None:
                assert refusal.message == raised.message, (candidate, refusal, raised)


def test_criterion_7_persistence(tmp_path, monkeypatch):
    with criterion(7, "persistence"):
        # 200 random valid stores round-trip to identical documents.
        rng = random.Random(0x5707E)
        path = tmp_path / "roundtrip.json"
        for _ in range(200):
            doc = random_world(rng, with_sessions=True)
            save(doc, path)
            assert load(path) == doc

        # 1,000 byte-level mutants never crash the loader.
        base = serialize_document(random_world(random.Random(7), with_sessions=True))
        fuzz_rng = random.Random(0xF022)
        for _ in range(1000):
            mutant = bytearray(base)
            for _ in range(fuzz_rng.randint(1, 10)):
                op = fuzz_rng.randrange(3)
                pos = fuzz_rng.randrange(len(mutant))
                if op == 0:
                    mutant[pos] = fuzz_rng.randrange(256)
                elif op == 1:
                    del mutant[pos]
                else:
                    mutant.insert(pos, fuzz_rng.randrange(256))
            try:
                loads(bytes(mutant))
            except GatekeeperError:
                pass  # typed, clean failure

        # Fault-injected saves never corrupt the previous snapshot.
        victim = tmp_path / "victim.json"
        good = random_world(random.Random(11))
        save(good, victim)
        before = victim.read_bytes()
        replacement = random_world(random.Random(12))

        def failing(*args, **kwargs):
            raise OSError("injected fault")

        for target in ("replace", "write", "fsync"):
            monkeypatch.setattr(os, target, failing)
            with pytest.raises(IoFailure):
                save(replacement, victim)
            monkeypatch.undo()
            assert victim.read_bytes() == before
            assert load(victim) == good

        # Validation failures are caught before any bytes are written.
        users = list(replacement.users) + [replacement.users[0]]
        from dataclasses import replace as dc_replace

        with pytest.raises(ValidationFailure):
            save(dc_replace(replacement, users=tuple(users)), victim)
        assert victim.read_bytes() == before


def test_criterion_8_end_to_end_scenario(tmp_path):
    with criterion(8, "end-to-end-scenario"):
        started = time.perf_counter()
        t0 = "2026-06-01T12:00:00Z"
        store = str(tmp_path / "mis.json")
        env = {
            "GATEKEEPER_STORE": store,
            "GATEKEEPER_PASSWORD": "rootpass1",
        }

        def cli(args):
            out, err = io.StringIO(), io.StringIO()
            code = execute(args + ["--now", t0], env, stdout=out, stderr=err)
            assert code == 0, err.getvalue()
            return out.getvalue()

        # Bootstrap the administrator, build the site, provision the actors.
        cli(["bootstrap", "root", "--password", "rootpass1"])
        cli(["resource", "add", "welcome", "--class", "public", "--group", "public-pages", "--as", "root"])
        cli(["resource", "add", "staff-notes", "--class", "general", "--group", "staff-menu", "--as", "root"])
        cli(["resource", "add", "monthly-report", "--class", "managerial", "--group", "manager-reports", "--as", "root"])
        cli(["resource", "add", "admin-panel", "--class", "sensitive", "--group", "admin-menu", "--as", "root"])
        cli(["user", "add", "staff1", "--role", "staff", "--password", "staffpass1", "--as", "root"])
        cli(["user", "add", "mgr1", "--role", "manager", "--password", "mgrpass11", "--as", "root"])
        cli(["user", "add", "guest1", "--role", "guest", "--password", "guestpass1", "--as", "root"])
        # Temporary read access for the guest on one managerial report.
        cli(["grant", "add", "guest1", "monthly-report", "--level", "read",
             "--expires", "2026-07-01T12:00:00Z", "--as", "root"])

        # Serve the same store over HTTP with an injected clock.
        clock = FakeClock(NOW)  # NOW == t0
        service = PolicyService(Gatekeeper.open(store, clock=clock))

        def http(method, target, token=None, body=None):
            headers = {"Authorization": f"Bearer {token}"} if token else {}
            payload = json.dumps(body).encode() if body is not None else b""
            return service.handle(HttpRequest.make(method, target, headers, payload))

        def menu_ids(token):
            response = http("GET", "/api/menu", token=token)
            assert response.status == 200
            return {
                item["resource_id"]
                for group in response.json()["groups"]
                for item in group["items"]
            }

        def menu_groups(token):
            response = http("GET", "/api/menu", token=token)
            return [group["group"] for group in response.json()["groups"]]

        # Before expiry the guest sees the granted report.
        guest_token = http("POST", "/api/login",
                           body={"user_id": "guest1", "password": "guestpass1"}).json()["token"]
        assert "monthly-report" in menu_ids(guest_token)
        assert "welcome" in menu_ids(guest_token)

        # After expiry it disappears.
        clock.advance(days=31)
        guest_token = http("POST", "/api/login",
                           body={"user_id": "guest1", "password": "guestpass1"}).json()["token"]
        assert "monthly-report" not in menu_ids(guest_token)
        assert "welcome" in menu_ids(guest_token)

        # The manager sees staff and manager menus, never the admin menu.
        mgr_token = http("POST", "/api/login",
                         body={"user_id": "mgr1", "password": "mgrpass11"}).json()["token"]
        groups = menu_groups(mgr_token)
        assert "staff_menu" in groups
        assert "manager_reports" in groups
        assert "admin_menu" not in groups

        # Disabling staff revokes everything, including the live session.
        staff_token = http("POST", "/api/login",
                           body={"user_id": "staff1", "password": "staffpass1"}).json()["token"]
        assert "staff-notes" in menu_ids(staff_token)
        admin_token = http("POST", "/api/login",
                           body={"user_id": "root", "password": "rootpass1"}).json()["token"]
        response = http("PATCH", "/api/admin/users/staff1", token=admin_token,
                        body={"status": "disabled"})
        assert response.status == 200
        assert http("GET", "/api/menu", token=staff_token).status == 401
        assert http("POST", "/api/login",
                    body={"user_id": "staff1", "password": "staffpass1"}).status == 401

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
