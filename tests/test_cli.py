"""Command-line interface behavior: exit codes, output, engine equivalence."""

from __future__ import annotations

import contextlib
import errno
import fcntl
import io
import json
import os
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from gatekeeper import app, cli, credentials, web
from gatekeeper.app import Gatekeeper
from gatekeeper.cli import execute
from gatekeeper.engine import ANONYMOUS
from gatekeeper.errors import StoreChanged
from gatekeeper.model import AccessLevel, Role
from gatekeeper.store import audit_path_for, format_instant, load, save
from gatekeeper.wire import decision_wire

from worlds import NOW

T0 = "2026-06-01T12:00:00Z"
T_PLUS_30D = "2026-07-01T12:00:00Z"
T_PLUS_31D = "2026-07-02T12:00:00Z"
LAST_INSTANT = "9999-12-31T23:59:59Z"


def run(args, env, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    code = execute(args, env, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def env(tmp_path):
    return {
        "GATEKEEPER_STORE": str(tmp_path / "store.json"),
        "GATEKEEPER_PASSWORD": "rootpass1",
    }


@pytest.fixture
def booted(env):
    code, out, err = run(
        ["bootstrap", "root", "--password", "rootpass1", "--now", T0,
         "--hint-question", "pet?", "--hint-answer", "rex"],
        env,
    )
    assert code == 0, err
    return env


def admin_args(extra):
    return extra + ["--as", "root", "--now", T0]


class TestBootstrap:
    def test_creates_store_and_echoes_password(self, env, tmp_path):
        code, out, err = run(["bootstrap", "root", "--password", "rootpass1", "--now", T0], env)
        assert code == 0
        assert "password: rootpass1" in out
        assert (tmp_path / "store.json").exists()

    def test_generates_password_when_omitted(self, env):
        code, out, _ = run(["bootstrap", "root", "--now", T0], env)
        assert code == 0
        generated = [line for line in out.splitlines() if line.startswith("password: ")][0]
        assert len(generated.split(": ")[1]) == 12

    def test_refuses_to_clobber(self, booted):
        code, _, err = run(["bootstrap", "root2", "--password", "otherpass1"], booted)
        assert code == 1
        assert "already exists" in err

    def test_json_mode(self, env):
        code, out, _ = run(["bootstrap", "root", "--password", "rootpass1", "--json", "--now", T0], env)
        assert code == 0
        doc = json.loads(out)
        assert doc["admin"]["user_id"] == "root"
        assert doc["password"] == "rootpass1"

    def test_the_environment_cannot_lower_the_kdf_cost(self, env, monkeypatch):
        monkeypatch.setattr(credentials, "DEFAULT_COST", 3)
        env = {**env, "GATEKEEPER_KDF_COST": "2"}
        bootstrap = ["bootstrap", "root", "--password", "rootpass1", "--hint-answer", "rex", "--now", T0]
        assert run(bootstrap, env)[0] == 0
        assert run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), env)[0] == 0
        users = load(env["GATEKEEPER_STORE"]).users
        assert [u.user_id for u in users] == ["root", "rjones"]
        assert {d.cost for u in users for d in (u.password_digest, u.hint_answer_digest)} == {3}

    def test_a_zero_session_ttl_is_a_domain_error(self, env, tmp_path):
        code, out, err = run(["bootstrap", "root", "--password", "rootpass1", "--session-ttl", "0"], env)
        assert (code, out, err) == (1, "", "error: session_ttl_seconds must be a positive integer\n")
        assert not (tmp_path / "store.json").exists()


class TestPipedSecrets:
    """With no terminal, each prompt reads the next line of stdin, silently."""

    ADD = admin_args(["user", "add", "hal", "--role", "guest"])

    def test_a_piped_password_is_read_without_a_warning(self, booted, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("halpass123\n"))
        assert run(self.ADD, booted) == (0, "created user 'hal' (guest, active)\n", "")
        assert run(["login", "hal", "--password", "halpass123", "--now", T0], booted)[0] == 0

    def test_prompts_read_one_line_each_in_prompt_order(self, booted, monkeypatch):
        env = {k: v for k, v in booted.items() if k != "GATEKEEPER_PASSWORD"}
        monkeypatch.setattr(sys, "stdin", io.StringIO("halpass123\r\nrootpass1\n"))
        assert run(self.ADD, env) == (0, "created user 'hal' (guest, active)\n", "")
        assert run(["login", "hal", "--password", "halpass123", "--now", T0], booted)[0] == 0

    @pytest.mark.parametrize("kind", ["at-eof", "closed", "absent"])
    def test_no_input_is_a_usage_error(self, booted, monkeypatch, kind):
        stdin = None if kind == "absent" else io.StringIO("" if kind == "at-eof" else "halpass123\n")
        if kind == "closed":
            stdin.close()
        monkeypatch.setattr(sys, "stdin", stdin)
        store = Path(booted["GATEKEEPER_STORE"])
        before = store.read_bytes(), audit_path_for(store).read_bytes()
        assert run(self.ADD, booted) == (2, "", "error: a password is required and no terminal is available\n")
        assert (store.read_bytes(), audit_path_for(store).read_bytes()) == before


class TestUserCommands:
    def test_add_prints_created_id(self, booted):
        code, out, err = run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        assert code == 0, err
        assert "created user 'rjones'" in out

    def test_duplicate_add_exits_1_with_guidance(self, booted):
        args = admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"])
        assert run(args, booted)[0] == 0
        code, _, err = run(args, booted)
        assert code == 1
        assert "user-id already exists; choose a different user-id" in err

    def test_duplicate_any_casing(self, booted):
        assert run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)[0] == 0
        code, _, err = run(admin_args(["user", "add", "RJONES", "--role", "staff", "--password", "password1"]), booted)
        assert code == 1
        assert "different user-id" in err

    def test_list_and_filters(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        run(admin_args(["user", "add", "mboss", "--role", "manager", "--password", "password1"]), booted)
        code, out, _ = run(admin_args(["user", "list", "--json"]), booted)
        assert code == 0
        users = json.loads(out)["users"]
        assert [u["user_id"] for u in users] == ["mboss", "rjones", "root"]
        code, out, _ = run(admin_args(["user", "list", "--role", "manager", "--json"]), booted)
        assert [u["user_id"] for u in json.loads(out)["users"]] == ["mboss"]

    def test_set_role_enable_disable(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        record = {"created_at": T0, "created_by": "root", "hint_question": "", "recovery_locked": False,
                  "user_id": "rjones"}
        steps = [
            (["set-role", "rjones", "--role", "manager"], "user 'rjones' role is now manager", "manager", "active"),
            (["disable", "rjones"], "user 'rjones' is now disabled", "manager", "disabled"),
            (["enable", "rjones"], "user 'rjones' is now active", "manager", "active"),
        ]
        for command, line, role, status in steps:
            assert run(admin_args(["user", *command]), booted) == (0, line + "\n", "")
            code, out, err = run(admin_args(["user", *command, "--json"]), booted)
            assert (code, err) == (0, "")
            assert json.loads(out) == {**record, "role": role, "status": status}

    def test_wrong_admin_password_fails_auth(self, booted):
        bad = dict(booted, GATEKEEPER_PASSWORD="wrong-password")
        code, _, err = run(["user", "add", "rjones", "--role", "staff", "--password", "password1", "--as", "root"], bad)
        assert code == 1
        assert "invalid credentials" in err

    def test_non_admin_actor_not_authorized(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        staff_env = dict(booted, GATEKEEPER_PASSWORD="password1")
        code, _, err = run(["user", "add", "other", "--role", "staff", "--password", "password1", "--as", "rjones"], staff_env)
        assert code == 1
        assert "administrator" in err

    def test_missing_as_flag_is_usage_error(self, booted):
        code, _, err = run(["user", "add", "rjones", "--role", "staff", "--password", "password1"], booted)
        assert code == 2
        assert "--as" in err


class TestResourceAndGrantCommands:
    def _site(self, env):
        run(admin_args(["resource", "add", "about-us", "--class", "public", "--group", "public-pages"]), env)
        run(admin_args(["resource", "add", "monthly-report", "--class", "managerial", "--group", "manager-reports"]), env)
        run(admin_args(["user", "add", "guest1", "--role", "guest", "--password", "password1"]), env)

    def test_resource_add_and_list(self, booted):
        self._site(booted)
        code, out, _ = run(["resource", "list", "--json"], booted)
        assert code == 0
        ids = [r["resource_id"] for r in json.loads(out)["resources"]]
        assert ids == ["about-us", "monthly-report"]

    def test_admin_menu_resource_defaults_to_admin_level(self, booted):
        run(admin_args(["resource", "add", "panel", "--class", "sensitive", "--group", "admin-menu"]), booted)
        code, out, _ = run(["resource", "list", "--json"], booted)
        panel = [r for r in json.loads(out)["resources"] if r["resource_id"] == "panel"][0]
        assert panel["required_level"] == "admin"

    def test_an_explicit_level_is_stored(self, booted):
        add = ["resource", "add", "handbook", "--class", "general", "--group", "staff-menu", "--level", "write"]
        code, out, err = run(admin_args([*add, "--json"]), booted)
        assert (code, err) == (0, "")
        assert json.loads(out)["required_level"] == "write"
        assert load(booted["GATEKEEPER_STORE"]).resources[0].required_level is AccessLevel.WRITE

    def test_a_level_the_group_refuses_is_a_domain_error(self, booted):
        add = ["resource", "add", "panel", "--class", "sensitive", "--group", "admin-menu", "--level", "read"]
        assert run(admin_args(add), booted) == (1, "", (
            "error: admin-menu resources require the admin level "
            "and the admin level belongs only to admin-menu resources\n"
        ))
        assert load(booted["GATEKEEPER_STORE"]).resources == ()

    def test_grant_lifecycle(self, booted):
        self._site(booted)
        code, out, err = run(
            admin_args(["grant", "add", "guest1", "monthly-report", "--level", "read", "--expires", T_PLUS_30D, "--json"]),
            booted,
        )
        assert code == 0, err
        grant = json.loads(out)
        assert grant["level"] == "read"

        code, out, _ = run(admin_args(["grant", "list", "--json"]), booted)
        assert [g["grant_id"] for g in json.loads(out)["grants"]] == [grant["grant_id"]]

        code, _, _ = run(admin_args(["grant", "revoke", grant["grant_id"]]), booted)
        assert code == 0
        code, _, err = run(admin_args(["grant", "revoke", grant["grant_id"]]), booted)
        assert code == 1
        assert "no such grant" in err

    def test_grant_at_the_last_instant(self, booted):
        self._site(booted)
        code, out, err = run(
            ["grant", "add", "guest1", "about-us", "--level", "read", "--as", "root", "--now", LAST_INSTANT, "--json"],
            booted,
        )
        assert code == 0, err
        assert json.loads(out)["granted_at"] == LAST_INSTANT

    def test_grant_admin_level_is_domain_error(self, booted):
        self._site(booted)
        code, _, err = run(admin_args(["grant", "add", "guest1", "monthly-report", "--level", "admin"]), booted)
        assert code == 1
        assert "admin" in err


class TestCheckAndMenu:
    def _site(self, env):
        run(admin_args(["resource", "add", "about-us", "--class", "public", "--group", "public-pages"]), env)
        run(admin_args(["resource", "add", "monthly-report", "--class", "managerial", "--group", "manager-reports"]), env)
        run(admin_args(["user", "add", "guest1", "--role", "guest", "--password", "password1"]), env)
        run(admin_args(["user", "add", "mboss", "--role", "manager", "--password", "password1"]), env)
        run(admin_args(["grant", "add", "guest1", "monthly-report", "--level", "read", "--expires", T_PLUS_30D]), env)

    def test_check_human_output(self, booted):
        self._site(booted)
        code, out, _ = run(["check", "--user", "guest1", "--resource", "monthly-report", "--level", "read", "--now", T0], booted)
        assert code == 0
        assert "decision: allow" in out
        assert "reason: special_grant" in out
        assert "trace:" in out

    def test_check_matches_engine_decision_exactly(self, booted):
        self._site(booted)
        cases = [
            (None, "about-us", "read"),
            (None, "monthly-report", "read"),
            ("guest1", "monthly-report", "read"),
            ("guest1", "monthly-report", "write"),
            ("mboss", "monthly-report", "read"),
            ("mboss", "monthly-report", "write"),
            ("root", "monthly-report", "admin"),
        ]
        gk = Gatekeeper.open(booted["GATEKEEPER_STORE"], clock=lambda: NOW)
        for user, resource, level in cases:
            args = ["check", "--resource", resource, "--level", level, "--json", "--now", T0]
            if user:
                args += ["--user", user]
            code, out, _ = run(args, booted)
            assert code == 0
            principal = gk.principal_for(user) if user else ANONYMOUS
            expected = decision_wire(gk.decide(principal, resource, AccessLevel(level)))
            assert json.loads(out) == expected

    def test_check_unknown_resource_is_domain_error(self, booted):
        code, _, err = run(["check", "--resource", "ghost", "--level", "read"], booted)
        assert code == 1
        assert "no such resource" in err

    def test_menu_for_manager_and_anonymous(self, booted):
        self._site(booted)
        code, out, _ = run(["menu", "--user", "mboss", "--json", "--now", T0], booted)
        groups = [g["group"] for g in json.loads(out)["groups"]]
        assert groups == ["public_pages", "manager_reports"]
        code, out, _ = run(["menu", "--json", "--now", T0], booted)
        groups = [g["group"] for g in json.loads(out)["groups"]]
        assert groups == ["public_pages"]

    def test_expired_grant_disappears_from_menu(self, booted):
        self._site(booted)
        code, out, _ = run(["menu", "--user", "guest1", "--json", "--now", T0], booted)
        shown = {i["resource_id"] for g in json.loads(out)["groups"] for i in g["items"]}
        assert "monthly-report" in shown
        code, out, _ = run(["menu", "--user", "guest1", "--json", "--now", T_PLUS_31D], booted)
        shown = {i["resource_id"] for g in json.loads(out)["groups"] for i in g["items"]}
        assert "monthly-report" not in shown


class TestAuthCommands:
    def test_login_prints_token_that_resolves(self, booted):
        code, out, _ = run(["login", "root", "--password", "rootpass1", "--json", "--now", T0], booted)
        assert code == 0
        token = json.loads(out)["token"]
        gk = Gatekeeper.open(booted["GATEKEEPER_STORE"], clock=lambda: NOW)
        assert gk.resolve(token).user_id == "root"

    def test_login_expiry_is_clamped_to_the_last_instant(self, booted):
        code, out, err = run(["login", "root", "--password", "rootpass1", "--json", "--now", LAST_INSTANT], booted)
        assert code == 0, err
        assert json.loads(out)["expires_at"] == "9999-12-31T23:59:59.999999Z"

    def test_login_failure_exit_1(self, booted):
        code, _, err = run(["login", "root", "--password", "wrong-pass"], booted)
        assert code == 1
        assert "invalid credentials" in err

    def test_passwd_change_flow(self, booted):
        code, _, err = run(["passwd", "change", "--as", "root", "--new-password", "newpass12", "--now", T0], booted)
        assert code == 0, err
        assert run(["login", "root", "--password", "rootpass1"], booted)[0] == 1
        assert run(["login", "root", "--password", "newpass12"], booted)[0] == 0

    def test_recover_flow(self, booted):
        code, out, _ = run(["passwd", "recover-begin", "root", "--json"], booted)
        assert code == 0
        assert json.loads(out)["hint_question"] == "pet?"
        code, out, _ = run(["passwd", "recover-complete", "root", "--answer", "rex", "--json"], booted)
        assert code == 0
        issued = json.loads(out)["password"]
        assert run(["login", "root", "--password", issued], booted)[0] == 0

    def test_recover_wrong_answer(self, booted):
        code, _, err = run(["passwd", "recover-complete", "root", "--answer", "fido"], booted)
        assert code == 1
        assert "hint answer" in err


class TestAuditCommand:
    def test_tail_shows_recent_events(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        code, out, _ = run(["audit", "tail", "-n", "50", "--json"], booted)
        assert code == 0
        kinds = [e["kind"] for e in json.loads(out)["events"]]
        assert "user_created" in kinds
        assert "login_succeeded" in kinds

    def test_kind_filter(self, booted):
        run(["login", "root", "--password", "nope"], booted)
        code, out, _ = run(["audit", "tail", "--kind", "login_failed", "--json"], booted)
        events = json.loads(out)["events"]
        assert events and all(e["kind"] == "login_failed" for e in events)

    def test_a_missing_audit_file_is_an_empty_log(self, booted):
        os.remove(audit_path_for(booted["GATEKEEPER_STORE"]))
        assert run(["audit", "tail"], booted) == (0, "(no events)\n", "")
        assert run(["audit", "tail", "--json"], booted) == (0, '{"events": []}\n', "")

    def test_seq_is_gap_free_across_invocations(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        run(admin_args(["user", "add", "mboss", "--role", "manager", "--password", "password1"]), booted)
        code, out, _ = run(["audit", "tail", "-n", "1000", "--json"], booted)
        seqs = [e["seq"] for e in json.loads(out)["events"]]
        assert seqs == list(range(1, len(seqs) + 1))


class TestUsageErrors:
    def test_unknown_command(self, env):
        code, _, _ = run(["frobnicate"], env)
        assert code == 2

    def test_missing_store(self):
        code, _, err = run(["user", "list", "--as", "root"], {"GATEKEEPER_PASSWORD": "x"})
        assert code == 2
        assert "GATEKEEPER_STORE" in err

    # Every command that logs no user in.  `serve` gets a bind it refuses, so
    # that no server starts whatever its options.
    UNACTING = [
        ["bootstrap", "root2", "--password", "rootpass1"],
        ["resource", "list"],
        ["check", "--resource", "ghost", "--level", "read"],
        ["menu"],
        ["login", "root", "--password", "rootpass1"],
        ["passwd", "recover-begin", "root"],
        ["passwd", "recover-complete", "root", "--answer", "rex"],
        ["audit", "tail"],
        ["serve", "--bind", "nowhere"],
    ]

    @pytest.mark.parametrize("args", UNACTING, ids=["bootstrap", "resource-list", "check", "menu", "login",
                                                     "recover-begin", "recover-complete", "audit-tail", "serve"])
    def test_a_command_that_logs_no_user_in_refuses_as(self, booted, args):
        store = Path(booted["GATEKEEPER_STORE"])
        before = store.read_bytes(), audit_path_for(store).read_bytes()
        code, out, err = run([*args, "--as", "root", "--now", T0], booted)
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --as root\n")
        assert (store.read_bytes(), audit_path_for(store).read_bytes()) == before

    @pytest.mark.parametrize("args", [
        ["user", "add", "ann", "--role", "staff"],
        ["user", "list"],
        ["user", "set-role", "root", "--role", "staff"],
        ["user", "enable", "root"],
        ["user", "disable", "root"],
        ["grant", "add", "root", "page", "--level", "read"],
        ["grant", "revoke", "g1"],
        ["grant", "list"],
        ["resource", "add", "page", "--class", "public", "--group", "public-pages"],
        ["passwd", "change"],
    ], ids=lambda args: "-".join(args[:2]))
    def test_a_command_that_logs_a_user_in_requires_as_before_any_prompt(self, booted, monkeypatch, args):
        def prompt(label):
            raise AssertionError(f"prompted for {label!r}")

        monkeypatch.setattr(cli, "_prompt_secret", prompt)
        env = {k: v for k, v in booted.items() if k != "GATEKEEPER_PASSWORD"}
        code, out, err = run(args, env)
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: --as\n")

    def test_only_serve_loads_the_http_stack(self):
        import subprocess

        import gatekeeper

        package_root = str(Path(gatekeeper.__file__).resolve().parent.parent)
        probe = "import sys, gatekeeper.cli; print(sorted({'http.server', 'gatekeeper.web'} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", probe], env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"

    def test_bad_level_choice(self, booted):
        code, _, _ = run(["check", "--resource", "x", "--level", "frob"], booted)
        assert code == 2

    def test_bad_now(self, booted):
        code, _, err = run(["menu", "--now", "yesterday"], booted)
        assert code == 2
        assert "argument --now: not an RFC 3339 instant: 'yesterday'" in err

    @pytest.mark.parametrize(
        "args",
        [
            admin_args(["grant", "add", "root", "page", "--level", "read", "--expires", "garbage"]),
            ["audit", "tail", "-n", "-3"],
            ["check", "--resource", "page", "--level", "read", "--now", "0001-01-01T00:00:00+01:00"],
            ["audit", "tail", "-n", "\u0663"],
            ["audit", "tail", "-n", "1_0"],
            ["bootstrap", "root2", "--session-ttl", "\u0663"],
            ["bootstrap", "root2", "--session-ttl", "-5"],
            ["bootstrap", "root2", "--session-ttl", "+3"],
            ["bootstrap", "root2", "--session-ttl", "1_0"],
            ["bootstrap", "root2", "--session-ttl", " 3"],
        ],
        ids=["expires", "negative-lines", "out-of-range-now", "non-ascii-lines", "underscore-lines",
             "non-ascii-ttl", "negative-ttl", "signed-ttl", "underscore-ttl", "spaced-ttl"],
    )
    def test_bad_option_value_is_a_usage_error(self, booted, args):
        store = Path(booted["GATEKEEPER_STORE"])
        before = store.read_bytes(), audit_path_for(store).read_bytes()
        code, out, err = run(args, booted)
        assert code == 2
        assert "error: argument" in err
        assert "Traceback" not in err
        assert out == ""
        assert (store.read_bytes(), audit_path_for(store).read_bytes()) == before

    def test_help_exits_zero(self, env):
        code, out, _ = run(["--help"], env)
        assert code == 0
        assert "bootstrap" in out

    def test_corrupt_store_is_a_domain_error(self, booted, tmp_path):
        for corrupt in ('{"version": 1, "users": [', "[" * 100_000 + "]" * 100_000):
            with open(booted["GATEKEEPER_STORE"], "w") as handle:
                handle.write(corrupt)
            code, _, err = run(["user", "list", "--as", "root"], booted)
            assert code == 1
            assert "error:" in err
            assert "Traceback" not in err

    def test_unsupported_store_version(self, booted):
        with open(booted["GATEKEEPER_STORE"]) as handle:
            blob = json.load(handle)
        blob["version"] = 7
        with open(booted["GATEKEEPER_STORE"], "w") as handle:
            json.dump(blob, handle)
        code, _, err = run(["resource", "list"], booted)
        assert code == 1
        assert "version" in err


class TestDeterminism:
    def test_repeated_reads_are_byte_identical(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1"]), booted)
        for args in [
            ["check", "--user", "rjones", "--resource", "ghost", "--level", "read", "--now", T0],
            ["menu", "--user", "rjones", "--json", "--now", T0],
            ["resource", "list", "--json"],
        ]:
            first = run(args, booted)
            second = run(args, booted)
            assert first == second

    def test_grant_ids_are_sequential(self, booted):
        run(admin_args(["resource", "add", "rep", "--class", "managerial", "--group", "manager-reports"]), booted)
        run(admin_args(["user", "add", "guest1", "--role", "guest", "--password", "password1"]), booted)
        run(admin_args(["user", "add", "guest2", "--role", "guest", "--password", "password1"]), booted)
        _, out1, _ = run(admin_args(["grant", "add", "guest1", "rep", "--level", "read", "--json"]), booted)
        _, out2, _ = run(admin_args(["grant", "add", "guest2", "rep", "--level", "read", "--json"]), booted)
        assert json.loads(out1)["grant_id"] == "g1"
        assert json.loads(out2)["grant_id"] == "g2"


class TestServeCommand:
    def test_serve_answers_requests(self, booted):
        import socket
        import subprocess
        import sys
        import time
        import urllib.request
        from pathlib import Path

        import gatekeeper

        # The child imports the same gatekeeper package this test imported,
        # whether or not it is installed.
        package_root = str(Path(gatekeeper.__file__).resolve().parent.parent)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        process = subprocess.Popen(
            [sys.executable, "-m", "gatekeeper", "serve", "--bind", f"127.0.0.1:{port}"],
            env={**booted, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 10
            last_error = None
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(f"http://127.0.0.1:{port}/api/menu", timeout=1) as response:
                        assert response.status == 200
                        break
                except OSError as exc:
                    last_error = exc
                    time.sleep(0.1)
            else:
                raise AssertionError(f"server never came up: {last_error}")
        finally:
            process.terminate()
            process.communicate(timeout=10)  # waits, and closes the pipes


    def test_serve_on_port_0_prints_the_port_it_listens_on(self, booted):
        import subprocess
        import urllib.request

        import gatekeeper

        package_root = str(Path(gatekeeper.__file__).resolve().parent.parent)
        process = subprocess.Popen(
            [sys.executable, "-m", "gatekeeper", "serve", "--bind", "127.0.0.1:0"],
            env={**booted, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            line = process.stdout.readline().decode()  # printed once the socket listens
            prefix = "serving on http://127.0.0.1:"
            assert line.startswith(prefix) and line.endswith("\n"), line
            port = int(line[len(prefix):])
            assert port != 0
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/api/menu", timeout=10) as response:
                assert response.status == 200
        finally:
            process.terminate()
            process.communicate(timeout=10)

    @pytest.mark.parametrize("slid", [True, False], ids=["slid", "unslid"])
    def test_sigterm_saves_pending_slides_once_and_exits_0(self, booted, slid):
        import subprocess
        import sys
        import urllib.request

        import gatekeeper
        from gatekeeper.store import load

        package_root = str(Path(gatekeeper.__file__).resolve().parent.parent)
        # `python -m gatekeeper` with a save counter reported at exit.
        script = (
            "import atexit, sys; import gatekeeper.app as app; from gatekeeper.cli import main; "
            "saves = []; real = app.save; "
            "app.save = lambda doc, path: (saves.append(path), real(doc, path)); "
            "atexit.register(lambda: print(f'saves={len(saves)}', file=sys.stderr)); main()"
        )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        base = f"http://127.0.0.1:{port}"
        process = subprocess.Popen(
            [sys.executable, "-c", script, "serve", "--bind", f"127.0.0.1:{port}"],
            env={**booted, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            process.stdout.readline()  # "serving on ..." once the socket listens
            login = urllib.request.Request(
                f"{base}/api/login", data=json.dumps({"user_id": "root", "password": "rootpass1"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(login, timeout=10) as response:
                session = json.loads(response.read())
            if slid:
                time.sleep(0.01)
                menu = urllib.request.Request(f"{base}/api/menu", headers={"Authorization": f"Bearer {session['token']}"})
                with urllib.request.urlopen(menu, timeout=10) as response:
                    assert response.status == 200
            before = Path(booted["GATEKEEPER_STORE"]).read_bytes()
            stopped = time.monotonic()
            process.terminate()
            _, err = process.communicate(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert time.monotonic() - stopped < 5
        assert err.decode().splitlines() == [f"saves={2 if slid else 1}"]  # the login, then the flush
        stored = load(booted["GATEKEEPER_STORE"])
        expires_at = next(s.expires_at for s in stored.sessions if s.token == session["token"])
        if slid:
            assert format_instant(expires_at) > session["expires_at"]
        else:
            assert Path(booted["GATEKEEPER_STORE"]).read_bytes() == before
            assert format_instant(expires_at) == session["expires_at"]

    @pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:\u0663"], ids=["out-of-range", "non-ascii-digit"])
    def test_bad_port_is_a_usage_error(self, booted, monkeypatch, bind):
        def unreachable(*args):
            raise AssertionError("the server must not be started")

        monkeypatch.setattr(web, "make_server", unreachable)
        code, out, err = run(["serve", "--bind", bind], booted)
        assert (code, out, err) == (2, "", "error: --bind must look like HOST:PORT\n")

    def test_port_in_use_is_an_io_failure(self, booted):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            code, out, err = run(["serve", "--json", "--bind", f"127.0.0.1:{port}"], booted)
        message = f"cannot listen on 127.0.0.1:{port}: [Errno {errno.EADDRINUSE}] {os.strerror(errno.EADDRINUSE)}"
        assert code == 1
        assert json.loads(out) == {"error": "io_failure", "message": message}
        assert err == f"error: {message}\n"


class TestStoreWrites:
    @pytest.mark.parametrize(
        "command, saves",
        [
            (["user", "add", "ann", "--role", "staff", "--password", "password1"], 3),  # login, create, logout
            (["user", "list"], 2),  # login, logout
        ],
        ids=["user-add", "user-list"],
    )
    def test_admin_command_saves_once_per_commit(self, booted, monkeypatch, command, saves):
        import gatekeeper.app as app

        real_save, calls = app.save, []

        def counting_save(doc, path):
            calls.append(path)
            real_save(doc, path)

        monkeypatch.setattr(app, "save", counting_save)
        code, _, err = run(admin_args(command), booted)
        assert code == 0, err
        assert len(calls) == saves


class TestLostUpdates:
    """An open engine never overwrites a store another process changed."""

    def test_a_cli_write_under_an_open_instance_is_not_overwritten(self, booted):
        store = booted["GATEKEEPER_STORE"]
        gk = Gatekeeper.open(store)
        assert run(admin_args(["user", "add", "alice", "--role", "staff", "--password", "password1"]), booted)[0] == 0
        with pytest.raises(StoreChanged) as excinfo:
            gk.create_user(gk.principal_for("root"), "bob", "password1", Role.STAFF)
        assert store in excinfo.value.message
        assert {u.user_id for u in load(store).users} == {"root", "alice"}
        assert not [e for e in Gatekeeper.open(store).audit_events(kind="user_created") if e.detail["user_id"] == "bob"]

    def test_an_instance_write_then_a_cli_write_then_the_instance_is_refused(self, booted):
        store = booted["GATEKEEPER_STORE"]
        gk = Gatekeeper.open(store)
        gk.create_user(gk.principal_for("root"), "bob", "password1", Role.STAFF)
        assert run(admin_args(["user", "add", "alice", "--role", "staff", "--password", "password1"]), booted)[0] == 0
        assert {u.user_id for u in load(store).users} == {"root", "bob", "alice"}
        with pytest.raises(StoreChanged):
            gk.create_user(gk.principal_for("root"), "carol", "password1", Role.STAFF)
        assert {u.user_id for u in load(store).users} == {"root", "bob", "alice"}

    def test_a_cli_write_between_load_and_construction_is_not_overwritten(self, booted, monkeypatch):
        store = booted["GATEKEEPER_STORE"]

        def load_then_cli_write(path):
            monkeypatch.undo()  # the CLI's own open loads unpatched
            doc = load(path)
            assert run(admin_args(["user", "add", "alice", "--role", "staff", "--password", "password1"]), booted)[0] == 0
            return doc

        monkeypatch.setattr(app, "load", load_then_cli_write)
        gk = Gatekeeper.open(store)
        with pytest.raises(StoreChanged):
            gk.create_user(gk.principal_for("root"), "bob", "password1", Role.STAFF)
        assert {u.user_id for u in load(store).users} == {"root", "alice"}

    def test_a_save_waits_for_the_store_lock_and_checks_the_file_under_it(self, booted):
        store = booted["GATEKEEPER_STORE"]
        gk = Gatekeeper.open(store)
        root = gk.principal_for("root")
        errors = []

        def add_bob():
            try:
                gk.create_user(root, "bob", "password1", Role.STAFF)
            except StoreChanged as exc:
                errors.append(exc)

        writer = threading.Thread(target=add_bob)
        with holding_store_lock(booted):
            writer.start()
            time.sleep(0.5)
            assert writer.is_alive(), "the save did not wait for the store lock"
            save(load(store), store)  # another process's write, made under the lock
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(errors) == 1
        assert "bob" not in {u.user_id for u in load(store).users}

    def test_a_denial_after_a_cli_write_is_still_answered(self, booted):
        add = ["resource", "add", "rep", "--class", "managerial", "--group", "manager-reports"]
        assert run(admin_args(add), booted)[0] == 0
        gk = Gatekeeper.open(booted["GATEKEEPER_STORE"])
        assert run(admin_args(["user", "add", "alice", "--role", "staff", "--password", "password1"]), booted)[0] == 0
        assert not gk.check(ANONYMOUS, "rep", AccessLevel.READ).allowed  # appends, saves nothing
        assert gk.audit_events()[-1].kind == "access_denied"

    def test_a_denial_after_a_cli_write_takes_the_next_seq(self, booted):
        add = ["resource", "add", "rep", "--class", "managerial", "--group", "manager-reports"]
        assert run(admin_args(add), booted)[0] == 0
        gk = Gatekeeper.open(booted["GATEKEEPER_STORE"])
        assert run(admin_args(["user", "add", "alice", "--role", "staff", "--password", "password1"]), booted)[0] == 0
        assert not gk.check(ANONYMOUS, "rep", AccessLevel.READ).allowed
        seqs = [e.seq for e in gk.audit_events()]
        assert seqs == list(range(1, len(seqs) + 1))
        assert gk.audit_events()[-1].kind == "access_denied"


@contextlib.contextmanager
def holding_store_lock(env):
    """Hold the CLI's advisory store lock from a file descriptor of our own."""
    fd = os.open(Path(env["GATEKEEPER_STORE"]).with_suffix(".lock"), os.O_CREAT | os.O_RDWR, 0o600)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


class TestStoreLock:
    def test_denied_check_waits_for_the_store_lock(self, booted):
        add = ["resource", "add", "monthly-report", "--class", "managerial", "--group", "manager-reports"]
        assert run(admin_args(add), booted)[0] == 0
        audit = audit_path_for(booted["GATEKEEPER_STORE"])
        denials_before = audit.read_text().count('"access_denied"')
        result = []
        check = threading.Thread(
            target=lambda: result.append(run(["check", "--resource", "monthly-report", "--level", "read"], booted))
        )
        with holding_store_lock(booted):
            check.start()
            time.sleep(0.5)
            assert check.is_alive(), "check appended to the audit log without the store lock"
        check.join(timeout=10)
        assert not check.is_alive()
        code, out, err = result[0]
        assert code == 0, err
        assert "decision: deny" in out
        assert audit.read_text().count('"access_denied"') == denials_before + 1

    @pytest.mark.parametrize(
        "args",
        [
            ["user", "list", "--as", "root"],
            ["login", "root"],
            ["passwd", "change", "--as", "root", "--new-password", "newpass12"],
        ],
        ids=["admin", "login", "passwd-change"],
    )
    def test_password_prompt_runs_without_the_store_lock(self, booted, monkeypatch, args):
        lock_path = Path(booted["GATEKEEPER_STORE"]).with_suffix(".lock")
        lock_free_at_prompt = []

        def probe(label):
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o600)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                lock_free_at_prompt.append(True)
            except BlockingIOError:
                lock_free_at_prompt.append(False)
            finally:
                os.close(fd)
            return "rootpass1"

        monkeypatch.setattr(cli, "_prompt_secret", probe)
        env = {k: v for k, v in booted.items() if k != "GATEKEEPER_PASSWORD"}
        code, _, err = run(args, env)
        assert code == 0, err
        assert lock_free_at_prompt == [True]


class TestRedaction:
    def test_no_command_output_contains_digest_material(self, booted):
        run(admin_args(["user", "add", "rjones", "--role", "staff", "--password", "password1",
                        "--hint-question", "pet?", "--hint-answer", "rex"]), booted)
        with open(booted["GATEKEEPER_STORE"]) as handle:
            store_blob = json.load(handle)
        secrets = set()
        for user in store_blob["users"]:
            for key in ("password_digest", "hint_answer_digest"):
                secrets.add(user[key]["salt"])
                secrets.add(user[key]["digest"])
        outputs = []
        for args in [
            admin_args(["user", "list", "--json"]),
            admin_args(["user", "list"]),
            admin_args(["grant", "list", "--json"]),
            ["resource", "list", "--json"],
            ["audit", "tail", "-n", "500", "--json"],
            ["menu", "--user", "rjones", "--json"],
            ["check", "--user", "rjones", "--resource", "ghost", "--level", "read"],
        ]:
            _, out, err = run(args, booted)
            outputs.append(out + err)
        joined = "\n".join(outputs)
        for secret in secrets:
            assert secret not in joined
        assert "password1" not in joined
        assert "rootpass1" not in joined
