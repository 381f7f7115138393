"""HTTP policy service: endpoint table, status mapping, anti-enumeration."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.request
from dataclasses import replace

import pytest

from gatekeeper import errors, web
from gatekeeper.app import Gatekeeper
from gatekeeper.model import AccessLevel, PolicyConfig, Role, SelfRegistrationMode, UserStatus, find_user, replace_user
from gatekeeper.store import audit_path_for, save
from gatekeeper.web import MAX_BODY_BYTES, HttpRequest, PolicyService, make_server
from gatekeeper.wire import decision_wire

from test_directory import fresh
from worlds import FakeClock


@pytest.fixture
def service(populated):
    return PolicyService(populated)


def call(service, method, target, token=None, body=None):
    headers = {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    payload = json.dumps(body).encode() if body is not None else b""
    return service.handle(HttpRequest.make(method, target, headers, payload))


def login(service, user_id, password):
    response = call(service, "POST", "/api/login", body={"user_id": user_id, "password": password})
    assert response.status == 200, response.body
    return response.json()["token"]


class TestLoginEndpoint:
    def test_valid_credentials_return_token(self, service):
        response = call(service, "POST", "/api/login", body={"user_id": "boss", "password": "password1"})
        assert response.status == 200
        assert "token" in response.json()

    def test_failures_are_status_and_body_identical(self, service, populated, admin):
        populated.set_status(admin, "visitor", UserStatus.DISABLED)
        attempts = [
            {"user_id": "ghost", "password": "password1"},
            {"user_id": "boss", "password": "wrong-password"},
            {"user_id": "visitor", "password": "password1"},
        ]
        responses = {(call(service, "POST", "/api/login", body=a).status,
                      call(service, "POST", "/api/login", body=a).body) for a in attempts}
        assert len(responses) == 1
        status, body = responses.pop()
        assert status == 401

    def test_malformed_json_is_400(self, service):
        response = service.handle(HttpRequest.make("POST", "/api/login", {}, b"{nope"))
        assert response.status == 400

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"[" * 100_000 + b"]" * 100_000, "request body is not valid JSON"),
            (b"{", "request body is not valid JSON"),
            (b"\xff", "request body is not valid JSON"),
            (b'["root", "rootpass1"]', "request body must be a JSON object"),
            (b"", "field 'user_id' is required and must be a string"),
        ],
        ids=["deeply-nested", "truncated", "not-utf8", "not-an-object", "empty"],
    )
    def test_malformed_body_is_400(self, service, body, message):
        response = service.handle(HttpRequest.make("POST", "/api/login", {}, body))
        assert response.status == 400
        assert response.json() == {"error": "invalid_argument", "message": message}

    def test_missing_fields_400(self, service):
        response = call(service, "POST", "/api/login", body={"user_id": "boss"})
        assert response.status == 400

    def test_expiry_past_the_last_instant_is_clamped(self):
        gk, _ = fresh(PolicyConfig(session_ttl_seconds=10**14))
        response = call(PolicyService(gk), "POST", "/api/login", body={"user_id": "root", "password": "rootpass1"})
        assert response.status == 200, response.body
        assert response.json()["expires_at"] == "9999-12-31T23:59:59.999999Z"


class TestMenuEndpoint:
    def test_anonymous_gets_public_pages_only(self, service):
        response = call(service, "GET", "/api/menu")
        assert response.status == 200
        groups = [g["group"] for g in response.json()["groups"]]
        assert groups == ["public_pages"]

    def test_manager_token_gets_role_menus_without_admin(self, service):
        token = login(service, "boss", "password1")
        response = call(service, "GET", "/api/menu", token=token)
        groups = [g["group"] for g in response.json()["groups"]]
        assert groups == ["public_pages", "staff_menu", "manager_reports"]

    def test_bad_token_is_401(self, service):
        response = call(service, "GET", "/api/menu", token="made-up")
        assert response.status == 401


class TestCheckEndpoint:
    def test_decision_expressed_in_body_not_status(self, service):
        response = call(service, "GET", "/api/check?resource=monthly-report&level=read")
        assert response.status == 200
        assert response.json()["verdict"] == "deny"

    def test_matches_engine_decision(self, service, populated):
        token = login(service, "boss", "password1")
        response = call(service, "GET", "/api/check?resource=monthly-report&level=read", token=token)
        principal = populated.principal_for("boss")
        expected = decision_wire(populated.decide(principal, "monthly-report", AccessLevel.READ))
        assert response.json() == expected

    def test_unknown_resource_404(self, service):
        response = call(service, "GET", "/api/check?resource=ghost&level=read")
        assert response.status == 404

    def test_missing_params_400(self, service):
        assert call(service, "GET", "/api/check?resource=x").status == 400
        assert call(service, "GET", "/api/check?level=read").status == 400


class TestPagesEndpoint:
    def test_allowed_page_returns_metadata(self, service):
        response = call(service, "GET", "/api/pages/about-us")
        assert response.status == 200
        assert response.json()["resource_id"] == "about-us"

    def test_denied_and_unknown_pages_are_indistinguishable(self, service):
        denied = call(service, "GET", "/api/pages/monthly-report")
        unknown = call(service, "GET", "/api/pages/ghost-page")
        assert denied.status == unknown.status == 404
        assert denied.body == unknown.body

    def test_grant_opens_page(self, service, populated, admin):
        populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.READ)
        token = login(service, "visitor", "password1")
        response = call(service, "GET", "/api/pages/monthly-report", token=token)
        assert response.status == 200


class TestRegisterEndpoint:
    def test_disabled_policy_400(self, service):
        response = call(service, "POST", "/api/register",
                        body={"user_id": "walkin", "password": "password1"})
        assert response.status == 400
        assert response.json()["error"] == "self_registration_disabled"

    def test_auto_guest(self):
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.AUTO_GUEST))
        service = PolicyService(gk)
        response = call(service, "POST", "/api/register",
                        body={"user_id": "walkin", "password": "password1"})
        assert response.status == 201
        assert response.json()["role"] == "guest"
        assert response.json()["status"] == "active"

    def test_pending_approval(self):
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        service = PolicyService(gk)
        response = call(service, "POST", "/api/register",
                        body={"user_id": "walkin", "password": "password1"})
        assert response.status == 201
        assert response.json()["status"] == "pending"

    def test_duplicate_409(self):
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.AUTO_GUEST))
        service = PolicyService(gk)
        call(service, "POST", "/api/register", body={"user_id": "walkin", "password": "password1"})
        response = call(service, "POST", "/api/register", body={"user_id": "WALKIN", "password": "password1"})
        assert response.status == 409


class TestPendingApprovalFlow:
    def test_register_then_admin_approval_then_login(self):
        gk, admin = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        from worlds import make_resource
        from gatekeeper.model import DataClass, MenuGroup

        gk.add_resource(admin, make_resource("handbook", DataClass.GENERAL, MenuGroup.STAFF_MENU))
        service = PolicyService(gk)
        response = call(service, "POST", "/api/register",
                        body={"user_id": "walkin", "password": "password1"})
        assert response.status == 201
        # Pending accounts cannot log in yet.
        assert call(service, "POST", "/api/login",
                    body={"user_id": "walkin", "password": "password1"}).status == 401
        # The administrator designates a role, which activates the account.
        admin_token = login(service, "root", "rootpass1")
        response = call(service, "PATCH", "/api/admin/users/walkin", token=admin_token,
                        body={"role": "staff"})
        assert response.json()["status"] == "active"
        token = login(service, "walkin", "password1")
        menu = call(service, "GET", "/api/menu", token=token).json()
        shown = {i["resource_id"] for g in menu["groups"] for i in g["items"]}
        assert "handbook" in shown


class TestPasswordEndpoints:
    def test_change_password(self, service):
        token = login(service, "boss", "password1")
        response = call(service, "POST", "/api/password/change", token=token,
                        body={"old_password": "password1", "new_password": "password2"})
        assert response.status == 200
        assert call(service, "POST", "/api/login",
                    body={"user_id": "boss", "password": "password2"}).status == 200

    def test_change_without_token_401(self, service):
        response = call(service, "POST", "/api/password/change",
                        body={"old_password": "a", "new_password": "b"})
        assert response.status == 401

    def test_recover_flow(self, service):
        response = call(service, "POST", "/api/password/recover", body={"user_id": "boss"})
        assert response.status == 200
        assert response.json()["hint_question"] == "favourite colour?"
        response = call(service, "POST", "/api/password/recover/complete",
                        body={"user_id": "boss", "hint_answer": "red"})
        assert response.status == 200
        issued = response.json()["password"]
        assert call(service, "POST", "/api/login",
                    body={"user_id": "boss", "password": issued}).status == 200

    def test_recovery_failures_identical_across_causes(self, service, populated, admin):
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        responses = set()
        for user_id in ("ghost", "staffer"):
            r = call(service, "POST", "/api/password/recover", body={"user_id": user_id})
            responses.add((r.status, r.body))
        assert len(responses) == 1
        assert responses.pop()[0] == 404

    def test_wrong_hint_answer_401(self, service):
        response = call(service, "POST", "/api/password/recover/complete",
                        body={"user_id": "boss", "hint_answer": "mauve"})
        assert response.status == 401


class TestAdminEndpoints:
    def test_create_user(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "POST", "/api/admin/users", token=token,
                        body={"user_id": "newbie", "password": "password1", "role": "staff"})
        assert response.status == 201
        assert response.json()["user_id"] == "newbie"

    def test_create_user_with_staff_token_403(self, service):
        token = login(service, "staffer", "password1")
        response = call(service, "POST", "/api/admin/users", token=token,
                        body={"user_id": "newbie", "password": "password1", "role": "staff"})
        assert response.status == 403
        assert response.json()["error"] == "not_authorized"

    def test_create_user_without_token_401(self, service):
        response = call(service, "POST", "/api/admin/users",
                        body={"user_id": "newbie", "password": "password1", "role": "staff"})
        assert response.status == 401

    def test_duplicate_user_409(self, service):
        token = login(service, "root", "rootpass1")
        body = {"user_id": "staffer", "password": "password1", "role": "staff"}
        response = call(service, "POST", "/api/admin/users", token=token, body=body)
        assert response.status == 409

    def test_second_admin_409(self, service):
        token = login(service, "root", "rootpass1")
        body = {"user_id": "root2", "password": "password1", "role": "administrator"}
        response = call(service, "POST", "/api/admin/users", token=token, body=body)
        assert response.status == 409
        assert response.json()["error"] == "admin_cap_exceeded"

    def test_list_users_with_filter(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", "/api/admin/users?role=guest", token=token)
        assert response.status == 200
        assert [u["user_id"] for u in response.json()["users"]] == ["visitor"]

    def test_patch_role_and_status(self, service, populated):
        token = login(service, "root", "rootpass1")
        response = call(service, "PATCH", "/api/admin/users/staffer", token=token,
                        body={"role": "manager"})
        assert response.status == 200
        assert response.json()["role"] == "manager"
        response = call(service, "PATCH", "/api/admin/users/staffer", token=token,
                        body={"status": "disabled"})
        assert response.status == 200
        assert populated.principal_for("staffer").status is UserStatus.DISABLED

    def test_patch_unknown_user_404(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "PATCH", "/api/admin/users/ghost", token=token, body={"role": "staff"})
        assert response.status == 404

    def test_patch_without_fields_400(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "PATCH", "/api/admin/users/staffer", token=token, body={})
        assert response.status == 400

    def test_grant_create_and_delete(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "POST", "/api/admin/grants", token=token,
                        body={"user_id": "visitor", "resource_id": "monthly-report", "level": "read",
                              "expiry": "2026-07-01T12:00:00Z"})
        assert response.status == 201
        grant_id = response.json()["grant_id"]
        response = call(service, "DELETE", f"/api/admin/grants/{grant_id}", token=token)
        assert response.status == 200
        response = call(service, "DELETE", f"/api/admin/grants/{grant_id}", token=token)
        assert response.status == 404

    def test_guest_write_grant_400(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "POST", "/api/admin/grants", token=token,
                        body={"user_id": "visitor", "resource_id": "monthly-report", "level": "write"})
        assert response.status == 400
        assert response.json()["error"] == "guest_write_forbidden"

    def test_list_users_status_filter(self, service, populated, admin):
        populated.set_status(admin, "visitor", UserStatus.DISABLED)
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", "/api/admin/users?status=disabled", token=token)
        assert [u["user_id"] for u in response.json()["users"]] == ["visitor"]

    def test_patch_with_unknown_role_400(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "PATCH", "/api/admin/users/staffer", token=token,
                        body={"role": "wizard"})
        assert response.status == 400

    def test_patch_with_a_bad_second_field_commits_nothing(self, service, populated):
        token = login(service, "root", "rootpass1")
        events_before = populated.audit_events()
        for body in ({"role": "manager", "status": "bogus"}, {"role": "manager", "status": "pending"}):
            response = call(service, "PATCH", "/api/admin/users/staffer", token=token, body=body)
            assert response.status == 400
            assert response.json()["error"] == "invalid_argument"
            assert populated.principal_for("staffer").role is Role.STAFF
            assert populated.audit_events() == events_before

    def test_a_two_field_patch_is_one_commit(self, tmp_path, monkeypatch):
        import gatekeeper.app as app

        gk = app.Gatekeeper.bootstrap(
            "root", "rootpass1", store_path=tmp_path / "store.json", clock=FakeClock()
        ).gatekeeper
        gk.create_user(gk.principal_for("root"), "staffer", "password1", Role.STAFF)
        service = PolicyService(gk)
        token = login(service, "root", "rootpass1")
        saves = []
        real_save = app.save
        monkeypatch.setattr(app, "save", lambda doc, path: (saves.append(path), real_save(doc, path)))
        response = call(service, "PATCH", "/api/admin/users/staffer", token=token,
                        body={"role": "manager", "status": "disabled"})
        assert response.status == 200
        assert len(saves) == 1  # the update; the bearer resolve saves nothing
        role_changed, status_changed = gk.audit_events()[-2:]
        assert (role_changed.kind, status_changed.kind) == ("role_changed", "status_changed")
        assert status_changed.seq == role_changed.seq + 1

    def test_audit_time_and_limit_params(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", "/api/admin/audit?limit=2", token=token)
        assert response.status == 200
        assert len(response.json()["events"]) == 2
        response = call(service, "GET", "/api/admin/audit?since=not-a-date", token=token)
        assert response.status == 400

    def test_out_of_range_audit_since_400(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", "/api/admin/audit?since=0001-01-01T00:00:00%2B01:00", token=token)
        assert response.status == 400
        assert response.json() == {
            "error": "invalid_argument",
            "message": "instant is out of range: '0001-01-01T00:00:00+01:00'",
        }

    def test_negative_audit_limit_400(self, service):
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", "/api/admin/audit?limit=-1", token=token)
        assert response.status == 400
        assert response.json() == {"error": "invalid_argument", "message": "limit must be a non-negative integer"}

    # parse_qs reads '+' as a space, so '+2' arrives as ' 2'.
    @pytest.mark.parametrize("limit", ["%D9%A3", "1_0", "+2", "%202", "2%20", "abc", ""],
                             ids=["arabic-indic-digit", "underscore", "plus", "leading-space", "trailing-space",
                                  "word", "empty"])
    def test_audit_limit_takes_ascii_digits_only(self, service, limit):
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", f"/api/admin/audit?limit={limit}", token=token)
        assert response.status == 400
        assert response.json() == {"error": "invalid_argument", "message": "limit must be a non-negative integer"}

    @pytest.mark.parametrize("target, body, message", [
        ("/api/admin/users", {"user_id": "newbie", "password": "password1", "role": "staff", "hint_question": 5},
         "field 'hint_question' must be a string"),
        ("/api/admin/grants", {"user_id": "staffer", "resource_id": "monthly-report", "level": "read", "expiry": 5},
         "field 'expiry' must be an RFC 3339 string or null"),
    ], ids=["hint-question", "expiry"])
    def test_a_field_of_the_wrong_type_is_400_and_commits_nothing(self, service, populated, target, body, message):
        token = login(service, "root", "rootpass1")
        before = populated.snapshot
        response = call(service, "POST", target, token=token, body=body)
        assert response.status == 400
        assert response.json() == {"error": "invalid_argument", "message": message}
        assert (populated.snapshot.users, populated.snapshot.grants) == (before.users, before.grants)

    @pytest.mark.parametrize("method, target, body, message", [
        ("POST", "/api/admin/grants", {"user_id": "staffer", "resource_id": "monthly-report", "level": "read",
                                       "expires": "2026-07-01T12:00:00Z"}, "unknown fields: ['expires']"),
        ("PATCH", "/api/admin/users/staffer", {"role": "manager", "stauts": "disabled"},
         "unknown fields: ['stauts']"),
        ("POST", "/api/login", {"user_id": "root", "password": "rootpass1", "z": 1, "a": 2},
         "unknown fields: ['a', 'z']"),
    ], ids=["grant-expires", "patch-stauts", "login-two"])
    def test_an_unknown_field_is_400_and_commits_nothing(self, service, populated, method, target, body, message):
        token = login(service, "root", "rootpass1")
        before, events_before = populated.snapshot, populated.audit_events()
        response = call(service, method, target, token=token, body=body)
        assert response.status == 400
        assert response.json() == {"error": "invalid_argument", "message": message}
        assert (populated.snapshot.users, populated.snapshot.grants) == (before.users, before.grants)
        assert populated.audit_events() == events_before

    def test_audit_endpoint_requires_admin(self, service):
        token = login(service, "staffer", "password1")
        assert call(service, "GET", "/api/admin/audit", token=token).status == 403
        token = login(service, "root", "rootpass1")
        response = call(service, "GET", "/api/admin/audit?kind=login_succeeded", token=token)
        assert response.status == 200
        assert all(e["kind"] == "login_succeeded" for e in response.json()["events"])

    def test_mutations_audited_with_token_actor(self, service, populated):
        token = login(service, "root", "rootpass1")
        call(service, "POST", "/api/admin/users", token=token,
             body={"user_id": "newbie", "password": "password1", "role": "staff"})
        call(service, "POST", "/api/admin/grants", token=token,
             body={"user_id": "visitor", "resource_id": "monthly-report", "level": "read"})
        events = populated.audit_events()
        created = [e for e in events if e.kind == "user_created" and e.detail.get("user_id") == "newbie"]
        granted = [e for e in events if e.kind == "grant_issued"]
        assert created and created[-1].actor == "root"
        assert granted and granted[-1].actor == "root"


class TestSessionLifecycleOverHttp:
    def test_logout_invalidates_then_noop(self, service):
        token = login(service, "boss", "password1")
        assert call(service, "POST", "/api/logout", token=token).status == 200
        assert call(service, "GET", "/api/menu", token=token).status == 401
        assert call(service, "POST", "/api/logout", token=token).status == 200  # idempotent

    def test_role_change_applies_to_live_token(self, service, populated):
        admin_token = login(service, "root", "rootpass1")
        staff_token = login(service, "staffer", "password1")
        call(service, "PATCH", "/api/admin/users/staffer", token=admin_token, body={"role": "manager"})
        response = call(service, "GET", "/api/menu", token=staff_token)
        groups = [g["group"] for g in response.json()["groups"]]
        assert "manager_reports" in groups

    def test_disable_kills_live_token(self, service):
        admin_token = login(service, "root", "rootpass1")
        staff_token = login(service, "staffer", "password1")
        unpresented = login(service, "staffer", "password1")
        call(service, "PATCH", "/api/admin/users/staffer", token=admin_token, body={"status": "disabled"})
        assert call(service, "GET", "/api/menu", token=staff_token).status == 401
        call(service, "PATCH", "/api/admin/users/staffer", token=admin_token, body={"status": "active"})
        for token in (staff_token, unpresented):  # the disable ended both sessions
            assert call(service, "GET", "/api/menu", token=token).status == 401

    def test_every_dead_token_is_the_same_401_and_writes_nothing(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "store.json"
        gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=clock).gatekeeper
        for user_id in ("staffer", "leaver"):
            gk.create_user(gk.principal_for("root"), user_id, "password1", Role.STAFF)
        expired = gk.login("staffer", "password1").token
        clock.advance(seconds=gk.config.session_ttl_seconds - 10)
        disabled = gk.login("leaver", "password1").token
        clock.advance(seconds=20)
        # A store written before disabling a user dropped their sessions.
        leaver = replace(find_user(gk.snapshot, "leaver"), status=UserStatus.DISABLED)
        save(replace_user(gk.snapshot, leaver), path)
        service = PolicyService(Gatekeeper.open(path, clock=clock))
        before = path.read_bytes(), audit_path_for(path).read_bytes()
        replies = {
            (r.status, tuple(sorted(r.headers.items())), r.body)
            for r in (call(service, "GET", "/api/menu", token=t) for t in ("made-up", expired, disabled))
        }
        assert len(replies) == 1
        status, _, body = replies.pop()
        assert (status, json.loads(body)["error"]) == (401, "invalid_token")
        assert (path.read_bytes(), audit_path_for(path).read_bytes()) == before


class TestRouting:
    def test_unknown_endpoint_404(self, service):
        assert call(service, "GET", "/api/nothing").status == 404

    def test_wrong_method_405(self, service):
        assert call(service, "DELETE", "/api/login").status == 405

    def test_malformed_authorization_header_401(self, service):
        request = HttpRequest.make("GET", "/api/menu", {"Authorization": "Basic dXNlcjpwdw=="}, b"")
        assert service.handle(request).status == 401

    def test_handler_bug_still_yields_json_500(self, service):
        def broken(request):
            raise RuntimeError("boom")

        # The route table holds bound handlers; swap one for a broken stand-in.
        service._routes = [
            (method, pattern, broken if handler.__name__ == "_menu" else handler)
            for method, pattern, handler in service._routes
        ]
        response = call(service, "GET", "/api/menu")
        assert response.status == 500
        assert response.json()["error"] == "internal_error"

    def test_bodies_are_json_objects(self, service):
        for target in ("/api/menu", "/api/nothing"):
            response = call(service, "GET", target)
            assert isinstance(response.json(), dict)
            assert response.headers["Content-Type"] == "application/json"


def _error_classes(base=errors.GatekeeperError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


# Every error class not listed here answers 400.
_NON_400_STATUS = {
    errors.AuthFailed: 401,
    errors.InvalidToken: 401,
    errors.HintMismatch: 401,
    errors.RecoveryLocked: 401,
    errors.NotAuthorized: 403,
    errors.UnknownUser: 404,
    errors.UnknownResource: 404,
    errors.UnknownGrant: 404,
    errors.RecoveryUnavailable: 404,
    errors.IdAlreadyExists: 409,
    errors.AdminCapExceeded: 409,
    errors.SelfDemotionForbidden: 409,
    errors.SelfDisableForbidden: 409,
    errors.ResourceAlreadyExists: 409,
    errors.StoreChanged: 409,
    errors.IoFailure: 500,
}


class TestErrorStatuses:
    @pytest.mark.parametrize(
        "error_class", [errors.GatekeeperError, *_error_classes()], ids=lambda cls: cls.__name__
    )
    def test_each_error_renders_its_status_and_code(self, service, error_class):
        def failing(request):
            raise error_class()

        service._routes = [
            (method, pattern, failing if handler.__name__ == "_menu" else handler)
            for method, pattern, handler in service._routes
        ]
        response = call(service, "GET", "/api/menu")
        assert response.status == _NON_400_STATUS.get(error_class, 400)
        assert response.json() == {"error": error_class.code, "message": error_class.default_message}


class TestConcurrency:
    def test_concurrent_login_setrole_check(self, populated):
        service = PolicyService(populated)
        admin_token = login(service, "root", "rootpass1")
        errors = []

        def hammer_login():
            for _ in range(25):
                if call(service, "POST", "/api/login",
                        body={"user_id": "boss", "password": "password1"}).status != 200:
                    errors.append("login")

        def hammer_role():
            for i in range(25):
                role = "manager" if i % 2 == 0 else "staff"
                if call(service, "PATCH", "/api/admin/users/staffer", token=admin_token,
                        body={"role": role}).status != 200:
                    errors.append("patch")

        def hammer_check():
            for _ in range(50):
                if call(service, "GET", "/api/check?resource=about-us&level=read").status != 200:
                    errors.append("check")

        threads = [threading.Thread(target=fn) for fn in (hammer_login, hammer_role, hammer_check)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        seqs = [e.seq for e in populated.audit_events()]
        assert seqs == list(range(1, len(seqs) + 1))


class TestConcurrencyWithPersistence:
    def test_racing_mutations_keep_the_store_file_valid(self, tmp_path):
        from gatekeeper.app import Gatekeeper
        from gatekeeper.store import load
        from worlds import FakeClock, make_resource
        from gatekeeper.model import DataClass, MenuGroup, Role

        path = tmp_path / "store.json"
        gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=FakeClock()).gatekeeper
        admin = gk.principal_for("root")
        gk.add_resource(admin, make_resource("rep", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS))
        gk.create_user(admin, "alice", "password1", Role.STAFF)
        service = PolicyService(gk)
        admin_token = login(service, "root", "rootpass1")
        failures = []

        def churn_sessions():
            for _ in range(20):
                token = login(service, "alice", "password1")
                if call(service, "POST", "/api/logout", token=token).status != 200:
                    failures.append("logout")

        def churn_roles():
            for i in range(20):
                role = "manager" if i % 2 else "staff"
                if call(service, "PATCH", "/api/admin/users/alice", token=admin_token,
                        body={"role": role}).status != 200:
                    failures.append("patch")

        threads = [threading.Thread(target=churn_sessions), threading.Thread(target=churn_roles)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        reloaded = load(path)  # every intermediate save was atomic and valid
        assert {u.user_id for u in reloaded.users} == {"root", "alice"}


@contextlib.contextmanager
def serving(gatekeeper):
    """Serve ``gatekeeper`` on a loopback port in a background thread."""
    server = make_server(gatekeeper, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def live_port(populated):
    with serving(populated) as port:
        yield port


def exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def _content_length(reply: bytes) -> int:
    head, _ = split_reply(reply)
    return int(next(line.split(b":")[1] for line in head.lower().splitlines() if line.startswith(b"content-length:")))


def split_reply(reply: bytes) -> tuple[bytes, bytes]:
    """(head, body) of a reply; an HTTP/0.9-style reply is all body."""
    if not reply.startswith(b"HTTP/"):
        return b"", reply
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


class TestLiveServer:
    def test_serves_over_a_real_socket(self, live_port):
        with urllib.request.urlopen(f"http://127.0.0.1:{live_port}/api/menu") as response:
            assert response.status == 200
            groups = [g["group"] for g in json.loads(response.read())["groups"]]
            assert groups == ["public_pages"]
        request = urllib.request.Request(
            f"http://127.0.0.1:{live_port}/api/login",
            data=json.dumps({"user_id": "boss", "password": "password1"}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert "token" in json.loads(response.read())

    @pytest.mark.parametrize(
        "length, status, code",
        [
            ("abc", 400, "invalid_argument"),
            ("-1", 400, "invalid_argument"),
            (str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
        ],
        ids=["non-numeric", "negative", "over-cap"],
    )
    def test_bad_content_length_is_answered_and_closed(self, live_port, length, status, code):
        request = f"POST /api/login HTTP/1.1\r\nHost: localhost\r\nContent-Length: {length}\r\n\r\n"
        reply = exchange(live_port, request.encode("ascii"))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert b"connection: close" in head.lower()
        assert json.loads(body)["error"] == code

    _LOGIN = b'{"user_id": "boss", "password": "password1"}'
    _SMUGGLED = b"GET /api/admin/users HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"

    @pytest.mark.parametrize(
        "request_bytes, name",
        [
            (b"POST /api/login HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\ncontent-length: %d\r\n\r\n"
             % (len(_LOGIN), len(_LOGIN + _SMUGGLED)) + _LOGIN + _SMUGGLED, "Content-Length"),
            (b"GET /api/menu HTTP/1.1\r\nHost: localhost\r\nAuthorization: Bearer one\r\n"
             b"Authorization: Bearer two\r\nConnection: close\r\n\r\n", "Authorization"),
        ],
        ids=["content-length", "authorization"],
    )
    def test_a_repeated_header_is_answered_and_closed(self, live_port, request_bytes, name):
        reply = exchange(live_port, request_bytes)
        assert reply.count(b"HTTP/1.1 ") == 1  # nothing after the headers is read as a second request
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert b"connection: close" in head.lower()
        assert json.loads(body) == {"error": "invalid_argument", "message": f"{name} must not be repeated"}

    # Without the refusal the stdlib reads no Content-Length from any of these,
    # and the body is answered as a second request.
    @pytest.mark.parametrize("header", [b"Content-Length : %d" % len(_SMUGGLED),
                                        b"X-A: 1\r\n Content-Length: %d" % len(_SMUGGLED),
                                        b" Content-Length: %d" % len(_SMUGGLED)],
                             ids=["whitespace-before-colon", "obs-fold", "first-line-folded"])
    def test_a_malformed_header_line_is_answered_and_closed(self, live_port, header):
        reply = exchange(live_port, b"POST /api/logout HTTP/1.1\r\n" + header + b"\r\nHost: localhost\r\n\r\n"
                         + self._SMUGGLED)
        assert reply.count(b"HTTP/1.1 ") == 1
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert b"connection: close" in head.lower()
        assert json.loads(body) == {"error": "invalid_argument", "message": "malformed header line"}

    # The stdlib parser notes a defect for a multipart Content-Type whose body
    # it never saw; the header lines themselves are well formed.
    @pytest.mark.parametrize("content_type", [b"multipart/form-data; boundary=x", b"multipart/form-data"],
                             ids=["boundary", "no-boundary"])
    def test_a_multipart_content_type_is_not_a_malformed_header_line(self, live_port, content_type):
        reply = exchange(live_port, b"GET /api/menu HTTP/1.1\r\nHost: localhost\r\nContent-Type: " + content_type
                         + b"\r\nConnection: close\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"200"
        assert "groups" in json.loads(body)

    def test_transfer_encoding_is_answered_and_closed(self, live_port):
        body = json.dumps({"user_id": "boss", "password": "password1"}).encode()
        request = (
            b"POST /api/login HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        )
        reply = exchange(live_port, request)
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert b"connection: close" in head.lower()
        assert json.loads(rest)["error"] == "invalid_argument"

    @pytest.mark.parametrize("method", ["PUT", "OPTIONS"])
    @pytest.mark.parametrize("path", ["/api/login", "/api/nowhere"])
    def test_other_methods_answer_as_the_service_does(self, live_port, populated, method, path):
        request = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        head, body = split_reply(exchange(live_port, request.encode("ascii")))
        expected = PolicyService(populated).handle(HttpRequest.make(method, path))
        assert head.split()[1] == str(expected.status).encode()
        assert json.loads(body) == expected.json()

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", None),
            (b"BREW /api/login HTTP/1.1\r\nHost: localhost\r\n\r\n", 501),
            # 65,537 bytes: exactly what the server reads, so its close sends no reset.
            (b"GET /" + b"a" * 65532, 414),
        ],
        ids=["malformed-line", "unknown-method", "line-too-long"],
    )
    def test_stdlib_refusals_are_json_and_closed(self, live_port, request_bytes, status):
        head, body = split_reply(exchange(live_port, request_bytes))
        if status is not None:
            assert head.split()[1] == str(status).encode()
            assert b"connection: close" in head.lower()
        payload = json.loads(body)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "invalid_argument"

    def test_refused_head_carries_no_body(self, live_port):
        reply = exchange(live_port, b"HEAD /api/menu HTTP/1.1\r\nHost: localhost\r\n\r\n")
        head, body = split_reply(reply)
        assert head.split()[1] == b"501"
        assert b"content-type: application/json" in head.lower()
        assert body == b""

    def test_a_client_reset_prints_no_traceback(self, populated, capsys):
        def handlers():
            return {t for t in threading.enumerate() if "process_request_thread" in t.name}

        earlier = handlers()
        with serving(populated) as port:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(b"GET /api/menu HTTP/1.1\r\nHost: localhost\r\n\r\n")
                reply = b""
                while b"\r\n\r\n" not in reply or len(split_reply(reply)[1]) < _content_length(reply):
                    chunk = sock.recv(65536)
                    assert chunk, "the server closed the connection before its answer ended"
                    reply += chunk
                assert reply.split()[1] == b"200"
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close with a reset
            head, _ = split_reply(exchange(port, b"GET /api/menu HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"))
            assert head.split()[1] == b"200"
            deadline = time.monotonic() + 5
            while handlers() - earlier and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not handlers() - earlier
        assert capsys.readouterr().err == ""

    def test_keep_alive_round_trips_do_not_wait_for_a_delayed_ack(self, live_port):
        # With Nagle's algorithm on, a body written after its headers waits for
        # the client's delayed ACK: 40 ms or more per round trip on Linux.
        connection = http.client.HTTPConnection("127.0.0.1", live_port, timeout=5)
        timings = []

        def round_trip(method, target, headers, body=None):
            started = time.perf_counter()
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
            payload = json.loads(response.read())
            timings.append(time.perf_counter() - started)
            assert response.status == 200, payload
            return payload

        try:
            credentials = json.dumps({"user_id": "boss", "password": "password1"})
            for _ in range(5):
                token = round_trip("POST", "/api/login", {"Content-Type": "application/json"}, credentials)["token"]
            for _ in range(20):
                round_trip("GET", "/api/check?resource=monthly-report&level=read", {"Authorization": f"Bearer {token}"})
        finally:
            connection.close()
        assert statistics.median(timings) < 0.020

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /api/menu HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
            b"HEAD /api/menu HTTP/1.1\r\nHost: localhost\r\n\r\n",
            b"GET /api/menu\r\n\r\n",
        ],
        ids=["answer", "refused-head", "http-0.9"],
    )
    def test_a_response_leaves_in_one_send(self, live_port, monkeypatch, request_bytes):
        # Headers and body sent apart would reach the client as two segments.
        sent = []
        for name in ("send", "sendall"):
            def counting(sock, data, *args, _original=getattr(socket.socket, name)):
                if sock.getsockname()[1] == live_port:
                    sent.append(bytes(data))
                return _original(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        reply = exchange(live_port, request_bytes)
        assert sent == [reply]

    def test_stalled_request_is_closed_after_the_idle_timeout(self, populated, monkeypatch):
        assert web._Handler.timeout == web.IDLE_TIMEOUT_S  # the stdlib default, None, waits forever
        monkeypatch.setattr(web._Handler, "timeout", 0.5)
        with serving(populated) as port:
            started = time.monotonic()
            reply = exchange(port, b"GET /api/me")  # half a request line, never finished
        assert reply == b""
        assert time.monotonic() - started < 4
