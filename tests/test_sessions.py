"""Login, session resolution, password change, and hint recovery."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from gatekeeper.app import Gatekeeper
from gatekeeper.credentials import new_session_token
from gatekeeper.errors import (
    AuthFailed,
    GatekeeperError,
    HintMismatch,
    InvalidToken,
    OldPasswordMismatch,
    PolicyForbidden,
    RecoveryLocked,
    RecoveryUnavailable,
    WeakPassword,
)
from gatekeeper.model import MenuGroup, PolicyConfig, Role, UserStatus
from gatekeeper.sessions import RECOVERY_LOCK_THRESHOLD
from gatekeeper.store import load

from test_directory import fresh
from worlds import FAST_COST, FakeClock


class TestLogin:
    def test_manager_login_shows_role_menus(self, populated):
        session = populated.login("boss", "password1")
        principal = populated.resolve(session.token)
        tree = populated.visible_menu(principal)
        groups = [group for group, _ in tree.groups]
        assert MenuGroup.STAFF_MENU in groups
        assert MenuGroup.MANAGER_REPORTS in groups
        assert MenuGroup.ADMIN_MENU not in groups

    def test_wrong_password_fails(self, populated):
        with pytest.raises(AuthFailed):
            populated.login("boss", "wrong-password")

    def test_disabled_user_fails_even_with_correct_password(self, populated, admin):
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        with pytest.raises(AuthFailed):
            populated.login("staffer", "password1")
        causes = [e.detail.get("cause") for e in populated.audit_events(kind="login_failed")]
        assert causes[-1] == "disabled"

    def test_unknown_user_fails(self, gk):
        with pytest.raises(AuthFailed):
            gk.login("ghost", "password1")

    def test_failure_is_identical_across_causes(self, populated, admin):
        populated.set_status(admin, "visitor", UserStatus.DISABLED)
        attempts = [
            ("ghost", "password1"),       # unknown user
            ("boss", "wrong-password"),   # bad password
            ("visitor", "password1"),     # disabled
        ]
        rendered = set()
        for user_id, password in attempts:
            with pytest.raises(AuthFailed) as excinfo:
                populated.login(user_id, password)
            rendered.add((str(excinfo.value), excinfo.value.code))
        assert len(rendered) == 1

    def test_pending_user_cannot_login(self):
        from gatekeeper.model import SelfRegistrationMode
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        gk.self_register("walkin", "password1")
        with pytest.raises(AuthFailed):
            gk.login("walkin", "password1")

    def test_login_is_case_insensitive_on_user_id(self, populated):
        session = populated.login("BOSS", "password1")
        assert session.user_id == "boss"

    def test_audit_records_success_and_failure(self, populated):
        populated.login("boss", "password1")
        with pytest.raises(AuthFailed):
            populated.login("boss", "wrong")
        assert populated.audit_events(kind="login_succeeded")
        assert populated.audit_events(kind="login_failed")


class TestSessionShape:
    def test_expiry_is_issue_time_plus_ttl(self, populated):
        session = populated.login("boss", "password1")
        ttl = populated.config.session_ttl_seconds
        assert (session.expires_at - session.issued_at).total_seconds() == ttl

    def test_sessions_survive_a_service_restart(self, tmp_path, clock):
        from gatekeeper.app import Gatekeeper
        from worlds import FAST_COST

        path = tmp_path / "store.json"
        gk = Gatekeeper.bootstrap(
            "root", "rootpass1", store_path=path, clock=clock, digest_cost=FAST_COST
        ).gatekeeper
        session = gk.login("root", "rootpass1")
        reopened = Gatekeeper.open(path, clock=clock, digest_cost=FAST_COST)
        assert reopened.resolve(session.token).user_id == "root"


class TestResolve:
    def test_round_trip(self, populated):
        session = populated.login("boss", "password1")
        principal = populated.resolve(session.token)
        assert principal.user_id == "boss"
        assert principal.role is Role.MANAGER

    def test_expired_token_rejected_and_pruned(self, populated, clock):
        session = populated.login("boss", "password1")
        clock.advance(seconds=populated.config.session_ttl_seconds + 1)
        with pytest.raises(InvalidToken):
            populated.resolve(session.token)
        assert all(s.token != session.token for s in populated.snapshot.sessions)

    def test_expiry_boundary_still_valid(self, populated, clock):
        session = populated.login("boss", "password1")
        clock.advance(seconds=populated.config.session_ttl_seconds)
        principal = populated.resolve(session.token)
        assert principal.user_id == "boss"

    def test_sliding_expiry_extends(self, populated, clock):
        session = populated.login("boss", "password1")
        ttl = populated.config.session_ttl_seconds
        clock.advance(seconds=ttl - 10)
        populated.resolve(session.token)
        clock.advance(seconds=ttl - 10)
        principal = populated.resolve(session.token)  # only valid if the first resolve slid the window
        assert principal.user_id == "boss"

    @pytest.mark.parametrize("on_file", [False, True], ids=["memory", "file"])
    def test_a_clock_stepped_back_never_moves_the_expiry_backwards(self, tmp_path, on_file):
        clock = FakeClock(datetime(2030, 1, 1, tzinfo=timezone.utc))
        path = tmp_path / "store.json" if on_file else None
        gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=clock, digest_cost=FAST_COST).gatekeeper
        session = gk.login("root", "rootpass1")
        clock.advance(seconds=-(gk.config.session_ttl_seconds + 1))
        assert gk.resolve(session.token).user_id == "root"
        assert gk.snapshot.sessions == (session,)
        if on_file:
            assert load(path).sessions == (session,)

    def test_role_change_reflected_immediately(self, populated, admin):
        session = populated.login("staffer", "password1")
        assert populated.resolve(session.token).role is Role.STAFF
        populated.set_role(admin, "staffer", Role.MANAGER)
        assert populated.resolve(session.token).role is Role.MANAGER

    def test_disabled_user_invalidated_on_next_resolve(self, populated, admin):
        session = populated.login("staffer", "password1")
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        with pytest.raises(InvalidToken):
            populated.resolve(session.token)

    def test_unknown_token(self, gk):
        with pytest.raises(InvalidToken):
            gk.resolve("no-such-token")

    def test_unknown_token_on_a_file_store_saves_nothing(self, tmp_path, clock, monkeypatch):
        import gatekeeper.app as app
        from worlds import FAST_COST

        gk = app.Gatekeeper.bootstrap(
            "root", "rootpass1", store_path=tmp_path / "store.json", clock=clock, digest_cost=FAST_COST
        ).gatekeeper
        saves = []
        monkeypatch.setattr(app, "save", lambda doc, path: saves.append(path))
        with pytest.raises(InvalidToken):
            gk.resolve("no-such-token")
        assert saves == []

    def test_disabled_users_session_is_dropped_on_resolve(self, populated, admin):
        session = populated.login("staffer", "password1")
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        assert any(s.token == session.token for s in populated.snapshot.sessions)
        with pytest.raises(InvalidToken):
            populated.resolve(session.token)
        assert all(s.token != session.token for s in populated.snapshot.sessions)


class TestLogout:
    def test_logout_then_resolve_fails(self, populated):
        session = populated.login("boss", "password1")
        populated.logout(session.token)
        with pytest.raises(InvalidToken):
            populated.resolve(session.token)

    def test_logout_unknown_token_is_noop(self, gk):
        before = len(gk.audit_events())
        gk.logout("no-such-token")
        assert len(gk.audit_events()) == before

    def test_logout_leaves_other_sessions_alone(self, populated):
        first = populated.login("boss", "password1")
        second = populated.login("boss", "password1")
        populated.logout(first.token)
        assert populated.resolve(second.token).user_id == "boss"


class TestChangePassword:
    def test_change_swaps_which_password_works(self, populated):
        session = populated.login("boss", "password1")
        populated.change_password(session.token, "password1", "password2")
        with pytest.raises(AuthFailed):
            populated.login("boss", "password1")
        assert populated.login("boss", "password2")

    def test_wrong_old_password_changes_nothing(self, populated):
        session = populated.login("boss", "password1")
        with pytest.raises(OldPasswordMismatch):
            populated.change_password(session.token, "wrong", "password2")
        assert populated.login("boss", "password1")

    def test_policy_can_forbid_self_change(self):
        gk, admin = fresh(PolicyConfig(allow_self_password_change=False))
        session = gk.login("root", "rootpass1")
        with pytest.raises(PolicyForbidden):
            gk.change_password(session.token, "rootpass1", "rootpass2")

    def test_weak_new_password_rejected(self, populated):
        session = populated.login("boss", "password1")
        with pytest.raises(WeakPassword):
            populated.change_password(session.token, "password1", "pw")

    def test_other_sessions_invalidated_acting_session_kept(self, populated):
        acting = populated.login("boss", "password1")
        other = populated.login("boss", "password1")
        unrelated = populated.login("staffer", "password1")
        populated.change_password(acting.token, "password1", "password2")
        assert populated.resolve(acting.token).user_id == "boss"
        with pytest.raises(InvalidToken):
            populated.resolve(other.token)
        assert populated.resolve(unrelated.token).user_id == "staffer"

    def test_invalid_token(self, populated):
        with pytest.raises(InvalidToken):
            populated.change_password("bad-token", "password1", "password2")


class TestRecovery:
    def test_begin_returns_hint_question(self, populated):
        assert populated.recover_begin("boss") == "favourite colour?"

    def test_begin_unknown_and_disabled_identical(self, populated, admin):
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        outcomes = set()
        for user_id in ("ghost", "staffer"):
            with pytest.raises(RecoveryUnavailable) as excinfo:
                populated.recover_begin(user_id)
            outcomes.add((str(excinfo.value), excinfo.value.code))
        assert len(outcomes) == 1

    def test_complete_issues_working_password_and_kills_old(self, populated):
        session = populated.login("boss", "password1")
        new_password = populated.recover_complete("boss", "red")
        assert len(new_password) == 12
        with pytest.raises(AuthFailed):
            populated.login("boss", "password1")
        assert populated.login("boss", new_password)
        with pytest.raises(InvalidToken):
            populated.resolve(session.token)  # recovery invalidates all sessions

    def test_answer_comparison_trims_and_ignores_case(self, populated):
        assert populated.recover_complete("boss", "  RED  ")

    def test_wrong_answer_leaves_password_untouched(self, populated):
        with pytest.raises(HintMismatch):
            populated.recover_complete("boss", "magenta")
        assert populated.login("boss", "password1")

    def test_lockout_at_exactly_five_failures(self, populated):
        for i in range(RECOVERY_LOCK_THRESHOLD - 1):
            with pytest.raises(HintMismatch):
                populated.recover_complete("boss", f"wrong-{i}")
        # four failures: a correct answer still works ... on a fresh account
        assert populated.recover_complete("visitor", "green")
        with pytest.raises(HintMismatch):
            populated.recover_complete("boss", "wrong-final")  # fifth failure
        with pytest.raises(RecoveryLocked):
            populated.recover_complete("boss", "red")  # correct, but locked now

    def test_four_failures_then_success_resets_counter(self, populated):
        for i in range(RECOVERY_LOCK_THRESHOLD - 1):
            with pytest.raises(HintMismatch):
                populated.recover_complete("boss", f"wrong-{i}")
        new_password = populated.recover_complete("boss", "red")
        assert populated.login("boss", new_password)
        # Counter is back to zero: four more misses still do not lock.
        for i in range(RECOVERY_LOCK_THRESHOLD - 1):
            with pytest.raises(HintMismatch):
                populated.recover_complete("boss", f"again-{i}")
        assert populated.recover_complete("boss", "red")

    def test_admin_enable_clears_lockout(self, populated, admin):
        for i in range(RECOVERY_LOCK_THRESHOLD):
            with pytest.raises(HintMismatch):
                populated.recover_complete("boss", f"wrong-{i}")
        with pytest.raises(RecoveryLocked):
            populated.recover_complete("boss", "red")
        populated.set_status(admin, "boss", UserStatus.ACTIVE)
        assert populated.recover_complete("boss", "red")

    def test_user_without_hint_cannot_recover(self, gk, admin):
        gk.create_user(admin, "nohint", "password1", Role.STAFF)  # no hint given
        with pytest.raises(RecoveryUnavailable):
            gk.recover_begin("nohint")
        with pytest.raises(RecoveryUnavailable):
            gk.recover_complete("nohint", "")

    def test_pending_user_cannot_recover(self):
        from gatekeeper.model import SelfRegistrationMode
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        gk.self_register("walkin", "password1", "pet?", "rex")
        with pytest.raises(RecoveryUnavailable):
            gk.recover_begin("walkin")


class SessionDirectoryMachine(RuleBasedStateMachine):
    """Interleave logins, resolves, role changes and disables: resolve must
    always reflect the directory's current view of the user."""

    def __init__(self):
        super().__init__()
        self.gk, self.admin = fresh(PolicyConfig(multi_admin=True))
        self.gk.create_user(self.admin, "alice", "password1", Role.STAFF)
        self.gk.create_user(self.admin, "bob", "password1", Role.GUEST)
        self.tokens: dict[str, str] = {}

    users = st.sampled_from(["alice", "bob"])
    roles = st.sampled_from([Role.GUEST, Role.STAFF, Role.MANAGER])

    @rule(user_id=users)
    def do_login(self, user_id):
        try:
            self.tokens[user_id] = self.gk.login(user_id, "password1").token
        except AuthFailed:
            record = next(u for u in self.gk.snapshot.users if u.user_id == user_id)
            assert record.status is not UserStatus.ACTIVE

    @rule(user_id=users, role=roles)
    def do_set_role(self, user_id, role):
        try:
            self.gk.set_role(self.admin, user_id, role)
        except GatekeeperError:
            pass

    @rule(user_id=users, status=st.sampled_from([UserStatus.ACTIVE, UserStatus.DISABLED]))
    def do_set_status(self, user_id, status):
        self.gk.set_status(self.admin, user_id, status)

    @rule(user_id=users)
    def do_logout(self, user_id):
        token = self.tokens.pop(user_id, None)
        if token:
            self.gk.logout(token)

    @invariant()
    def resolve_reflects_current_directory(self):
        for user_id, token in list(self.tokens.items()):
            record = next(u for u in self.gk.snapshot.users if u.user_id == user_id)
            try:
                principal = self.gk.resolve(token)
            except InvalidToken:
                # Only a disabled user explains a dead, never-logged-out token.
                assert record.status is UserStatus.DISABLED
                self.tokens.pop(user_id)
                continue
            assert principal.role is record.role
            assert principal.status is record.status


def test_session_directory_state_machine():
    run_state_machine_as_test(
        SessionDirectoryMachine,
        settings=settings(max_examples=40, stateful_step_count=25, deadline=None),
    )


class TestCredentialInvariants:
    def test_exactly_one_password_valid_across_change_and_recover(self, populated):
        session = populated.login("boss", "password1")
        populated.change_password(session.token, "password1", "password2")
        with pytest.raises(AuthFailed):
            populated.login("boss", "password1")
        issued = populated.recover_complete("boss", "red")
        with pytest.raises(AuthFailed):
            populated.login("boss", "password2")
        assert populated.login("boss", issued)

    def test_plaintext_never_persisted(self, populated):
        from gatekeeper.store import serialize_document
        blob = serialize_document(populated.snapshot).decode()
        assert "password1" not in blob
        assert "rootpass1" not in blob

    def test_token_generator_collision_free_at_scale(self):
        tokens = {new_session_token() for _ in range(100_000)}
        assert len(tokens) == 100_000

    def test_login_never_reissues_a_live_or_seen_token(self, populated):
        seen = set()
        for _ in range(300):
            session = populated.login("boss", "password1")
            assert session.token not in seen
            seen.add(session.token)
