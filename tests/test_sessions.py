"""Login, session resolution, password change, and hint recovery."""

from __future__ import annotations

import sys
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

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
from gatekeeper.model import AccessLevel, DataClass, MenuGroup, PolicyConfig, Role, UserStatus
from gatekeeper.sessions import RECOVERY_LOCK_THRESHOLD
from gatekeeper.store import load

from test_directory import fresh
from worlds import FakeClock, make_resource


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

    @pytest.mark.parametrize("user_id, password, cause", [
        ("ghost", "password1", "unknown_user"),
        ("staffer", "wrong-password", "bad_password"),
        ("visitor", "password1", "disabled"),
        ("walkin", "password1", "pending"),
        ("visitor", "wrong-password", "bad_password"),  # the password is checked before the status
    ], ids=["unknown", "bad-password", "disabled", "pending", "disabled-bad-password"])
    def test_each_failure_pays_one_digest_at_the_default_cost(self, monkeypatch, user_id, password, cause):
        from gatekeeper import credentials, sessions
        from gatekeeper.model import SelfRegistrationMode

        monkeypatch.setattr(credentials, "DEFAULT_COST", 5)  # not FAST_COST: the dummy is made afresh
        gk, admin = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        gk.create_user(admin, "staffer", "password1", Role.STAFF)
        gk.create_user(admin, "visitor", "password1", Role.GUEST)
        gk.update_user(admin, "visitor", status=UserStatus.DISABLED)
        gk.self_register("walkin", "password1")
        verified = []
        real = sessions.verify_secret
        monkeypatch.setattr(sessions, "verify_secret", lambda secret, digest: verified.append(digest) or real(secret, digest))
        with pytest.raises(AuthFailed):
            gk.login(user_id, password)
        assert [digest.cost for digest in verified] == [credentials.DEFAULT_COST]
        assert [e.detail for e in gk.audit_events(kind="login_failed")] == [{"user_id": user_id, "cause": cause}]

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

        path = tmp_path / "store.json"
        gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=clock).gatekeeper
        session = gk.login("root", "rootpass1")
        reopened = Gatekeeper.open(path, clock=clock)
        assert reopened.resolve(session.token).user_id == "root"


class TestResolve:
    def test_round_trip(self, populated):
        session = populated.login("boss", "password1")
        principal = populated.resolve(session.token)
        assert principal.user_id == "boss"
        assert principal.role is Role.MANAGER

    def test_expired_token_rejected_and_pruned(self, populated, clock, admin):
        session = populated.login("boss", "password1")
        clock.advance(seconds=populated.config.session_ttl_seconds + 1)
        with pytest.raises(InvalidToken):
            populated.resolve(session.token)
        assert any(s.token == session.token for s in populated.snapshot.sessions)  # the resolve wrote nothing
        populated.set_role(admin, "staffer", Role.MANAGER)
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
        gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=path, clock=clock).gatekeeper
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

        gk = app.Gatekeeper.bootstrap("root", "rootpass1", store_path=tmp_path / "store.json", clock=clock).gatekeeper
        saves = []
        monkeypatch.setattr(app, "save", lambda doc, path: saves.append(path))
        with pytest.raises(InvalidToken):
            gk.resolve("no-such-token")
        assert saves == []

    def test_disabled_users_sessions_are_dropped_by_the_disabling_commit(self, tmp_path, clock):
        gk, session = file_backed(tmp_path, clock)
        other = gk.login("staffer", "password1")
        root = gk.login("root", "rootpass1")
        gk.set_status(gk.principal_for("root"), "staffer", UserStatus.DISABLED)
        for doc in (gk.snapshot, load(gk.store_path)):
            assert [s.token for s in doc.sessions] == [root.token]
        gk.set_status(gk.principal_for("root"), "staffer", UserStatus.ACTIVE)
        for token in (session.token, other.token):
            with pytest.raises(InvalidToken):
                gk.resolve(token)


def file_backed(tmp_path, clock):
    """A file-store engine with root and a staff user, and a staff session."""
    gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=tmp_path / "store.json", clock=clock).gatekeeper
    gk.create_user(gk.principal_for("root"), "staffer", "password1", Role.STAFF)
    return gk, gk.login("staffer", "password1")


def stored_expiry(gk, token):
    return next(s.expires_at for s in load(gk.store_path).sessions if s.token == token)


class TestSlideInMemory:
    """A resolve slides the expiry in memory; the next commit saves it."""

    def test_a_resolve_saves_nothing_and_leaves_the_store_bytes(self, tmp_path, clock, monkeypatch):
        import gatekeeper.app as app

        gk, session = file_backed(tmp_path, clock)
        before, snapshot = gk.store_path.read_bytes(), gk.snapshot
        saves = []
        monkeypatch.setattr(app, "save", lambda doc, path: saves.append(path))
        clock.advance(seconds=100)
        assert gk.resolve(session.token).user_id == "staffer"
        assert saves == []
        assert gk.store_path.read_bytes() == before
        assert gk.snapshot is snapshot

    def test_the_next_mutation_saves_the_slid_expiry(self, tmp_path, clock):
        gk, session = file_backed(tmp_path, clock)
        clock.advance(seconds=100)
        gk.resolve(session.token)
        assert stored_expiry(gk, session.token) == session.expires_at
        gk.create_user(gk.principal_for("root"), "newbie", "password1", Role.GUEST)
        assert stored_expiry(gk, session.token) == clock() + timedelta(seconds=gk.config.session_ttl_seconds)

    def test_a_mutation_past_the_stored_expiry_keeps_a_slid_session(self, tmp_path, clock):
        gk, session = file_backed(tmp_path, clock)
        ttl = gk.config.session_ttl_seconds
        clock.advance(seconds=ttl - 10)
        gk.resolve(session.token)
        clock.advance(seconds=20)  # past the stored expiry, inside the slid one
        gk.create_user(gk.principal_for("root"), "newbie", "password1", Role.GUEST)
        assert any(s.token == session.token for s in load(gk.store_path).sessions)
        gk.change_password(session.token, "password1", "password2")
        assert gk.login("staffer", "password2")

    def test_a_password_change_sees_a_session_slid_only_in_memory(self, tmp_path, clock):
        gk, session = file_backed(tmp_path, clock)
        ttl = gk.config.session_ttl_seconds
        clock.advance(seconds=ttl - 10)
        gk.resolve(session.token)
        clock.advance(seconds=20)
        assert stored_expiry(gk, session.token) < clock()
        gk.change_password(session.token, "password1", "password2")
        assert gk.resolve(session.token).user_id == "staffer"

    @pytest.mark.parametrize("token", ["live", "expired", "unknown"])
    def test_a_resolve_does_not_wait_for_the_writer_lock(self, tmp_path, clock, token):
        gk, session = file_backed(tmp_path, clock)
        clock.advance(seconds=gk.config.session_ttl_seconds - 10)
        gk.resolve(session.token)
        clock.advance(seconds=20)  # live only through the slide held in memory
        if token == "expired":
            clock.advance(seconds=gk.config.session_ttl_seconds)
        presented = "no-such-token" if token == "unknown" else session.token
        before = gk.store_path.read_bytes(), gk.audit.path.read_bytes()

        def attempt():
            try:
                resolved.append(gk.resolve(presented).user_id)
            except InvalidToken:
                resolved.append("refused")

        resolved = []
        with gk._write_lock:
            reader = threading.Thread(target=attempt)
            reader.start()
            reader.join(timeout=5)
            finished = not reader.is_alive()
        reader.join()
        assert finished
        assert resolved == ["staffer" if token == "live" else "refused"]
        assert (gk.store_path.read_bytes(), gk.audit.path.read_bytes()) == before

    def test_an_unknown_token_with_a_pending_slide_saves_nothing(self, tmp_path, clock, monkeypatch):
        import gatekeeper.app as app

        gk, session = file_backed(tmp_path, clock)
        clock.advance(seconds=100)
        gk.resolve(session.token)
        saves = []
        monkeypatch.setattr(app, "save", lambda doc, path: saves.append(path))
        with pytest.raises(InvalidToken):
            gk.resolve("no-such-token")
        assert saves == []

    def test_the_rule_keeps_the_later_of_the_stored_and_the_slid_expiry(self, populated, clock):
        from gatekeeper import sessions

        session = populated.login("boss", "password1")
        ttl = timedelta(seconds=populated.config.session_ttl_seconds)
        doc, now = populated.snapshot, clock()
        later = session.expires_at + timedelta(minutes=10)
        assert sessions.resolve(doc, session.token, now=now, slid=later)[1] == later
        assert sessions.resolve(doc, session.token, now=now, slid=None)[1] is None  # stored is as late
        assert sessions.resolve(doc, session.token, now=now + ttl, slid=later)[1] == now + 2 * ttl
        with pytest.raises(InvalidToken):
            sessions.resolve(doc, session.token, now=later + timedelta(seconds=1), slid=later)

    def test_an_expired_slide_is_invalid_and_dropped(self, tmp_path, clock):
        gk, session = file_backed(tmp_path, clock)
        ttl = gk.config.session_ttl_seconds
        clock.advance(seconds=ttl - 10)
        gk.resolve(session.token)
        clock.advance(seconds=ttl + 1)
        with pytest.raises(InvalidToken):
            gk.resolve(session.token)
        assert any(s.token == session.token for s in load(gk.store_path).sessions)  # the resolve wrote nothing
        gk.create_user(gk.principal_for("root"), "newbie", "password1", Role.GUEST)
        assert all(s.token != session.token for s in load(gk.store_path).sessions)
        assert session.token not in gk._slides

    @pytest.mark.parametrize("end", ["logout", "password-change", "recovery"])
    def test_ending_a_session_removes_its_slide(self, tmp_path, clock, end):
        gk, session = file_backed(tmp_path, clock)
        other = gk.login("staffer", "password1")
        clock.advance(seconds=100)
        gk.resolve(session.token)
        gk.resolve(other.token)
        assert set(gk._slides) == {session.token, other.token}
        if end == "logout":
            gk.logout(other.token)
        elif end == "password-change":
            gk.change_password(session.token, "password1", "password2")  # ends the other session
        else:
            gk.create_user(gk.principal_for("root"), "helper", "password1", Role.STAFF, "pet?", "rex")
            other = gk.login("helper", "password1")
            clock.advance(seconds=10)
            gk.resolve(other.token)
            assert other.token in gk._slides
            gk.recover_complete("helper", "rex")
        assert other.token not in gk._slides
        with pytest.raises(InvalidToken):
            gk.resolve(other.token)

    def test_a_slide_never_moves_an_expiry_backwards(self, tmp_path, clock):
        gk, session = file_backed(tmp_path, clock)
        clock.advance(seconds=100)
        gk.resolve(session.token)
        slid = gk._slides[session.token]
        clock.advance(seconds=-50)
        gk.resolve(session.token)
        assert gk._slides[session.token] == slid
        gk.create_user(gk.principal_for("root"), "newbie", "password1", Role.GUEST)
        assert stored_expiry(gk, session.token) == slid
        clock.advance(seconds=-50)
        gk.resolve(session.token)
        assert session.token not in gk._slides  # the stored expiry is already later

    def test_a_denial_with_a_pending_slide_saves_nothing(self, tmp_path, clock, monkeypatch):
        import gatekeeper.app as app

        gk, session = file_backed(tmp_path, clock)
        gk.add_resource(
            gk.principal_for("root"),
            make_resource("monthly-report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS, AccessLevel.READ),
        )
        clock.advance(seconds=100)
        principal = gk.resolve(session.token)
        snapshot, saves = gk.snapshot, []
        monkeypatch.setattr(app, "save", lambda doc, path: saves.append(path))
        assert not gk.check(principal, "monthly-report", AccessLevel.READ).allowed
        assert gk.audit_events()[-1].kind == "access_denied"
        assert saves == []
        assert gk.snapshot is snapshot

    @pytest.mark.parametrize("slid", [True, False], ids=["slid", "unslid"])
    def test_persist_slides_saves_once_and_only_when_a_slide_is_pending(self, tmp_path, clock, monkeypatch, slid):
        import gatekeeper.app as app

        gk, session = file_backed(tmp_path, clock)
        clock.advance(seconds=100)
        if slid:
            gk.resolve(session.token)
        saves, real_save = [], app.save
        monkeypatch.setattr(app, "save", lambda doc, path: (saves.append(path), real_save(doc, path)))
        gk.persist_slides()
        gk.persist_slides()
        assert len(saves) == (1 if slid else 0)
        assert Gatekeeper.open(gk.store_path, clock=clock).resolve(session.token).user_id == "staffer"
        expected = clock() if slid else clock() - timedelta(seconds=100)
        assert stored_expiry(gk, session.token) == expected + timedelta(seconds=gk.config.session_ttl_seconds)


class TickingClock:
    """A thread-safe clock that moves forward one millisecond per reading."""

    def __init__(self):
        self.current = datetime(2030, 1, 1, tzinfo=timezone.utc)
        self.lock = threading.Lock()

    def __call__(self) -> datetime:
        with self.lock:
            self.current += timedelta(milliseconds=1)
            return self.current


def test_concurrent_resolves_and_commits_lose_no_slide(tmp_path):
    clock = TickingClock()
    gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=tmp_path / "store.json", clock=clock).gatekeeper
    tokens = [gk.login("root", "rootpass1").token for _ in range(4)]
    ttl = timedelta(seconds=gk.config.session_ttl_seconds)
    floor = {token: datetime.min.replace(tzinfo=timezone.utc) for token in tokens}
    errors = []

    floor_lock = threading.Lock()

    def resolver(token):
        try:
            for _ in range(300):
                before = clock()
                gk.resolve(token)
                with floor_lock:  # the resolve read its clock after `before`
                    floor[token] = max(floor[token], before + ttl)
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    def committer():
        try:
            for i in range(20):
                gk.create_user(gk.principal_for("root"), f"user{i}", "password1", Role.GUEST)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=resolver, args=(t,)) for t in tokens + tokens]
        threads.append(threading.Thread(target=committer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    gk.persist_slides()
    stored = {s.token: s.expires_at for s in load(gk.store_path).sessions}
    for token in tokens:
        assert stored[token] >= floor[token]


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

    @pytest.mark.parametrize("answer", ["", "   "], ids=["empty", "blank"])
    def test_a_blank_answer_is_a_counted_mismatch(self, populated, answer):
        with pytest.raises(HintMismatch):
            populated.recover_complete("boss", answer)
        assert populated.login("boss", "password1")
        assert populated.audit_events(kind="recovery_failed")[-1].detail == {"user_id": "boss", "cause": "hint_mismatch"}
        assert [u.recovery_failures for u in populated.snapshot.users if u.user_id == "boss"] == [1]

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


class SlidingSessionMachine(RuleBasedStateMachine):
    """Logins, resolves, logouts, commits, clock moves and restarts against a
    model of each stored token's expiry: the effective one (slides included)
    and the saved one.  After every step each token resolves exactly when the
    model says it is live.  A refused token stays stored until a commit
    prunes it.  A restart after the shutdown flush keeps every slide; a crash
    keeps only what the last commit saved, so sessions expire earlier."""

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.TemporaryDirectory()
        self.path = Path(self.workdir.name) / "store.json"
        self.clock = FakeClock()
        self.gk = Gatekeeper.bootstrap("root", "rootpass1", store_path=self.path, clock=self.clock).gatekeeper
        self.ttl = timedelta(seconds=self.gk.config.session_ttl_seconds)
        self.effective: dict[str, datetime] = {}
        self.saved: dict[str, datetime] = {}
        self.dead: set[str] = set()
        self.users = 0

    def teardown(self):
        self.workdir.cleanup()

    def _committed(self):
        now = self.clock()
        for token in [t for t, expires_at in self.effective.items() if now > expires_at]:
            del self.effective[token]  # pruned by the save
            self.dead.add(token)
        self.saved = dict(self.effective)

    def _reopen(self):
        self.gk = Gatekeeper.open(self.path, clock=self.clock)

    @rule()
    def login(self):
        token = self.gk.login("root", "rootpass1").token
        self._committed()
        self.effective[token] = self.saved[token] = self.clock() + self.ttl

    @rule(data=st.data())
    def logout(self, data):
        known = sorted(self.effective) + sorted(self.dead)
        if not known:
            return
        token = data.draw(st.sampled_from(known))
        self.gk.logout(token)
        if token in self.effective:
            del self.effective[token]
            self._committed()
            self.dead.add(token)

    @rule()
    def commit(self):
        self.users += 1
        self.gk.create_user(self.gk.principal_for("root"), f"user{self.users}", "password1", Role.GUEST)
        self._committed()

    @rule(seconds=st.sampled_from([-120, 60, 600, 1700, 1900]))
    def advance(self, seconds):
        self.clock.advance(seconds=seconds)

    @rule()
    def restart(self):
        self.gk.persist_slides()
        if self.effective != self.saved:  # the flush saves only when a slide is pending
            self._committed()
        self._reopen()

    @rule()
    def crash(self):
        self._reopen()
        self.effective = dict(self.saved)

    @invariant()
    def tokens_resolve_exactly_when_live(self):
        now = self.clock()
        for token in sorted(self.effective):
            if now <= self.effective[token]:
                assert self.gk.resolve(token).user_id == "root"
                self.effective[token] = max(self.effective[token], now + self.ttl)
                continue
            with pytest.raises(InvalidToken):
                self.gk.resolve(token)  # the session stays stored until a commit prunes it
        for token in self.dead:
            with pytest.raises(InvalidToken):
                self.gk.resolve(token)

    @invariant()
    def the_store_holds_what_the_last_commit_saved(self):
        assert {s.token: s.expires_at for s in load(self.path).sessions} == self.saved


def test_sliding_session_state_machine():
    run_state_machine_as_test(
        SlidingSessionMachine,
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
