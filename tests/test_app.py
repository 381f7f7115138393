"""Engine façade behavior: bootstrap, denial logging, snapshot isolation."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatekeeper.app import Gatekeeper
from gatekeeper.errors import GatekeeperError, InvalidId, UnknownUser, WeakPassword
from gatekeeper.model import AccessLevel, DataClass, MenuGroup, PolicyConfig, Role
from gatekeeper.store import audit_path_for

from worlds import FakeClock, make_resource


class TestBootstrap:
    def test_generates_password_when_omitted(self):
        result = Gatekeeper.bootstrap("root", clock=FakeClock())
        assert len(result.password) == 12
        assert result.gatekeeper.login("root", result.password)

    def test_weak_password_rejected(self):
        with pytest.raises(WeakPassword):
            Gatekeeper.bootstrap("root", "short", clock=FakeClock())

    def test_invalid_admin_id_rejected(self):
        with pytest.raises(InvalidId):
            Gatekeeper.bootstrap("no spaces", "rootpass1", clock=FakeClock())

    def test_the_id_is_refused_before_the_password(self):
        """Bootstrap creates its administrator as ``user add`` does, so a
        request with two faults meets the same refusal."""
        with pytest.raises(InvalidId):
            Gatekeeper.bootstrap("no spaces", "short", clock=FakeClock())

    def test_bootstrap_audited_as_system(self, gk):
        events = gk.audit_events(kind="user_created")
        assert events[0].actor == "system"

    def test_refuses_an_existing_store(self, tmp_path):
        store = tmp_path / "store.json"
        Gatekeeper.bootstrap("root", "rootpass1", store_path=store, clock=FakeClock())
        before = store.read_bytes(), audit_path_for(store).read_bytes()
        with pytest.raises(GatekeeperError, match="store already exists at"):
            Gatekeeper.bootstrap("other", "otherpass1", store_path=store, clock=FakeClock())
        assert (store.read_bytes(), audit_path_for(store).read_bytes()) == before


class TestPrincipalFor:
    def test_an_unknown_user_is_refused(self, gk):
        with pytest.raises(UnknownUser, match="no such user: 'ghost'"):
            gk.principal_for("ghost")


class TestDenialLogging:
    def test_check_logs_denials_when_policy_asks(self, populated):
        visitor = populated.principal_for("visitor")
        before = len(populated.audit_events(kind="access_denied"))
        decision = populated.check(visitor, "monthly-report", AccessLevel.READ)
        assert not decision.allowed
        events = populated.audit_events(kind="access_denied")
        assert len(events) == before + 1
        assert events[-1].actor == "visitor"
        assert events[-1].detail["resource_id"] == "monthly-report"

    def test_check_does_not_log_allows(self, populated):
        before = len(populated.audit_events(kind="access_denied"))
        decision = populated.check(populated.principal_for("boss"), "monthly-report", AccessLevel.READ)
        assert decision.allowed
        assert len(populated.audit_events(kind="access_denied")) == before

    def test_log_denials_false_suppresses(self):
        clock = FakeClock()
        gk = Gatekeeper.bootstrap(
            "root", "rootpass1", config=PolicyConfig(log_denials=False),
            clock=clock,
        ).gatekeeper
        admin = gk.principal_for("root")
        gk.add_resource(admin, make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS))
        gk.create_user(admin, "vis", "password1", Role.GUEST)
        decision = gk.check(gk.principal_for("vis"), "report", AccessLevel.READ)
        assert not decision.allowed
        assert gk.audit_events(kind="access_denied") == []

    def test_menu_projection_never_logs_denials(self, populated):
        before = len(populated.audit_events(kind="access_denied"))
        populated.visible_menu(populated.principal_for("visitor"))
        assert len(populated.audit_events(kind="access_denied")) == before


class TestSnapshotIsolation:
    def test_reader_holding_old_snapshot_is_unaffected_by_mutation(self, populated, admin):
        held = populated.snapshot
        users_before = len(held.users)
        populated.create_user(admin, "late-arrival", "password1", Role.STAFF)
        assert len(held.users) == users_before
        assert len(populated.snapshot.users) == users_before + 1

    def test_snapshots_are_replaced_not_mutated(self, populated, admin):
        first = populated.snapshot
        populated.set_role(admin, "staffer", Role.MANAGER)
        assert populated.snapshot is not first
        assert [u.role for u in first.users if u.user_id == "staffer"] == [Role.STAFF]


class TestBenchmarkPatchTargets:
    def test_tracer_installs_against_this_source(self):
        """bench/tracer.py wraps package functions by module attribute, and
        bench/world.py builds its worlds from the model constructors and the
        tests' oracle; a renamed or deleted target must fail here, not only
        in the benchmark."""
        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys; sys.path[:0] = sys.argv[1:]; import tracer, world; "
            "world.generate(1, 'tiny'); tracer.Recorder().install()"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(root / "bench"), str(root / "tests")],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
