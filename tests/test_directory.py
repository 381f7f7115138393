"""User lifecycle and grant administration behavior."""

from __future__ import annotations

import base64
import json
import random
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test
from hypothesis import strategies as st

from gatekeeper import directory
from gatekeeper.app import Gatekeeper
from gatekeeper.engine import ANONYMOUS, Verdict, principal_for
from gatekeeper.errors import (
    AdminCapExceeded,
    AdminLevelNotGrantable,
    GatekeeperError,
    GuestWriteForbidden,
    IdAlreadyExists,
    InvalidArgument,
    InvalidId,
    NotAuthorized,
    ResourceAlreadyExists,
    SelfDemotionForbidden,
    SelfDisableForbidden,
    SelfRegistrationDisabled,
    UnknownGrant,
    UnknownResource,
    UnknownUser,
    WeakPassword,
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
    replace_user,
)
from gatekeeper.wire import public_user

from reference import oracle_decide, oracle_visible_ids
from worlds import FUTURE, FakeClock, make_resource, random_world


def fresh(config=None):
    result = Gatekeeper.bootstrap(
        "root", "rootpass1", hint_question="pet?", hint_answer="rex",
        config=config, clock=FakeClock(),
    )
    return result.gatekeeper, result.gatekeeper.principal_for("root")


class TestValidateUserId:
    def test_available_on_empty_store(self, gk):
        assert gk.validate_user_id("umishra") is None

    def test_taken_is_case_insensitive(self, gk, admin):
        gk.create_user(admin, "umishra", "password1", Role.STAFF)
        assert isinstance(gk.validate_user_id("UMishra"), IdAlreadyExists)

    def test_too_short_is_invalid(self, gk):
        refusal = gk.validate_user_id("ab")
        assert isinstance(refusal, InvalidId)
        assert "short" in refusal.message


class TestCreateUser:
    def test_admin_creates_staff(self, gk, admin):
        record = gk.create_user(admin, "rjones", "password1", Role.STAFF)
        assert record.role is Role.STAFF
        assert record.status is UserStatus.ACTIVE
        assert record.created_by == "root"

    def test_duplicate_rejected_with_guidance(self, gk, admin):
        gk.create_user(admin, "rjones", "password1", Role.STAFF)
        with pytest.raises(IdAlreadyExists) as excinfo:
            gk.create_user(admin, "rjones", "password1", Role.STAFF)
        assert "different user-id" in str(excinfo.value)

    def test_duplicate_under_case_folding(self, gk, admin):
        gk.create_user(admin, "rjones", "password1", Role.STAFF)
        with pytest.raises(IdAlreadyExists):
            gk.create_user(admin, "RJones", "password1", Role.MANAGER)

    def test_second_administrator_exceeds_cap(self, gk, admin):
        with pytest.raises(AdminCapExceeded):
            gk.create_user(admin, "root2", "password1", Role.ADMINISTRATOR)

    def test_multi_admin_policy_lifts_cap(self):
        gk, admin = fresh(PolicyConfig(multi_admin=True))
        record = gk.create_user(admin, "root2", "password1", Role.ADMINISTRATOR)
        assert record.role is Role.ADMINISTRATOR

    def test_weak_password_rejected(self, gk, admin):
        with pytest.raises(WeakPassword):
            gk.create_user(admin, "rjones", "short", Role.STAFF)

    def test_invalid_id_rejected(self, gk, admin):
        with pytest.raises(InvalidId):
            gk.create_user(admin, "r j", "password1", Role.STAFF)

    def test_outsider_role_rejected(self, gk, admin):
        with pytest.raises(InvalidArgument):
            gk.create_user(admin, "rjones", "password1", Role.OUTSIDER)

    def test_non_admin_actor_rejected(self, populated):
        staffer = populated.principal_for("staffer")
        with pytest.raises(NotAuthorized):
            populated.create_user(staffer, "newguy", "password1", Role.STAFF)

    def test_anonymous_actor_rejected(self, gk):
        with pytest.raises(NotAuthorized):
            gk.create_user(ANONYMOUS, "newguy", "password1", Role.STAFF)

    def test_id_availability_agrees_with_create(self, gk, admin):
        gk.create_user(admin, "taken", "password1", Role.STAFF)
        candidates = ["taken", "TAKEN", "ok-name", "ab", "bad name", "x" * 65]
        for candidate in candidates:
            refusal = gk.validate_user_id(candidate)
            try:
                gk.create_user(admin, candidate, "password1", Role.STAFF)
                raised = None
            except (IdAlreadyExists, InvalidId) as exc:
                raised = exc
            assert type(refusal) is type(raised), candidate
            if raised is not None:
                assert refusal.message == raised.message, candidate

    # Each request breaks two or more rules; the first in the order answers:
    # the actor, then the role and the administrator cap, then the id, then
    # the password.
    @pytest.mark.parametrize("actor, user_id, password, role, refusal", [
        ("staffer", "bad id", "short", Role.OUTSIDER, NotAuthorized),
        ("root", "staffer", "short", Role.OUTSIDER, InvalidArgument),
        ("root", "bad id", "password1", Role.OUTSIDER, InvalidArgument),
        ("root", "STAFFER", "password1", Role.ADMINISTRATOR, AdminCapExceeded),
        ("root", "bad id", "short", Role.ADMINISTRATOR, AdminCapExceeded),
        ("root", "bad id", "short", Role.STAFF, InvalidId),
        ("root", "Staffer", "short", Role.STAFF, IdAlreadyExists),
    ], ids=["actor", "outsider-taken-id", "outsider-bad-id", "cap-taken-id", "cap-bad-id", "id", "taken-id"])
    def test_refusals_come_in_one_order_and_make_no_digest(
        self, populated, monkeypatch, actor, user_id, password, role, refusal
    ):
        digests = []
        monkeypatch.setattr(directory, "make_digest", digests.append)
        monkeypatch.setattr(directory, "make_hint_digest", digests.append)
        with pytest.raises(refusal):
            populated.create_user(populated.principal_for(actor), user_id, password, role)
        assert digests == []


class TestSelfRegister:
    def test_disabled_by_default(self, gk):
        with pytest.raises(SelfRegistrationDisabled):
            gk.self_register("walkin", "password1")

    def test_auto_guest_mode(self):
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.AUTO_GUEST))
        record = gk.self_register("walkin", "password1")
        assert record.role is Role.GUEST
        assert record.status is UserStatus.ACTIVE
        assert record.created_by == "self-registration"

    def test_pending_approval_mode(self):
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        record = gk.self_register("walkin", "password1")
        assert record.status is UserStatus.PENDING

    def test_pending_user_scoped_to_outsider(self):
        gk, admin = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        gk.add_resource(admin, make_resource("handbook", DataClass.GENERAL, MenuGroup.STAFF_MENU))
        gk.add_resource(admin, make_resource("welcome", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES))
        gk.self_register("walkin", "password1")
        principal = gk.principal_for("walkin")
        assert gk.decide(principal, "welcome", AccessLevel.READ).allowed
        assert not gk.decide(principal, "handbook", AccessLevel.READ).allowed

    def test_duplicate_id_rejected(self):
        gk, _ = fresh(PolicyConfig(self_registration=SelfRegistrationMode.AUTO_GUEST))
        gk.self_register("walkin", "password1")
        with pytest.raises(IdAlreadyExists):
            gk.self_register("WALKIN", "password1")

    @pytest.mark.parametrize("mode, user_id, refusal", [
        (SelfRegistrationMode.DISABLED, "bad id", SelfRegistrationDisabled),
        (SelfRegistrationMode.AUTO_GUEST, "ROOT", IdAlreadyExists),
        (SelfRegistrationMode.PENDING_APPROVAL, "bad id", InvalidId),
    ], ids=["mode", "taken-id", "bad-id"])
    def test_refusals_come_in_one_order(self, mode, user_id, refusal):
        gk, _ = fresh(PolicyConfig(self_registration=mode))
        with pytest.raises(refusal):
            gk.self_register(user_id, "short")


class TestSetRole:
    def test_promote_staff_to_manager(self, populated, admin):
        record = populated.set_role(admin, "staffer", Role.MANAGER)
        assert record.role is Role.MANAGER

    def test_sole_admin_cannot_demote_self(self, gk, admin):
        with pytest.raises(SelfDemotionForbidden):
            gk.set_role(admin, "root", Role.MANAGER)

    def test_non_admin_actor_rejected(self, populated):
        staffer = populated.principal_for("staffer")
        with pytest.raises(NotAuthorized):
            populated.set_role(staffer, "boss", Role.STAFF)

    def test_promotion_past_cap_rejected(self, populated, admin):
        with pytest.raises(AdminCapExceeded):
            populated.set_role(admin, "staffer", Role.ADMINISTRATOR)

    def test_unknown_target(self, gk, admin):
        with pytest.raises(UnknownUser):
            gk.set_role(admin, "ghost", Role.MANAGER)

    def test_assigning_role_activates_pending_user(self):
        gk, admin = fresh(PolicyConfig(self_registration=SelfRegistrationMode.PENDING_APPROVAL))
        gk.self_register("walkin", "password1")
        record = gk.set_role(admin, "walkin", Role.STAFF)
        assert record.status is UserStatus.ACTIVE

    def test_demotion_to_guest_blocked_while_write_grants_exist(self, populated, admin):
        populated.grant_special(admin, "staffer", "staff-handbook", AccessLevel.WRITE)
        with pytest.raises(GuestWriteForbidden):
            populated.set_role(admin, "staffer", Role.GUEST)

    def test_second_admin_can_be_demoted_under_multi_admin(self):
        gk, admin = fresh(PolicyConfig(multi_admin=True))
        gk.create_user(admin, "root2", "password1", Role.ADMINISTRATOR)
        record = gk.set_role(admin, "root2", Role.MANAGER)
        assert record.role is Role.MANAGER


class TestSetStatus:
    def test_disable_then_decide_denies(self, populated, admin):
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        principal = populated.principal_for("staffer")
        decision = populated.decide(principal, "staff-handbook", AccessLevel.READ)
        assert decision.verdict is Verdict.DENY

    def test_disable_then_reenable_restores_decisions_exactly(self, populated, admin):
        principal = populated.principal_for("staffer")
        before = {
            (r.resource_id, level): populated.decide(principal, r.resource_id, level).verdict
            for r in populated.list_resources()
            for level in AccessLevel
        }
        populated.set_status(admin, "staffer", UserStatus.DISABLED)
        populated.set_status(admin, "staffer", UserStatus.ACTIVE)
        principal = populated.principal_for("staffer")
        after = {
            (r.resource_id, level): populated.decide(principal, r.resource_id, level).verdict
            for r in populated.list_resources()
            for level in AccessLevel
        }
        assert before == after

    def test_sole_admin_cannot_disable_self(self, gk, admin):
        with pytest.raises(SelfDisableForbidden):
            gk.set_status(admin, "root", UserStatus.DISABLED)

    def test_pending_cannot_be_assigned(self, populated, admin):
        with pytest.raises(InvalidArgument):
            populated.set_status(admin, "staffer", UserStatus.PENDING)

    def test_non_admin_actor_rejected(self, populated):
        boss = populated.principal_for("boss")
        with pytest.raises(NotAuthorized):
            populated.set_status(boss, "staffer", UserStatus.DISABLED)


class TestUpdateUser:
    def test_role_and_status_in_one_commit(self, populated, admin):
        before = len(populated.audit_events())
        record = populated.update_user(admin, "staffer", Role.MANAGER, UserStatus.DISABLED)
        assert (record.role, record.status) == (Role.MANAGER, UserStatus.DISABLED)
        events = populated.audit_events()[before:]
        assert [(e.kind, e.detail["from"], e.detail["to"]) for e in events] == [
            ("role_changed", "staff", "manager"),
            ("status_changed", "active", "disabled"),
        ]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_set_role_then_set_status(self, seed):
        """One update gives the snapshot, record and audit entries of the two
        single-field changes whenever both succeed, and refuses whenever
        either would.  For an administrator, a "pending" status is refused
        ahead of every other check."""
        rng = random.Random(seed)
        doc = random_world(rng)
        target = rng.choice(doc.users + (None,))
        if target is not None:
            doc = replace_user(doc, replace(target, recovery_failures=rng.randint(0, 5)))
        user_id = target.user_id if target is not None else "ghost"
        actor = principal_for(doc.users[0] if rng.random() < 0.8 else rng.choice(doc.users))
        role, status = rng.choice(list(Role)), rng.choice(list(UserStatus))

        try:
            after_role, _, role_entries = directory.set_role(doc, actor, user_id, role)
            new_doc, record, status_entries = directory.set_status(after_role, actor, user_id, status)
            expected = (new_doc, record, role_entries + status_entries)
        except GatekeeperError as exc:
            expected = exc
        try:
            got = directory.update_user(doc, actor, user_id, role, status)
        except GatekeeperError as exc:
            got = exc

        if not isinstance(expected, GatekeeperError):
            assert got == expected
        elif status is UserStatus.PENDING and not isinstance(expected, NotAuthorized):
            assert (type(got), got.message) == (InvalidArgument, "pending arises only from self-registration")
        else:
            assert (type(got), got.message) == (type(expected), expected.message)

    def test_neither_field_is_refused_before_the_admin_check(self, populated):
        with pytest.raises(InvalidArgument, match="provide 'role' and/or 'status'"):
            populated.update_user(ANONYMOUS, "staffer")


class TestGrants:
    def test_grant_then_decide_allows_until_revoked(self, populated, admin):
        grant = populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.READ, FUTURE)
        principal = populated.principal_for("visitor")
        assert populated.decide(principal, "monthly-report", AccessLevel.READ).allowed
        populated.revoke_grant(admin, grant.grant_id)
        assert not populated.decide(principal, "monthly-report", AccessLevel.READ).allowed

    def test_guest_write_forbidden(self, populated, admin):
        with pytest.raises(GuestWriteForbidden):
            populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.WRITE)

    def test_admin_level_not_grantable(self, populated, admin):
        with pytest.raises(AdminLevelNotGrantable):
            populated.grant_special(admin, "staffer", "monthly-report", AccessLevel.ADMIN)

    def test_reissue_replaces_expiry_not_duplicates(self, populated, admin):
        first = populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.READ, None)
        second = populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.READ, FUTURE)
        assert first.grant_id == second.grant_id
        assert second.expiry == FUTURE
        matching = [g for g in populated.snapshot.grants if g.user_id == "visitor"]
        assert len(matching) == 1

    def test_unknown_user_and_resource(self, populated, admin):
        with pytest.raises(UnknownUser):
            populated.grant_special(admin, "ghost", "monthly-report", AccessLevel.READ)
        with pytest.raises(UnknownResource):
            populated.grant_special(admin, "visitor", "ghost-report", AccessLevel.READ)

    def test_revoke_twice_fails(self, populated, admin):
        grant = populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.READ)
        populated.revoke_grant(admin, grant.grant_id)
        with pytest.raises(UnknownGrant):
            populated.revoke_grant(admin, grant.grant_id)

    def test_revoke_requires_admin(self, populated, admin):
        grant = populated.grant_special(admin, "visitor", "monthly-report", AccessLevel.READ)
        staffer = populated.principal_for("staffer")
        with pytest.raises(NotAuthorized):
            populated.revoke_grant(staffer, grant.grant_id)


class TestListUsers:
    def test_empty_filter_matches(self, gk, admin):
        assert [u.user_id for u in gk.list_users(admin)] == ["root"]

    def test_order_is_case_folded(self, gk, admin):
        gk.create_user(admin, "Zeta", "password1", Role.STAFF)
        gk.create_user(admin, "alpha", "password1", Role.STAFF)
        gk.create_user(admin, "Beta", "password1", Role.STAFF)
        assert [u.user_id for u in gk.list_users(admin)] == ["alpha", "Beta", "root", "Zeta"]

    def test_role_filter(self, populated, admin):
        managers = populated.list_users(admin, role=Role.MANAGER)
        assert [u.user_id for u in managers] == ["boss"]

    def test_requires_admin(self, populated):
        visitor = populated.principal_for("visitor")
        with pytest.raises(NotAuthorized):
            populated.list_users(visitor)

    def test_public_view_never_leaks_digests(self, populated, admin):
        for user in populated.list_users(admin):
            blob = json.dumps(public_user(user))
            for digest in (user.password_digest, user.hint_answer_digest):
                assert base64.b64encode(digest.digest).decode() not in blob
                assert base64.b64encode(digest.salt).decode() not in blob
            assert "password1" not in blob
            assert "rootpass1" not in blob


class TestAddResource:
    def test_duplicate_rejected(self, populated, admin):
        with pytest.raises(ResourceAlreadyExists):
            populated.add_resource(admin, make_resource("about-us", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES))

    def test_requires_admin(self, populated):
        staffer = populated.principal_for("staffer")
        with pytest.raises(NotAuthorized):
            populated.add_resource(staffer, make_resource("new-page", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES))


class TestAuditTrail:
    def test_every_mutation_appends_exactly_one_event(self, gk, admin):
        before = len(gk.audit_events())
        gk.create_user(admin, "rjones", "password1", Role.STAFF)
        gk.set_role(admin, "rjones", Role.MANAGER)
        gk.set_status(admin, "rjones", UserStatus.DISABLED)
        events = gk.audit_events()
        assert len(events) == before + 3
        assert [e.kind for e in events[before:]] == ["user_created", "role_changed", "status_changed"]
        seqs = [e.seq for e in events]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_failed_mutations_append_nothing(self, gk, admin):
        before = len(gk.audit_events())
        with pytest.raises(WeakPassword):
            gk.create_user(admin, "rjones", "nope", Role.STAFF)
        assert len(gk.audit_events()) == before


# ---------------------------------------------------------------------------
# Stateful lifecycle model


class DirectoryMachine(RuleBasedStateMachine):
    """Random admin-op sequences, self-registrations and clock moves must
    keep every store invariant intact, and the façade's decisions and menus
    must agree with the oracle after every step."""

    def __init__(self):
        super().__init__()
        config = PolicyConfig(multi_admin=True, self_registration=SelfRegistrationMode.PENDING_APPROVAL)
        self.gk, admin = fresh(config)
        for i, data_class in enumerate(DataClass):
            self.gk.add_resource(
                admin,
                make_resource(f"res{i}", data_class, MenuGroup.MANAGER_REPORTS),
            )

    user_ids = st.sampled_from(["root", "ann", "bob", "cat", "dan", "eve", "ANN", "Bob"])
    roles = st.sampled_from([Role.GUEST, Role.STAFF, Role.MANAGER, Role.ADMINISTRATOR])
    levels = st.sampled_from([AccessLevel.READ, AccessLevel.WRITE])
    resources = st.sampled_from([f"res{i}" for i in range(len(DataClass))])

    @property
    def actor(self):
        """An active administrator of the current snapshot (the invariant
        below keeps one), since root itself may be demoted or disabled."""
        users = self.gk.snapshot.users
        return principal_for(next(u for u in users if u.role is Role.ADMINISTRATOR and u.status is UserStatus.ACTIVE))

    @rule(user_id=user_ids, role=roles)
    def create(self, user_id, role):
        try:
            self.gk.create_user(self.actor, user_id, "password1", role)
        except GatekeeperError:
            pass

    @rule(user_id=user_ids, role=roles)
    def reassign(self, user_id, role):
        try:
            self.gk.set_role(self.actor, user_id, role)
        except GatekeeperError:
            pass

    @rule(user_id=user_ids, status=st.sampled_from([UserStatus.ACTIVE, UserStatus.DISABLED]))
    def flip_status(self, user_id, status):
        try:
            self.gk.set_status(self.actor, user_id, status)
        except GatekeeperError:
            pass

    @rule(user_id=user_ids)
    def register(self, user_id):
        try:
            self.gk.self_register(user_id, "password1")
        except GatekeeperError:
            pass

    @rule(user_id=user_ids, role=st.sampled_from([None, *Role]), status=st.sampled_from([None, *UserStatus]))
    def update(self, user_id, role, status):
        before, logged = self.gk.snapshot, len(self.gk.audit_events())
        try:
            self.gk.update_user(self.actor, user_id, role, status)
        except GatekeeperError:
            assert self.gk.snapshot is before
            assert len(self.gk.audit_events()) == logged

    @rule(user_id=user_ids, resource=resources, level=levels, expires_in=st.sampled_from([None, -60, 0, 60]))
    def grant(self, user_id, resource, level, expires_in):
        expiry = None if expires_in is None else self.gk.clock() + timedelta(seconds=expires_in)
        try:
            self.gk.grant_special(self.actor, user_id, resource, level, expiry)
        except GatekeeperError:
            pass

    @rule(seconds=st.sampled_from([30, 60]))
    def advance(self, seconds):
        self.gk.clock.advance(seconds=seconds)

    @rule(n=st.integers(min_value=1, max_value=30))
    def revoke(self, n):
        try:
            self.gk.revoke_grant(self.actor, f"g{n}")
        except GatekeeperError:
            pass

    @invariant()
    def ids_unique_under_case_folding(self):
        folded = [u.user_id.casefold() for u in self.gk.snapshot.users]
        assert len(folded) == len(set(folded))

    @invariant()
    def at_least_one_active_admin(self):
        assert active_admin_count(self.gk.snapshot) >= 1

    @invariant()
    def no_admin_grants_and_no_guest_write_grants(self):
        doc = self.gk.snapshot
        roles = {u.user_id: u.role for u in doc.users}
        for grant in doc.grants:
            assert grant.level is not AccessLevel.ADMIN
            assert not (roles[grant.user_id] is Role.GUEST and grant.level is AccessLevel.WRITE)

    @invariant()
    def only_unassigned_self_registrations_are_pending(self):
        for user in self.gk.snapshot.users:
            if user.status is UserStatus.PENDING:
                assert (user.role, user.created_by) == (Role.GUEST, "self-registration")

    @invariant()
    def decisions_and_menus_match_the_oracle(self):
        doc, now = self.gk.snapshot, self.gk.clock()
        for principal in [ANONYMOUS] + [self.gk.principal_for(u.user_id) for u in doc.users]:
            for resource in doc.resources:
                for level in AccessLevel:
                    decision = self.gk.decide(principal, resource.resource_id, level)
                    expected = oracle_decide(doc, principal, resource.resource_id, level, now)
                    assert (decision.verdict.value, decision.reason.value) == expected
            tree = self.gk.visible_menu(principal)
            shown = {item.resource_id for _, items in tree.groups for item in items}
            assert shown == oracle_visible_ids(doc, principal, now)

    @invariant()
    def audit_sequence_gap_free(self):
        seqs = [e.seq for e in self.gk.audit_events()]
        assert seqs == list(range(1, len(seqs) + 1))


def test_directory_state_machine():
    run_state_machine_as_test(
        DirectoryMachine,
        settings=settings(max_examples=60, stateful_step_count=30, deadline=None),
    )
