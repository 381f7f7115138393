"""Decision-point and menu-projection behavior."""

from __future__ import annotations

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekeeper.engine import (
    ANONYMOUS,
    DecisionReason,
    Principal,
    Verdict,
    decide,
    principal_for,
    visible_menu,
)
from gatekeeper.errors import InvalidArgument, UnknownResource
from gatekeeper.model import (
    AccessLevel,
    DataClass,
    MenuGroup,
    Role,
    UserStatus,
)

from reference import oracle_decide, oracle_visible_ids
from worlds import FUTURE, NOW, PAST, make_doc, make_grant, make_resource, make_user, random_world


def auth(user_id, role, status=UserStatus.ACTIVE):
    return Principal(user_id=user_id, role=role, status=status)


class TestDecide:
    def test_manager_baseline_on_managerial_report(self):
        doc = make_doc(
            users=[make_user("boss", Role.MANAGER)],
            resources=[make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
        )
        decision = decide(doc, auth("boss", Role.MANAGER), "report", AccessLevel.READ, NOW)
        assert decision.verdict is Verdict.ALLOW
        assert decision.reason is DecisionReason.BASELINE

    def test_guest_with_live_grant_on_managerial_report(self):
        doc = make_doc(
            users=[make_user("visitor", Role.GUEST)],
            resources=[make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
            grants=[make_grant("g1", "visitor", "report", AccessLevel.READ, FUTURE)],
        )
        decision = decide(doc, auth("visitor", Role.GUEST), "report", AccessLevel.READ, NOW)
        assert decision.verdict is Verdict.ALLOW
        assert decision.reason is DecisionReason.SPECIAL_GRANT
        assert decision.grant_id == "g1"

    def test_disabled_administrator_denied_everything(self):
        doc = make_doc(resources=[make_resource("report")])
        principal = auth("root", Role.ADMINISTRATOR, UserStatus.DISABLED)
        for level in AccessLevel:
            decision = decide(doc, principal, "report", level, NOW)
            assert decision.verdict is Verdict.DENY
            assert decision.reason is DecisionReason.USER_DISABLED

    def test_staff_write_without_grant_denied(self):
        doc = make_doc(
            users=[make_user("staffer", Role.STAFF)],
            resources=[make_resource("entry-form", DataClass.GENERAL, MenuGroup.STAFF_MENU, AccessLevel.WRITE)],
        )
        decision = decide(doc, auth("staffer", Role.STAFF), "entry-form", AccessLevel.WRITE, NOW)
        assert decision.verdict is Verdict.DENY
        assert decision.reason is DecisionReason.NO_MATCHING_RULE

    def test_unknown_resource_is_an_error_not_a_deny(self):
        doc = make_doc()
        with pytest.raises(UnknownResource):
            decide(doc, ANONYMOUS, "nope", AccessLevel.READ, NOW)

    def test_pending_user_scoped_to_outsider_baseline(self):
        doc = make_doc(
            users=[make_user("newbie", Role.GUEST, UserStatus.PENDING)],
            resources=[
                make_resource("welcome", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES),
                make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS),
            ],
            grants=[make_grant("g1", "newbie", "report", AccessLevel.READ)],
        )
        principal = auth("newbie", Role.GUEST, UserStatus.PENDING)
        allowed = decide(doc, principal, "welcome", AccessLevel.READ, NOW)
        assert allowed.reason is DecisionReason.BASELINE
        # The grant is ignored while the account is pending.
        denied = decide(doc, principal, "report", AccessLevel.READ, NOW)
        assert denied.verdict is Verdict.DENY
        assert denied.reason is DecisionReason.USER_PENDING

    def test_pending_administrator_gets_no_admin_rule(self):
        doc = make_doc(resources=[make_resource("report", DataClass.SENSITIVE)])
        principal = auth("root", Role.ADMINISTRATOR, UserStatus.PENDING)
        decision = decide(doc, principal, "report", AccessLevel.READ, NOW)
        assert decision.verdict is Verdict.DENY

    def test_write_grant_covers_read_request(self):
        doc = make_doc(
            users=[make_user("staffer", Role.STAFF)],
            resources=[make_resource("figures", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
            grants=[make_grant("g1", "staffer", "figures", AccessLevel.WRITE)],
        )
        principal = auth("staffer", Role.STAFF)
        assert decide(doc, principal, "figures", AccessLevel.READ, NOW).allowed
        assert decide(doc, principal, "figures", AccessLevel.WRITE, NOW).allowed
        assert not decide(doc, principal, "figures", AccessLevel.ADMIN, NOW).allowed

    def test_read_grant_does_not_cover_write(self):
        doc = make_doc(
            users=[make_user("staffer", Role.STAFF)],
            resources=[make_resource("figures", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
            grants=[make_grant("g1", "staffer", "figures", AccessLevel.READ)],
        )
        decision = decide(doc, auth("staffer", Role.STAFF), "figures", AccessLevel.WRITE, NOW)
        assert decision.verdict is Verdict.DENY

    def test_grant_expiry_boundary_is_inclusive(self):
        doc = make_doc(
            users=[make_user("visitor", Role.GUEST)],
            resources=[make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
            grants=[make_grant("g1", "visitor", "report", AccessLevel.READ, expiry=NOW)],
        )
        principal = auth("visitor", Role.GUEST)
        assert decide(doc, principal, "report", AccessLevel.READ, NOW).allowed
        late = NOW + timedelta(microseconds=1)
        after = decide(doc, principal, "report", AccessLevel.READ, late)
        assert after.verdict is Verdict.DENY
        assert any("expired" in line for line in after.trace)

    def test_expired_grant_noted_in_trace_not_reason(self):
        doc = make_doc(
            users=[make_user("visitor", Role.GUEST)],
            resources=[make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
            grants=[make_grant("g1", "visitor", "report", AccessLevel.READ, expiry=PAST)],
        )
        decision = decide(doc, auth("visitor", Role.GUEST), "report", AccessLevel.READ, NOW)
        assert decision.reason is DecisionReason.NO_MATCHING_RULE
        assert any("expired" in line for line in decision.trace)

    def test_deterministic_for_same_inputs(self):
        doc = make_doc(
            users=[make_user("visitor", Role.GUEST)],
            resources=[make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
            grants=[make_grant("g1", "visitor", "report", AccessLevel.READ, FUTURE)],
        )
        principal = auth("visitor", Role.GUEST)
        first = decide(doc, principal, "report", AccessLevel.READ, NOW)
        second = decide(doc, principal, "report", AccessLevel.READ, NOW)
        assert first == second

    def test_trace_records_evaluation_order(self):
        doc = make_doc(
            users=[make_user("staffer", Role.STAFF)],
            resources=[make_resource("report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)],
        )
        decision = decide(doc, auth("staffer", Role.STAFF), "report", AccessLevel.READ, NOW)
        joined = "\n".join(decision.trace)
        assert "baseline(staff, managerial, read): no" in joined
        assert joined.index("request:") < joined.index("baseline(")


class TestPrincipal:
    def test_anonymous_must_be_outsider(self):
        with pytest.raises(InvalidArgument):
            Principal(user_id=None, role=Role.STAFF, status=UserStatus.ACTIVE)

    def test_authenticated_needs_user_id(self):
        with pytest.raises(InvalidArgument):
            Principal(user_id="", role=Role.STAFF, status=UserStatus.ACTIVE)

    def test_principal_for_record(self):
        record = make_user("boss", Role.MANAGER)
        principal = principal_for(record)
        assert principal.user_id == "boss"
        assert principal.role is Role.MANAGER


class TestVisibleMenu:
    def _site(self):
        return make_doc(
            users=[make_user("boss", Role.MANAGER), make_user("staffer", Role.STAFF)],
            resources=[
                make_resource("zeta-page", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES),
                make_resource("alpha-page", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES),
                make_resource("handbook", DataClass.GENERAL, MenuGroup.STAFF_MENU),
                make_resource("monthly", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS),
                make_resource("panel", DataClass.SENSITIVE, MenuGroup.ADMIN_MENU, AccessLevel.ADMIN),
            ],
        )

    def test_anonymous_sees_only_public_pages(self):
        tree = visible_menu(self._site(), ANONYMOUS, NOW)
        assert [group for group, _ in tree.groups] == [MenuGroup.PUBLIC_PAGES]

    def test_manager_sees_staff_and_manager_groups_but_not_admin(self):
        tree = visible_menu(self._site(), auth("boss", Role.MANAGER), NOW)
        groups = [group for group, _ in tree.groups]
        assert groups == [MenuGroup.PUBLIC_PAGES, MenuGroup.STAFF_MENU, MenuGroup.MANAGER_REPORTS]

    def test_administrator_sees_all_groups(self):
        tree = visible_menu(self._site(), auth("root", Role.ADMINISTRATOR), NOW)
        assert [group for group, _ in tree.groups] == [
            MenuGroup.PUBLIC_PAGES,
            MenuGroup.STAFF_MENU,
            MenuGroup.MANAGER_REPORTS,
            MenuGroup.ADMIN_MENU,
        ]

    def test_items_sorted_case_insensitively_with_id_tiebreak(self):
        doc = make_doc(
            resources=[
                make_resource("b-id", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES, display_name="beta"),
                make_resource("a-id", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES, display_name="Beta"),
                make_resource("c-id", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES, display_name="Alpha"),
            ],
        )
        tree = visible_menu(doc, ANONYMOUS, NOW)
        ((_, items),) = tree.groups
        assert [item.resource_id for item in items] == ["c-id", "a-id", "b-id"]

    def test_empty_groups_are_omitted(self):
        doc = make_doc(resources=[make_resource("monthly", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS)])
        tree = visible_menu(doc, ANONYMOUS, NOW)
        assert tree.groups == ()

    def test_menu_matches_decide_exactly(self):
        doc = self._site()
        for principal in (ANONYMOUS, auth("boss", Role.MANAGER), auth("staffer", Role.STAFF)):
            tree = visible_menu(doc, principal, NOW)
            shown = {item.resource_id for _, items in tree.groups for item in items}
            derivable = {
                r.resource_id
                for r in doc.resources
                if decide(doc, principal, r.resource_id, r.required_level, NOW).allowed
            }
            assert shown == derivable


class TestEngineProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_menu_consistency_on_random_worlds(self, seed):
        doc = random_world(random.Random(seed))
        principals = [ANONYMOUS] + [principal_for(u) for u in doc.users]
        for principal in principals:
            tree = visible_menu(doc, principal, NOW)
            shown = {item.resource_id for _, items in tree.groups for item in items}
            assert shown == oracle_visible_ids(doc, principal, NOW)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_decide_matches_oracle_on_random_worlds(self, seed):
        doc = random_world(random.Random(seed))
        principals = [ANONYMOUS] + [principal_for(u) for u in doc.users]
        for principal in principals:
            for resource in doc.resources:
                for level in AccessLevel:
                    decision = decide(doc, principal, resource.resource_id, level, NOW)
                    expected = oracle_decide(doc, principal, resource.resource_id, level, NOW)
                    assert (decision.verdict.value, decision.reason.value) == expected

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_active_administrators_allowed_everything(self, seed):
        doc = random_world(random.Random(seed))
        principal = auth("root", Role.ADMINISTRATOR)
        for resource in doc.resources:
            for level in AccessLevel:
                assert decide(doc, principal, resource.resource_id, level, NOW).allowed

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_disable_dominates_without_touching_grants(self, seed):
        doc = random_world(random.Random(seed))
        for user in doc.users:
            disabled = auth(user.user_id, user.role, UserStatus.DISABLED)
            for resource in doc.resources:
                for level in AccessLevel:
                    decision = decide(doc, disabled, resource.resource_id, level, NOW)
                    assert decision.verdict is Verdict.DENY
                    assert decision.reason is DecisionReason.USER_DISABLED

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_anonymous_never_allowed_by_grant(self, seed):
        doc = random_world(random.Random(seed))
        for resource in doc.resources:
            for level in AccessLevel:
                decision = decide(doc, ANONYMOUS, resource.resource_id, level, NOW)
                assert decision.reason is not DecisionReason.SPECIAL_GRANT
