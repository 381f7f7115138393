"""Baseline matrix and role-lattice tests against the hand-written tables."""

from __future__ import annotations

import itertools
from dataclasses import replace
from datetime import timedelta

import pytest

from gatekeeper.errors import InvalidArgument
from gatekeeper.model import (
    AccessLevel,
    DataClass,
    DATA_CLASS_RANK,
    MenuGroup,
    PolicyConfig,
    Resource,
    Role,
    Session,
    baseline_allows,
    role_dominates,
    user_id_syntax_error,
)

from reference import BASELINE_TABLE, DOMINANCE_TABLE
from worlds import NOW, PAST, make_user


class TestRoleDominance:
    def test_staff_dominated_by_manager(self):
        assert role_dominates(Role.STAFF, Role.MANAGER) is True

    def test_reflexive(self):
        for role in Role:
            assert role_dominates(role, role) is True

    def test_guest_not_dominated_by_staff(self):
        assert role_dominates(Role.GUEST, Role.STAFF) is False

    def test_full_25_pair_table(self):
        for (lower, higher), expected in DOMINANCE_TABLE.items():
            assert role_dominates(lower, higher) is expected, (lower, higher)

    def test_administrator_dominates_everything(self):
        for role in Role:
            assert role_dominates(role, Role.ADMINISTRATOR) is True


class TestBaselineMatrix:
    def test_manager_reads_managerial(self):
        assert baseline_allows(Role.MANAGER, DataClass.MANAGERIAL, AccessLevel.READ) is True

    def test_staff_cannot_read_sensitive(self):
        assert baseline_allows(Role.STAFF, DataClass.SENSITIVE, AccessLevel.READ) is False

    def test_administrator_admin_on_sensitive(self):
        assert baseline_allows(Role.ADMINISTRATOR, DataClass.SENSITIVE, AccessLevel.ADMIN) is True

    def test_outsider_reads_public(self):
        assert baseline_allows(Role.OUTSIDER, DataClass.PUBLIC, AccessLevel.READ) is True

    def test_staff_cannot_write_general(self):
        assert baseline_allows(Role.STAFF, DataClass.GENERAL, AccessLevel.WRITE) is False

    def test_all_60_cells_match_fixture(self):
        for (role, data_class, level), expected in BASELINE_TABLE.items():
            assert baseline_allows(role, data_class, level) is expected, (role, data_class, level)

    def test_read_monotone_along_dominance(self):
        # Whatever a role can read, every role dominating it can read too.
        for r1, r2 in itertools.product(Role, repeat=2):
            if not role_dominates(r1, r2):
                continue
            for data_class in DataClass:
                if baseline_allows(r1, data_class, AccessLevel.READ):
                    assert baseline_allows(r2, data_class, AccessLevel.READ)

    def test_read_monotone_down_the_class_order(self):
        for role in Role:
            for c1, c2 in itertools.product(DataClass, repeat=2):
                if DATA_CLASS_RANK[c1] < DATA_CLASS_RANK[c2] and baseline_allows(role, c2, AccessLevel.READ):
                    assert baseline_allows(role, c1, AccessLevel.READ)

    def test_write_and_admin_denied_for_all_non_admin_roles(self):
        cells = [
            (role, data_class, level)
            for role in Role
            if role is not Role.ADMINISTRATOR
            for data_class in DataClass
            for level in (AccessLevel.WRITE, AccessLevel.ADMIN)
        ]
        assert len(cells) == 32
        for role, data_class, level in cells:
            assert baseline_allows(role, data_class, level) is False


class TestUserIdSyntax:
    @pytest.mark.parametrize("good", ["abc", "umishra", "U.Mishra_1", "a-b", "x" * 64])
    def test_accepts(self, good):
        assert user_id_syntax_error(good) is None

    @pytest.mark.parametrize(
        "bad",
        ["", "ab", "x" * 65, "has space", "tabs\t", "naïve", "semi;colon", "slash/"],
    )
    def test_rejects(self, bad):
        assert user_id_syntax_error(bad) is not None


class TestValueConstructors:
    def test_admin_menu_requires_admin_level(self):
        with pytest.raises(InvalidArgument):
            Resource("r", "R", DataClass.PUBLIC, MenuGroup.ADMIN_MENU, AccessLevel.READ)

    def test_admin_level_requires_admin_menu(self):
        with pytest.raises(InvalidArgument):
            Resource("r", "R", DataClass.PUBLIC, MenuGroup.STAFF_MENU, AccessLevel.ADMIN)

    def test_session_ttl_must_be_positive(self):
        with pytest.raises(InvalidArgument):
            PolicyConfig(session_ttl_seconds=0)

    def test_recovery_failures_must_not_be_negative(self):
        with pytest.raises(InvalidArgument):
            replace(make_user("ann"), recovery_failures=-1)

    def test_session_is_live_through_its_expiry_instant(self):
        session = Session("tok", "ann", PAST, NOW)
        assert session.live_at(PAST) and session.live_at(NOW)
        assert not session.live_at(NOW + timedelta(microseconds=1))

    def test_exactly_five_roles_four_classes_three_levels(self):
        assert len(Role) == 5
        assert len(DataClass) == 4
        assert len(AccessLevel) == 3
        assert len(MenuGroup) == 4
