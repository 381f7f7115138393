from __future__ import annotations

import pytest

from gatekeeper import credentials
from gatekeeper.app import Gatekeeper
from gatekeeper.model import AccessLevel, DataClass, MenuGroup, Role

from worlds import FAST_COST, FakeClock, make_resource


@pytest.fixture(autouse=True)
def fast_kdf():
    """Every digest a test makes is at FAST_COST, not the production cost.
    Its own patcher, so a test's ``monkeypatch.undo()`` leaves it in place."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(credentials, "DEFAULT_COST", FAST_COST)
        yield


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def gk(clock):
    """A bootstrapped in-memory engine with a root administrator."""
    result = Gatekeeper.bootstrap(
        "root",
        "rootpass1",
        hint_question="first pet?",
        hint_answer="rex",
        clock=clock,
    )
    return result.gatekeeper


@pytest.fixture
def admin(gk):
    return gk.principal_for("root")


@pytest.fixture
def populated(gk, admin):
    """The engine plus a small site: four resources, three users, one grant."""
    gk.add_resource(admin, make_resource("about-us", DataClass.PUBLIC, MenuGroup.PUBLIC_PAGES, AccessLevel.READ))
    gk.add_resource(admin, make_resource("staff-handbook", DataClass.GENERAL, MenuGroup.STAFF_MENU, AccessLevel.READ))
    gk.add_resource(admin, make_resource("monthly-report", DataClass.MANAGERIAL, MenuGroup.MANAGER_REPORTS, AccessLevel.READ))
    gk.add_resource(admin, make_resource("user-admin", DataClass.SENSITIVE, MenuGroup.ADMIN_MENU, AccessLevel.ADMIN))
    gk.create_user(admin, "staffer", "password1", Role.STAFF, "favourite colour?", "blue")
    gk.create_user(admin, "boss", "password1", Role.MANAGER, "favourite colour?", "red")
    gk.create_user(admin, "visitor", "password1", Role.GUEST, "favourite colour?", "green")
    return gk
