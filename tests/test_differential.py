"""The differential script: its comparison, and that its cases repeat byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


@pytest.mark.parametrize("a, b, at", [
    (b"same", b"same", None),
    (b"abcd", b"abXd", 2),
    (b"abc", b"abcd", 3),  # a prefix differs where it ends
    (b"", b"x", 0),
])
def test_first_difference(a, b, at):
    assert differential.first_difference(a, b) == at


def test_compare_names_each_differing_output_once():
    a = {"cli/x/stdout": b"same", "cli/x/exit": b"0", "http/y/body": b'{"k": 1}', "only/a": b""}
    b = {"cli/x/stdout": b"same", "cli/x/exit": b"1", "http/y/body": b'{"k": 2}', "only/b": b""}
    assert differential.compare(a, b) == [
        "cli/x/exit: first difference at byte 0: a=b'0' b=b'1'",
        """http/y/body: first difference at byte 6: a=b'{"k": 1}' b=b'{"k": 2}'""",
        "only/a: only in a",
        "only/b: only in b",
        "1 of 5 outputs byte-identical",
    ]


def test_the_cases_repeat_byte_for_byte(tmp_path, monkeypatch):
    """Seeded random sources and fixed clocks: two runs of one tree agree on
    every output, so a difference between trees is the code's."""
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        runs.append(differential.run_cases())
    assert differential.compare(*runs) == [f"{len(runs[0])} of {len(runs[0])} outputs byte-identical"]
    outputs = runs[0]
    assert {key.split("/")[0] for key in outputs} == {
        "cli", "cli-kdf-env", "cli-refusal-order", "cli-unread-as", "audit-file", "http", "corrupt", "socket"
    }
    assert outputs["cli/bootstrap/exit"] == b"0"
    assert outputs["corrupt/unknown-alg/stderr"] == (
        b"error: users[1]: field 'password_digest': digest alg must be 'pbkdf2-sha256'\n"
    )
    assert outputs["socket/http-0.9/response"] == outputs["http/menu-anonymous/body"]
