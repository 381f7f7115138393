"""The three workloads and the machinery that drives the program from
outside: the HTTP service as a child process over loopback, and the CLI as
one fresh interpreter per command.

Every answer is checked against the oracle in ``tests/reference.py``; an
operation that fails in transport, returns an unexpected status or
disagrees with the oracle counts as failed and is listed, never dropped.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable
from urllib.parse import quote

from world import Check, World

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"

MENU_SHARE = 0.15  # portal-read: the rest are checks
DENY_SHARE = 0.25  # of checks; each denial appends an audit line
PAGE_SHARE = 0.5  # of read-level checks, asked as GET /api/pages/:id
SETUP_SPAWNS = 3  # server launches per HTTP run; setup_s is their median
CLI_SETUP_RUNS = 3  # first-command runs per cli-cold run
CLI_TIMEOUT_S = 60  # a command that hangs is killed and counts as failed
# An administrator pauses between clicks.  The pause also keeps the writer
# busy well under half the time, so the readers' median is not a coin toss
# between contended and uncontended answers.
ADMIN_THINK_S = 1.0
CODA_CYCLES = 4  # admin cycles portal-read runs on the quiet server after its window


def child_env() -> dict[str, str]:
    """The environment of every program process: the repo's own sources on
    ``PYTHONPATH`` and no ``GATEKEEPER_*`` override, so the KDF runs at its
    default cost."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GATEKEEPER_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Op:
    """One operation as the client saw it."""

    cls: str  # check / menu / write / audit
    name: str
    start: float
    end: float
    req_id: str
    problem: str = ""
    verify: Callable[[], str] | None = None  # deferred oracle comparison

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class Pass:
    """One launch of the program under one workload."""

    ops: list[Op] = field(default_factory=list)
    window_ops: int = 0
    window_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    wchar: int = 0  # bytes the program wrote during the window
    cpu_s: float = 0.0  # CPU the program used during the window
    span_files: list[Path] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.window_ops / self.window_s


class Workdir:
    """Fresh copies of one world's files under the checkout."""

    def __init__(self, base: Path, world: World):
        self.base = base
        self.world = world
        self.store = base / "store.json"
        self.audit = base / "store.audit.jsonl"

    def restore(self) -> None:
        self.base.mkdir(parents=True, exist_ok=True)
        for stale in self.base.iterdir():
            stale.unlink()
        for path, payload in ((self.store, self.world.store_bytes), (self.audit, self.world.audit_bytes)):
            with open(path, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())  # the program's first fsync must not pay for the restore


def _now() -> datetime:
    return datetime.now(timezone.utc)


def _launch(argv: list[str], traced: bool, spans: Path | None) -> list[str]:
    if traced:
        return [sys.executable, str(TRACER), "--spans", str(spans), "--", *argv]
    return [sys.executable, "-m", "gatekeeper", *argv]


# ---------------------------------------------------------------------------
# HTTP service


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``gatekeeper serve`` as a child process."""

    def __init__(self, work: Workdir, traced: bool, spans: Path | None):
        self.port = _free_port()
        argv = ["serve", "--store", str(work.store), "--bind", f"127.0.0.1:{self.port}"]
        self.errors = open(work.base / f"server-{self.port}.err", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            _launch(argv, traced, spans), env=child_env(), stdout=subprocess.DEVNULL, stderr=self.errors
        )
        try:
            self.setup_s = self._wait_ready(started)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, started: float) -> float:
        """Seconds from spawn until the first 200 answer."""
        deadline = started + 120
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before answering")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                conn.request("GET", "/api/menu")
                status = conn.getresponse().status
                conn.close()
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200:
                return time.perf_counter() - started
            raise RuntimeError(f"server answered its first request with {status}")
        raise RuntimeError("server did not answer within 120 s")

    def proc_stats(self) -> tuple[int, float]:
        """(bytes written, CPU seconds) of the server so far."""
        pid = self.proc.pid
        wchar = 0
        for line in Path(f"/proc/{pid}/io").read_text().splitlines():
            if line.startswith("wchar:"):
                wchar = int(line.split()[1])
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        return wchar, cpu

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.errors.close()


_ID_SEGMENT = re.compile(r"/(pages|grants|users)/[^/]+")


class Client:
    """One keep-alive connection that records every operation it issues."""

    def __init__(self, port: int, name: str, ops: list[Op]):
        self.port = port
        self.name = name
        self.ops = ops
        self.count = 0
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, cls: str, method: str, path: str, token: str | None = None, body: dict | None = None):
        """Issue one request; returns (op, status, parsed body or None)."""
        self.count += 1
        req_id = f"{self.name}-{self.count}"
        headers = {"X-Bench-Request": req_id}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        route = _ID_SEGMENT.sub(r"/\1/:id", path.split("?")[0])
        op = Op(cls, f"{method} {route}", time.perf_counter(), 0.0, req_id)
        status, data = 0, None
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            op.end = time.perf_counter()
            status = response.status
            data = json.loads(raw.decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            op.end = op.end or time.perf_counter()
            op.problem = f"{type(exc).__name__}: {exc}"
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        self.ops.append(op)
        return op, status, data

    def close(self) -> None:
        self.conn.close()


@dataclass(frozen=True)
class ReadRequest:
    cls: str
    path: str
    token: str
    check: Check | None = None
    menu_user: str | None = None


def read_plan(world: World, pools: dict[str, list[Check]], name: str) -> list[ReadRequest]:
    """The report-site mix for one connection: menus for skewed users,
    checks with a fixed share of denials, half the read checks as pages."""
    rng = random.Random(f"gatekeeper-bench/plan/{world.seed}/{name}")
    plan = []
    for _ in range(4000):
        if rng.random() < MENU_SHARE:
            user = rng.choice(world.menu_users)
            plan.append(ReadRequest("menu", "/api/menu", world.tokens[user], menu_user=user))
            continue
        check = rng.choice(pools["deny" if rng.random() < DENY_SHARE else "allow"])
        token = world.tokens[check.user_id]
        if check.level.value == "read" and rng.random() < PAGE_SHARE:
            plan.append(ReadRequest("check", f"/api/pages/{quote(check.resource_id)}", token, check))
        else:
            path = f"/api/check?resource={quote(check.resource_id)}&level={check.level.value}"
            plan.append(ReadRequest("check", path, token, check))
    return plan


def _verify_read(request: ReadRequest, status: int, data, world: World) -> Callable[[], str]:
    def verify() -> str:
        if request.menu_user is not None:
            if status != 200:
                return f"menu answered {status}"
            got = {item["resource_id"] for group in data["groups"] for item in group["items"]}
            want = world.expected_menu(request.menu_user)
            if got != want:
                return f"menu differs from oracle: extra {sorted(got - want)[:5]}, missing {sorted(want - got)[:5]}"
            return ""
        check = request.check
        if request.path.startswith("/api/pages/"):
            want_status = 200 if check.verdict == "allow" else 404
            if status != want_status:
                return f"page answered {status}, oracle says {check.verdict}"
            if status == 200 and data.get("resource_id") != check.resource_id:
                return "page returned another resource"
            return ""
        if status != 200:
            return f"check answered {status}"
        if (data.get("verdict"), data.get("reason")) != (check.verdict, check.reason):
            return f"check says {data.get('verdict')}/{data.get('reason')}, oracle says {check.verdict}/{check.reason}"
        return ""

    return verify


def read_loop(client: Client, plan: list[ReadRequest], deadline: float, world: World) -> None:
    for i in itertools.count():
        if time.perf_counter() >= deadline:
            return
        request = plan[i % len(plan)]
        op, status, data = client.call(request.cls, "GET", request.path, request.token)
        if not op.problem:
            op.verify = _verify_read(request, status, data, world)


@dataclass
class AdminState:
    """What the administrator's answers say the store now holds."""

    cycle: int = 0
    passwords: dict[str, int] = field(default_factory=dict)  # login user -> index of current password
    live_grants: dict[tuple[str, str], Op] = field(default_factory=dict)  # (user, resource) -> add
    revokes: dict[tuple[str, str], Op] = field(default_factory=dict)  # (user, resource) -> last revoke
    roles: dict[str, tuple[str, Op]] = field(default_factory=dict)  # user -> (role, last change)

    def check_store(self, store: Path, world: World) -> None:
        """Compare the store the server left behind with the answers: a
        revoke whose grant survived, an add whose grant is missing, or a
        role change that did not stick marks that operation failed."""
        doc = json.loads(store.read_text())
        reserved = set(world.reserved_resources)
        stored = {(g["user_id"], g["resource_id"]) for g in doc["grants"] if g["resource_id"] in reserved}
        for key in stored - set(self.live_grants):
            op = self.revokes.get(key)
            if op is not None and not op.problem:
                op.problem = f"grant {key} is still in the store after its revoke"
        for key in set(self.live_grants) - stored:
            self.live_grants[key].problem = f"grant {key} is missing from the store"
        roles = {u["user_id"]: u["role"] for u in doc["users"]}
        for user, (role, op) in self.roles.items():
            if roles.get(user) != role:
                op.problem = f"user {user} is {roles.get(user)} in the store, expected {role}"


def _expect(op: Op, status: int, want: int, data, **fields) -> bool:
    """Check status and body fields inline; record the first mismatch."""
    if op.problem:
        return False
    if status != want:
        op.problem = f"answered {status}, expected {want}: {data}"
        return False
    for key, value in fields.items():
        if data.get(key) != value:
            op.problem = f"field {key!r} is {data.get(key)!r}, expected {value!r}"
            return False
    return True


def _check_audit(op: Op, status: int, data) -> None:
    if not _expect(op, status, 200, data):
        return
    seqs = [event["seq"] for event in data.get("events", [])]
    if len(seqs) != 20 or seqs != sorted(set(seqs)):
        op.problem = f"audit returned {len(seqs)} events, seq increasing: {seqs == sorted(set(seqs))}"


def _set_role(client: Client, state: AdminState, root: str, user: str, role: str) -> None:
    op, status, data = client.call("write", "PATCH", f"/api/admin/users/{user}", root, {"role": role})
    if _expect(op, status, 200, data, user_id=user, role=role):
        state.roles[user] = (role, op)


def admin_cycle(client: Client, world: World, state: AdminState, deadline: float, think: float = 0.0) -> None:
    """One balanced administrator cycle: a grant added then revoked, a
    staff<->manager toggle, a login, password change and logout of a
    DEFAULT_COST user, and two audit queries.  Each operation follows a
    pause of ``think`` seconds; the cycle stops at the deadline."""
    k = state.cycle
    state.cycle += 1
    user = world.admin_users[k % len(world.admin_users)]
    resource = world.reserved_resources[k % len(world.reserved_resources)]
    login = world.login_users[k % len(world.login_users)]
    current = state.passwords.get(login.user_id, 0)
    root = world.root_token
    audit_path = "/api/admin/audit?limit=20"

    def live() -> bool:
        time.sleep(max(0.0, min(think, deadline - time.perf_counter())))
        return time.perf_counter() < deadline

    if not live():
        return
    op, status, data = client.call("write", "POST", "/api/admin/grants", root,
                                   {"user_id": user, "resource_id": resource, "level": "read", "expiry": None})
    grant_id = None
    if _expect(op, status, 201, data, user_id=user, resource_id=resource, level="read", expiry=None,
               granted_by="root"):
        grant_id = data["grant_id"]
        state.live_grants[(user, resource)] = op
        if grant_id in world.initial_grant_ids:
            op.problem = f"new grant reuses the live id {grant_id}"
    if not live():
        return
    _set_role(client, state, root, user, "manager")
    if not live():
        return
    op, status, data = client.call("write", "POST", "/api/login", None,
                                   {"user_id": login.user_id, "password": login.passwords[current]})
    token = data.get("token") if _expect(op, status, 200, data, user_id=login.user_id) else None
    if token and live():
        op, status, data = client.call("write", "POST", "/api/password/change", token, {
            "old_password": login.passwords[current], "new_password": login.passwords[1 - current]})
        if _expect(op, status, 200, data, ok=True):
            state.passwords[login.user_id] = 1 - current
    if not live():
        return
    op, status, data = client.call("audit", "GET", audit_path, root)
    _check_audit(op, status, data)
    if token and live():
        op, status, data = client.call("write", "POST", "/api/logout", token)
        _expect(op, status, 200, data, ok=True)
    if grant_id and live():
        op, status, data = client.call("write", "DELETE", f"/api/admin/grants/{grant_id}", root)
        if _expect(op, status, 200, data, ok=True):
            state.live_grants.pop((user, resource))
            state.revokes[(user, resource)] = op
    if not live():
        return
    _set_role(client, state, root, user, "staff")
    if not live():
        return
    op, status, data = client.call("audit", "GET", audit_path, root)
    _check_audit(op, status, data)


def _run_threads(targets: list[Callable[[], None]]) -> None:
    errors: list[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # surfaced below, after every thread ended
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def http_pass(world: World, work: Workdir, seconds: float, admin: bool, traced: bool, spawns: int) -> Pass:
    """Serve ``world`` and drive it with two closed-loop connections.

    Connection 1 always runs the report-site mix.  Connection 2 runs it too
    (portal-read) or is the administrator (admin-churn).  After a
    portal-read window, CODA_CYCLES administrator cycles run on the quiet
    server so write and audit latency exist on every workload.
    """
    result = Pass()
    # Readers and their resources are disjoint from what the admin touches.
    pools = world.check_pool(world.readers, per_class=200, now=_now())
    plans = [read_plan(world, pools, "c1"), read_plan(world, pools, "c2")]
    work.restore()
    for _ in range(spawns - 1):
        server = Server(work, traced=False, spans=None)
        result.setup_s.append(server.setup_s)
        server.stop()
    spans = work.base / "server.spans.json"
    server = Server(work, traced=traced, spans=spans)
    result.setup_s.append(server.setup_s)
    try:
        ops2: list[Op] = []
        c1, c2 = Client(server.port, "c1", result.ops), Client(server.port, "c2", ops2)
        state = AdminState()
        wchar0, cpu0 = server.proc_stats()
        start = time.perf_counter()
        deadline = start + seconds

        def second():
            if admin:
                while time.perf_counter() < deadline:
                    admin_cycle(c2, world, state, deadline, think=ADMIN_THINK_S)
            else:
                read_loop(c2, plans[1], deadline, world)

        _run_threads([lambda: read_loop(c1, plans[0], deadline, world), second])
        result.ops.extend(ops2)
        result.window_ops = len(result.ops)
        result.window_s = max(op.end for op in result.ops) - start
        wchar1, cpu1 = server.proc_stats()
        result.wchar, result.cpu_s = wchar1 - wchar0, cpu1 - cpu0
        if not admin:
            in_window = len(ops2)
            for _ in range(CODA_CYCLES):
                admin_cycle(c2, world, state, float("inf"))
            result.ops.extend(ops2[in_window:])
        c1.close()
        c2.close()
        result.rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    state.check_store(work.store, world)
    if traced:
        result.span_files.append(spans)
    _finish_verification(result.ops)
    return result


def _finish_verification(ops: list[Op]) -> None:
    for op in ops:
        if op.verify is not None and not op.problem:
            op.problem = op.verify()
        op.verify = None


# ---------------------------------------------------------------------------
# CLI


@dataclass(frozen=True)
class Command:
    cls: str
    argv: list[str]
    check: Callable[[int, str], str]  # (exit code, stdout) -> problem


def _json_out(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def _cli_check(check: Check) -> Callable[[int, str], str]:
    def verify(code: int, stdout: str) -> str:
        if code != 0:
            return f"exit {code}"
        data = _json_out(stdout)
        if (data["verdict"], data["reason"]) != (check.verdict, check.reason):
            return f"check says {data['verdict']}/{data['reason']}, oracle says {check.verdict}/{check.reason}"
        return ""

    return verify


def _cli_menu(want: Callable[[], set[str]]) -> Callable[[int, str], str]:
    def verify(code: int, stdout: str) -> str:
        if code != 0:
            return f"exit {code}"
        got = {item["resource_id"] for group in _json_out(stdout)["groups"] for item in group["items"]}
        if got != want():
            return "menu differs from oracle"
        return ""

    return verify


def _cli_audit(code: int, stdout: str) -> str:
    if code != 0:
        return f"exit {code}"
    seqs = [event["seq"] for event in _json_out(stdout)["events"]]
    if len(seqs) != 20 or seqs != sorted(set(seqs)):
        return f"audit tail returned {len(seqs)} events"
    return ""


def _cli_login(user_id: str) -> Callable[[int, str], str]:
    def verify(code: int, stdout: str) -> str:
        if code != 0:
            return f"exit {code}"
        data = _json_out(stdout)
        if data.get("user_id") != user_id or not data.get("token"):
            return f"login returned {data}"
        return ""

    return verify


def cli_plan(world: World, store: Path) -> list[Command]:
    """A repeating cycle of cold commands: an allowed check, a menu, a
    denied check, an audit tail and a login of a DEFAULT_COST user."""
    rng = random.Random(f"gatekeeper-bench/cli/{world.seed}")
    pools = world.check_pool(world.bulk, per_class=40, now=_now())
    common = ["--store", str(store), "--json"]

    def checks(verdict: str) -> Command:
        check = rng.choice(pools[verdict])
        argv = ["check", "--user", check.user_id, "--resource", check.resource_id, "--level", check.level.value]
        return Command("check", argv + common, _cli_check(check))

    def menu() -> Command:
        user = rng.choice(world.menu_users)
        return Command("menu", ["menu", "--user", user] + common,
                       _cli_menu(lambda: world.expected_menu(user)))

    login = world.login_users[0]

    def audit() -> Command:
        return Command("audit", ["audit", "tail", "-n", "20"] + common, _cli_audit)

    def write() -> Command:
        return Command("write", ["login", login.user_id, "--password", login.passwords[0]] + common,
                       _cli_login(login.user_id))

    plan = []
    for _ in range(200):
        plan += [checks("allow"), menu(), checks("deny"), audit(), write()]
    return plan


def run_cli(argv: list[str], work: Workdir, traced: bool, tag: str) -> tuple[int, str, float, float, float, Path | None]:
    """Run one command in a fresh interpreter.

    Returns (exit code, stdout, wall seconds, peak RSS MiB, CPU seconds,
    span file or None)."""
    spans = work.base / f"cli-{tag}.spans.json" if traced else None
    out_path = work.base / "cli.out"
    with open(out_path, "wb") as out, open(work.base / "cli.err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(_launch(argv, traced, spans), env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime, spans)


def cli_pass(world: World, work: Workdir, seconds: float, traced: bool, setups: int) -> Pass:
    """Run cold commands one at a time for ``seconds``."""
    result = Pass()
    work.restore()
    public = next(r for r in world.readable if r.data_class.value == "public")
    first = ["check", "--resource", public.resource_id, "--level", "read", "--store", str(work.store), "--json"]
    for i in range(setups):
        code, _, wall, rss, _, _ = run_cli(first, work, traced=False, tag=f"setup{i}")
        if code != 0:
            raise RuntimeError(f"first command exited with {code}: {(work.base / 'cli.err').read_text()[-500:]}")
        result.setup_s.append(wall)
        result.rss_mb = max(result.rss_mb, rss)
    plan = cli_plan(world, work.store)
    start = time.perf_counter()
    deadline = start + seconds
    for i, command in enumerate(plan):
        if time.perf_counter() >= deadline:
            break
        op = Op(command.cls, " ".join(command.argv[:2]), 0.0, 0.0, f"cli-{i}")
        code, stdout, wall, rss, cpu, spans = run_cli(command.argv, work, traced, tag=str(i))
        op.end = time.perf_counter()
        op.start = op.end - wall
        errors = (work.base / "cli.err").read_text()[-300:] if code != 0 else ""
        op.verify = _verify_cli(command, code, stdout, errors)
        result.ops.append(op)
        result.rss_mb = max(result.rss_mb, rss)
        result.cpu_s += cpu
        if spans is not None:
            result.span_files.append(spans)
    result.window_ops = len(result.ops)
    result.window_s = result.ops[-1].end - start
    _finish_verification(result.ops)
    return result


def _verify_cli(command: Command, code: int, stdout: str, errors: str) -> Callable[[], str]:
    def verify() -> str:
        try:
            problem = command.check(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        return f"{problem}: {errors}" if problem and errors else problem

    return verify
