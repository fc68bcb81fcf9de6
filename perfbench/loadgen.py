"""Open-loop HTTP load generator and server process control.

One load-generator process drives one ``repro serve`` process.  The
generator uses at most :data:`MAX_CONNECTIONS` threads, each holding at
most one TCP connection (one connection per request: the client speaks
HTTP/1.0, so the server closes after each response).

The loop is *open*: every request has a due time fixed in advance by
the schedule.  A free thread sleeps until the next request is due and
sends it; when both threads are busy the request waits, and that wait
counts in its latency, which is always taken from the due time.  How
late an idle thread woke up is recorded separately as the generator's
own lateness.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from stats import open_loop_latency

#: Threads and connections of the generator: the host's CPU count,
#: capped at 2 (the other core serves).
MAX_CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: With two or more CPUs the server and the generator each get their
#: own: the last CPU serves, the others generate.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SERVER_CPUS = set(_CPUS[-1:]) if len(_CPUS) >= 2 else set()
GENERATOR_CPUS = set(_CPUS[:-1]) if len(_CPUS) >= 2 else set()


def pin_generator() -> None:
    """Keep this process (and the builds it starts) off the server's CPU."""
    if GENERATOR_CPUS:
        os.sched_setaffinity(0, GENERATOR_CPUS)


#: Seconds before an unanswered request counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: Seconds a server may take to answer its first ``/healthz``.
READY_TIMEOUT_S = 120.0

#: Seconds a server may take to exit after SIGTERM (then SIGKILL).
STOP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    """One scheduled request.

    ``due`` is seconds after the schedule starts; ``tag`` identifies
    the query for the output checks; ``then`` is a follow-up the same
    connection sends as soon as this request succeeds (its due time is
    that moment).
    """

    kind: str
    method: str
    path: str
    body: bytes | None = None
    due: float = 0.0
    tag: Any = None
    then: "Request | None" = None


@dataclass
class Outcome:
    """What happened to one request (times are ``perf_counter`` seconds)."""

    request: Request
    due: float
    sent: float
    end: float
    status: int
    body: bytes
    #: How late an idle thread woke up for this request; ``None`` when
    #: the request was already overdue when a thread took it (backlog).
    lateness: float | None
    error: str = ""
    followup: "Outcome | None" = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        return open_loop_latency(self.due, self.end, self.ok)

    @property
    def send_delay(self) -> float:
        return self.sent - self.due

    def json(self) -> Any:
        return json.loads(self.body)


def http_call(
    port: int, method: str, path: str, body: bytes | None = None,
    timeout: float = REQUEST_TIMEOUT_S,
) -> tuple[int, bytes, str]:
    """One request over a fresh connection: ``(status, body, error)``;
    status 0 means a transport error or timeout."""
    head = f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    data = head.encode("ascii") + b"\r\n" + (body or b"")
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
            conn.sendall(data)
            chunks = []
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError as exc:
        return 0, b"", f"{type(exc).__name__}: {exc}"
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(header.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, raw, "malformed response"
    return status, payload, ""


def _send(port: int, request: Request, due: float, lateness: float | None) -> Outcome:
    sent = time.perf_counter()
    status, body, error = http_call(port, request.method, request.path, request.body)
    outcome = Outcome(request, due, sent, time.perf_counter(), status, body, lateness, error)
    if request.then is not None and outcome.ok:
        outcome.followup = _send(port, request.then, outcome.end, None)
    return outcome


def run_open_loop(port: int, requests: list[Request]) -> list[Outcome]:
    """Send ``requests`` (sorted by due time) on their schedule; one
    outcome per request, in schedule order."""
    if any(a.due > b.due for a, b in zip(requests, requests[1:])):
        raise ValueError("requests must be sorted by due time")
    outcomes: list[Outcome | None] = [None] * len(requests)
    cursor = itertools.count()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            i = next(cursor)
            if i >= len(requests):
                return
            due = start + requests[i].due
            lateness = None
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                lateness = time.perf_counter() - due
            outcomes[i] = _send(port, requests[i], due, lateness)

    threads = [threading.Thread(target=worker) for _ in range(MAX_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o for o in outcomes if o is not None]


def run_sequential(port: int, requests: list[Request]) -> list[Outcome]:
    """Send ``requests`` one after another (quiet sweeps and warm-ups)."""
    outcomes = []
    for request in requests:
        outcomes.append(_send(port, request, time.perf_counter(), None))
    return outcomes


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def repro_command(root: Path, spans_path: Path | None = None) -> list[str]:
    """The ``repro`` CLI entry of checkout ``root``: plain, or through
    the traced launcher writing spans to ``spans_path``."""
    if spans_path is None:
        return [sys.executable, "-m", "repro.cli"]
    return [sys.executable, str(root / "perfbench" / "launch.py"),
            "--spans", str(spans_path), "--"]


def repro_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class Server:
    """One ``repro serve`` process (CLI defaults), optionally traced.

    ``root`` is the checkout; the server gets only the corpus
    directory and the requests.
    """

    def __init__(self, root: Path, corpus_dir: Path, log_path: Path,
                 spans_path: Path | None = None) -> None:
        self.port = free_port()
        command = repro_command(root, spans_path) + [
            "serve", str(corpus_dir), "--port", str(self.port)]
        self._log = log_path.open("ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=root, env=repro_env(root),
                                        stdout=self._log, stderr=subprocess.STDOUT)
        if SERVER_CPUS:
            os.sched_setaffinity(self.process.pid, SERVER_CPUS)

    def wait_ready(self) -> float:
        """Seconds from spawn until the first 200 from ``/healthz``."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            status, _, _ = http_call(self.port, "GET", "/healthz", timeout=5.0)
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def peak_rss_mib(self) -> float:
        """Peak resident set (``VmHWM``) of the server process."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def kill(self) -> None:
        """SIGKILL and reap (a server whose shutdown is not checked)."""
        try:
            self.process.kill()
            self.process.wait()
        finally:
            self._log.close()

    def stop(self) -> int:
        """SIGTERM, wait for a clean exit (SIGKILL after
        :data:`STOP_TIMEOUT_S`)."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            return self.process.returncode
        finally:
            self._log.close()
