"""Fast tests of the benchmark's own logic (no ``repro`` server).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time

import pytest

import calibrate
import loadgen
import stats
from spans import Recorder


# ----------------------------------------------------------------------
# percentile choice
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (10000, 99.9),
        (1000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50.0) == 50.0
    assert stats.percentile(values, 90.0) == 90.0
    assert stats.percentile(list(reversed(values)), 99.0) == 99.0


def test_failed_requests_push_the_tail_to_infinity():
    latencies = [0.010] * 90 + [math.inf] * 10
    summary = stats.latency_summary(latencies)
    assert summary["tail_pct"] == 90.0
    assert summary["p50_ms"] == pytest.approx(10.0)
    assert summary["tail_ms"] == pytest.approx(10.0)
    summary = stats.latency_summary([0.010] * 89 + [math.inf] * 11)
    assert summary["tail_ms"] == math.inf


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        (1, 0, 1, "root", 0.0, 10.0),
        (2, 1, 1, "child", 1.0, 4.0),
        (3, 2, 1, "grandchild", 2.0, 3.0),
    ]
    own = stats.self_times(spans)
    assert own == {1: pytest.approx(7.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0)}


def test_self_time_with_siblings_and_overlap():
    spans = [
        (1, 0, 1, "root", 0.0, 10.0),
        (2, 1, 1, "a", 1.0, 3.0),
        (3, 1, 1, "b", 5.0, 6.0),
        # Overlaps sibling "a": the union is subtracted, not the sum.
        (4, 1, 1, "c", 2.0, 4.0),
        # Runs past its parent's end: only the covered part counts.
        (5, 1, 1, "d", 9.0, 12.0),
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (3.0 + 1.0 + 1.0))
    assert own[2] == pytest.approx(2.0)


def test_self_times_of_a_request_add_up_to_its_root():
    spans = [
        (1, 0, 7, "handler", 0.0, 5.0),
        (2, 1, 7, "service", 0.5, 4.5),
        (3, 2, 7, "engine", 1.0, 4.0),
        (4, 3, 7, "lookup", 1.5, 2.0),
        (5, 3, 7, "ta", 2.5, 3.5),
    ]
    assert sum(stats.self_times(spans).values()) == pytest.approx(5.0)


def test_recorder_links_parents_and_request_ids():
    recorder = Recorder()

    def leaf(x):
        return x + 1

    traced_leaf = recorder.span("leaf", leaf, probe=lambda result, args: result)
    counted = recorder.counted("hot", lambda: None)

    def inner():
        counted()
        return traced_leaf(1) + traced_leaf(2)

    handler = recorder.span("handler", recorder.span("inner", inner), root=True)
    assert handler() == 5
    assert handler() == 5
    by_name: dict = {}
    for sid, parent, rid, name, start, end in recorder.spans:
        by_name.setdefault(name, []).append((sid, parent, rid))
        assert end >= start
    roots = by_name["handler"]
    assert [rid for _, _, rid in roots] == [1, 2]
    inner_ids = {sid: rid for sid, _, rid in by_name["inner"]}
    for sid, parent, rid in by_name["leaf"]:
        assert inner_ids[parent] == rid
    assert sorted(v for _, v in recorder.values) == [2.0, 2.0, 3.0, 3.0]
    assert recorder.counts[("hot", "inner")][0] == 2


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def test_latency_is_taken_from_the_due_time():
    request = loadgen.Request("search", "GET", "/")
    late = loadgen.Outcome(request, due=1.0, sent=1.5, end=1.6, status=200, body=b"",
                           lateness=None)
    assert late.latency == pytest.approx(0.6)
    assert late.send_delay == pytest.approx(0.5)
    failed = loadgen.Outcome(request, due=1.0, sent=1.0, end=1.1, status=503, body=b"",
                             lateness=0.0)
    assert failed.latency == math.inf


@pytest.fixture
def slow_first_server():
    """A bare socket server: the first response takes 0.3 s, later
    ones are immediate."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        first = True
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                conn.recv(4096)
                if first:
                    time.sleep(0.3)
                    first = False
                conn.sendall(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield listener.getsockname()[1]
    stop.set()
    thread.join(timeout=5)
    listener.close()
    assert not thread.is_alive()


def test_a_stall_counts_against_later_requests(slow_first_server, monkeypatch):
    monkeypatch.setattr(loadgen, "MAX_CONNECTIONS", 1)
    requests = [loadgen.Request("search", "GET", "/", due=t) for t in (0.0, 0.05, 0.10)]
    outcomes = loadgen.run_open_loop(slow_first_server, requests)
    assert [o.status for o in outcomes] == [200, 200, 200]
    # The second and third requests waited behind the first; their
    # latency includes that wait, measured from when they were due.
    assert outcomes[1].send_delay >= 0.2
    assert outcomes[1].latency >= outcomes[1].send_delay
    assert outcomes[2].latency >= 0.15
    assert outcomes[1].lateness is None and outcomes[0].lateness is not None


def test_transport_errors_are_failures():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    status, _, error = loadgen.http_call(port, "GET", "/", timeout=1.0)
    assert status == 0 and error


# ----------------------------------------------------------------------
# rate steps
# ----------------------------------------------------------------------
def test_step_passes_within_limit_and_flat_backlog():
    latencies = [0.020] * 100
    delays = [0.001] * 100
    assert stats.step_passes(latencies, delays, limit_s=0.050)


def test_step_fails_on_tail_over_limit():
    latencies = [0.020] * 85 + [0.080] * 15
    assert not stats.step_passes(latencies, [0.0] * 100, limit_s=0.050)


def test_step_fails_on_growing_backlog():
    # The tail still meets the limit, but the queue keeps growing.
    delays = [0.0004 * i for i in range(100)]
    latencies = [0.005 + d for d in delays]
    assert stats.percentile(latencies, 90.0) < 0.050
    assert not stats.step_passes(latencies, delays, limit_s=0.050)


def test_step_fails_on_failed_requests():
    latencies = [0.010] * 85 + [math.inf] * 15
    assert not stats.step_passes(latencies, [0.0] * 100, limit_s=0.050)


def test_step_with_too_few_samples_fails():
    assert not stats.step_passes([0.001] * 5, [0.0] * 5, limit_s=0.050)


def test_max_passing_rate():
    assert stats.max_passing_rate([(40.0, True), (60.0, True), (80.0, False)]) == 60.0
    assert stats.max_passing_rate([(40.0, False), (60.0, True)]) == 60.0
    assert stats.max_passing_rate([(40.0, False)]) == 0.0


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------
def test_host_speed_scales_by_the_trimmed_mean_kernel_time(monkeypatch):
    ref = calibrate.REFERENCE_S
    # CPU 1: nine samples at the reference time and at twice it, plus
    # one descheduled sample that the trim drops; CPU 0: the reference.
    cpu1 = iter([ref, 2 * ref] * 9 + [50 * ref, ref])
    monkeypatch.setattr(calibrate, "measure",
                        lambda cpus: next(cpu1) if cpus == {1} else ref)
    speed = calibrate.HostSpeed([{1}, {0}])
    for _ in range(20):
        speed.sample()
    assert len(speed.samples[frozenset({1})]) == 20
    # Half the kernel runs took twice as long: the host ran at 2/3 of
    # the reference speed, so its times are scaled by 2/3.
    assert speed.scale({1}) == pytest.approx(1 / 1.5)
    assert speed.scale({0}) == pytest.approx(1.0)


def test_measure_restores_the_thread_affinity():
    home = os.sched_getaffinity(0)
    assert calibrate.measure({min(home)}) > 0.0
    assert os.sched_getaffinity(0) == home
