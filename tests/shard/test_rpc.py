"""The pipe-RPC layer on its own: ``PipeRpc`` against ``serve_rpc``.

Each test wires a master ``RpcLink`` to a worker end over a real
``multiprocessing.Pipe``; the worker side runs on a thread (its
``is_alive`` is what ``PipeRpc`` polls for liveness), or is a stand-in
that writes to the pipe by hand when a test needs a reply no correct
worker sends.  The gateway suite covers the same layer under real
worker processes.
"""

import multiprocessing
import threading
import time

import pytest

from repro.shard import Overloaded, ShardError, WorkerCrashed
from repro.shard.rpc import PipeRpc, RpcLink, serve_rpc

pytestmark = pytest.mark.shard


class _Process:
    """A worker process stand-in that is alive or not, as told."""

    def __init__(self, alive):
        self.alive = alive

    def is_alive(self):
        return self.alive


class _Peculiar(Exception):
    """A worker-side error type the master cannot name."""


def make_rpc(timeout=5.0):
    """``(rpc, dead links, (method, seconds) replies)``."""
    dead, replies = [], []
    rpc = PipeRpc(timeout=timeout, on_dead=dead.append,
                  on_reply=lambda link, method, seconds:
                      replies.append((method, seconds)))
    return rpc, dead, replies


def serving(handle, on_shutdown=None):
    """A link to ``serve_rpc(handle)`` running on a thread."""
    master, worker = multiprocessing.Pipe()
    thread = threading.Thread(target=serve_rpc,
                              args=(worker, handle, on_shutdown),
                              daemon=True)
    thread.start()
    return RpcLink(0, thread, master)


def echo(method, kwargs):
    return method, kwargs


def shut_down(link):
    link.conn.send((link.next_request, "shutdown", None))
    link.process.join(5)
    assert not link.process.is_alive()


# ----------------------------------------------------------------------
# Master side: PipeRpc
# ----------------------------------------------------------------------
def test_a_call_returns_the_result_and_reports_its_latency():
    rpc, dead, replies = make_rpc()
    link = serving(echo)
    assert rpc.call(link, "ping", {"x": 1}) == ("ping", {"x": 1})
    assert rpc.call(link, "pong", None) == ("pong", {})
    assert [method for method, _ in replies] == ["ping", "pong"]
    assert all(seconds >= 0 for _, seconds in replies)
    assert link.last_rpc_method == "pong"
    assert link.last_rpc_seconds == replies[-1][1]
    assert link.next_request == 2 and link.post_times == {}
    assert dead == [] and link.alive
    shut_down(link)


@pytest.mark.parametrize("raised,expected", [
    (Overloaded, Overloaded),      # the shard tier's own family
    (ValueError, ValueError),      # a builtin
    (_Peculiar, ShardError),       # anything else
])
def test_a_worker_error_is_rebuilt_under_its_type(raised, expected):
    """The error reply re-raises on the master under the worker's type
    when the master can name it, as a ``ShardError`` naming it when
    not; either way the worker serves on."""
    def handle(method, kwargs):
        if method == "fail":
            raise raised("no room at worker 0")
        return echo(method, kwargs)

    rpc, dead, _ = make_rpc()
    link = serving(handle)
    with pytest.raises(expected, match="no room at worker 0") as info:
        rpc.call(link, "fail", {})
    assert type(info.value) is expected
    if expected is ShardError:
        assert "_Peculiar" in str(info.value) and "'fail'" in str(info.value)
    assert rpc.call(link, "ping", {}) == ("ping", {})
    assert dead == [] and link.alive
    shut_down(link)


def test_a_worker_that_closes_its_pipe_crashes_the_call():
    """EOF on the pipe: the call raises ``WorkerCrashed``, ``on_dead``
    fires once, and later posts fail fast without touching the pipe."""
    master, worker = multiprocessing.Pipe()

    def die_on_first_request():
        worker.recv()
        worker.close()

    thread = threading.Thread(target=die_on_first_request, daemon=True)
    thread.start()
    link = RpcLink(3, thread, master)
    rpc, dead, replies = make_rpc()
    with pytest.raises(WorkerCrashed, match="worker 3 died during 'ping'"):
        rpc.call(link, "ping", {})
    assert dead == [link] and not link.alive and link.post_times == {}
    with pytest.raises(WorkerCrashed, match="worker 3 is dead"):
        rpc.post(link, "ping", {})
    rpc.mark_dead(link)
    assert dead == [link] and replies == [] and link.next_request == 1
    thread.join(5)


def test_a_worker_gone_without_closing_its_pipe_is_detected():
    """A worker process that is no longer alive but left its pipe open
    is found dead by polling, with no timeout to wait out."""
    master, worker = multiprocessing.Pipe()
    link = RpcLink(1, _Process(alive=False), master)
    rpc, dead, _ = make_rpc(timeout=None)
    started = time.monotonic()
    with pytest.raises(WorkerCrashed, match="worker 1 died during 'ping'"):
        rpc.call(link, "ping", {})
    assert time.monotonic() - started < 5
    assert dead == [link] and not link.alive
    worker.close()


def test_a_live_worker_that_does_not_answer_times_out():
    """A silent but living worker fails the call with a plain
    ``ShardError`` after ``timeout`` and is not declared dead."""
    master, worker = multiprocessing.Pipe()
    link = RpcLink(2, _Process(alive=True), master)
    rpc, dead, _ = make_rpc(timeout=0.2)
    with pytest.raises(ShardError, match="did not answer 'ping' within") \
            as info:
        rpc.call(link, "ping", {})
    assert type(info.value) is ShardError
    assert dead == [] and link.alive
    master.close()
    worker.close()


def test_stale_replies_of_an_abandoned_wait_are_dropped():
    """Two pipelined posts, only the second awaited: the first reply is
    skipped as stale and the second comes back."""
    rpc, dead, replies = make_rpc()
    link = serving(echo)
    first = rpc.post(link, "first", {})
    second = rpc.post(link, "second", {})
    assert (first, second) == (0, 1)
    assert rpc.wait(link, second, "second") == ("second", {})
    assert [method for method, _ in replies] == ["second"]
    assert rpc.call(link, "third", {}) == ("third", {})
    assert dead == [] and link.alive
    shut_down(link)


def test_a_reply_ahead_of_its_request_marks_the_stream_corrupt():
    master, worker = multiprocessing.Pipe()
    link = RpcLink(0, _Process(alive=True), master)
    rpc, dead, _ = make_rpc()
    request_id = rpc.post(link, "ping", {})
    assert worker.recv() == (request_id, "ping", {})
    worker.send((request_id + 5, "ok", None))
    with pytest.raises(ShardError, match="the RPC stream is corrupt") \
            as info:
        rpc.wait(link, request_id, "ping")
    assert not isinstance(info.value, WorkerCrashed)
    assert dead == [link] and not link.alive
    worker.close()


def test_a_post_to_a_closed_pipe_marks_the_worker_dead():
    master, worker = multiprocessing.Pipe()
    worker.close()
    link = RpcLink(4, _Process(alive=False), master)
    rpc, dead, _ = make_rpc()
    with pytest.raises(WorkerCrashed,
                       match="worker 4 died before accepting 'ping'"):
        rpc.post(link, "ping", {})
    assert dead == [link] and not link.alive and link.post_times == {}


# ----------------------------------------------------------------------
# Worker side: serve_rpc
# ----------------------------------------------------------------------
def test_serve_rpc_answers_in_order_and_shutdown_is_the_last_reply():
    master, worker = multiprocessing.Pipe()
    thread = threading.Thread(
        target=serve_rpc,
        args=(worker, echo, lambda kwargs: {"drained": kwargs}),
        daemon=True)
    thread.start()
    master.send((0, "a", {"n": 0}))
    master.send((1, "b", None))
    master.send((2, "shutdown", {"reason": "done"}))
    assert master.recv() == (0, "ok", ("a", {"n": 0}))
    assert master.recv() == (1, "ok", ("b", {}))
    assert master.recv() == (2, "ok", {"drained": {"reason": "done"}})
    thread.join(5)
    assert not thread.is_alive()
    assert worker.closed


def test_serve_rpc_without_a_shutdown_hook_replies_none():
    master, worker = multiprocessing.Pipe()
    thread = threading.Thread(target=serve_rpc, args=(worker, echo),
                              daemon=True)
    thread.start()
    master.send((0, "shutdown", None))
    assert master.recv() == (0, "ok", None)
    thread.join(5)
    assert not thread.is_alive()


def test_a_failing_shutdown_hook_is_a_typed_reply_and_still_exits():
    def on_shutdown(kwargs):
        raise ValueError("checkpoint root is gone")

    master, worker = multiprocessing.Pipe()
    thread = threading.Thread(target=serve_rpc,
                              args=(worker, echo, on_shutdown), daemon=True)
    thread.start()
    master.send((0, "shutdown", {}))
    assert master.recv() == (0, "error",
                             ("ValueError", "checkpoint root is gone"))
    thread.join(5)
    assert not thread.is_alive()


def test_serve_rpc_ends_quietly_when_the_master_goes_away():
    served = []
    master, worker = multiprocessing.Pipe()
    thread = threading.Thread(
        target=serve_rpc,
        args=(worker, lambda method, kwargs: served.append(method)),
        daemon=True)
    thread.start()
    master.send((0, "ping", {}))
    assert master.recv() == (0, "ok", None)
    master.close()
    thread.join(5)
    assert not thread.is_alive()
    assert served == ["ping"] and worker.closed
