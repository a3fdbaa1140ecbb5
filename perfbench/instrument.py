"""Outside-in instrumentation of the three-party runtime.

Nothing here edits the program: every probe replaces a module attribute or a
runtime instance's method from the benchmark's side and puts it back after.

* :class:`RoundClock` counts rounds with a logical clock around each
  runtime's ``send_*``/``recv_*`` calls.
* :class:`Tracer` records a span (wall and thread CPU time, self time, parent)
  around each wrapped call and keeps them in memory until the run ends.
* :func:`run_delayed_trio` runs the three parties over in-process links that
  hold every frame for a fixed one-way delay.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import queue
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager

from oblivgm import net
from oblivgm.rss import next_party, prev_party

TOTAL = "total"


class RoundClock:
    """Longest chain of messages in which each is sent after its sender received the last.

    Every frame carries, on a side queue of its directed link, a stamp of
    chain depths: the overall depth and one depth per meter phase. A party's
    next send is stamped one deeper than the deepest stamp it has received
    (overall, and in the phase it is sending in). Links are FIFO, so the side
    queue pops stamps in frame order. Attach each of the three runtimes of
    one query before it sends or receives anything.
    """

    def __init__(self):
        self._links = {(i, j): deque() for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
        self._deepest: dict[int, dict[str, int]] = {}

    def attach(self, rt) -> None:
        seen: dict[str, int] = defaultdict(int)
        deepest = self._deepest[rt.index] = defaultdict(int)
        phases: list[str] = []
        meter_phase = rt.meter.phase

        @contextmanager
        def phase(name):
            phases.append(name)
            try:
                with meter_phase(name):
                    yield
            finally:
                phases.pop()

        def sender(send, peer):
            link = self._links[(rt.index, peer)]

            def stamped_send(op, payload, logical_bits=0):
                name = phases[-1] if phases else "(none)"
                stamp = dict(seen)
                stamp[TOTAL] = seen[TOTAL] + 1
                stamp[name] = seen[name] + 1
                for key, depth in stamp.items():
                    if depth > deepest[key]:
                        deepest[key] = depth
                link.append(stamp)
                return send(op, payload, logical_bits)
            return stamped_send

        def receiver(recv, peer):
            link = self._links[(peer, rt.index)]

            def stamped_recv(op):
                payload = recv(op)
                for key, depth in link.popleft().items():
                    if depth > seen[key]:
                        seen[key] = depth
                return payload
            return stamped_recv

        nxt, prv = next_party(rt.index), prev_party(rt.index)
        rt.meter.phase = phase
        rt.send_next = sender(rt.send_next, nxt)
        rt.send_prev = sender(rt.send_prev, prv)
        rt.recv_next = receiver(rt.recv_next, nxt)
        rt.recv_prev = receiver(rt.recv_prev, prv)

    def rounds(self, phase: str = TOTAL) -> int:
        """Deepest stamp sent by any party, overall or within one phase."""
        return max((d.get(phase, 0) for d in self._deepest.values()), default=0)


class Tracer:
    """In-memory spans around wrapped callables.

    A span is ``(query, id, parent, name, start, wall, cpu, self_wall,
    self_cpu, size)``; spans of one query share ``query``. Self time is the
    span minus the wrapped calls nested in it on the same thread. Calls made
    while ``query`` is None pass straight through unrecorded.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.query = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def traced(self, inner, name: str, size=None):
        """``inner`` wrapped in a span; ``size(*args)`` counts the work of a call."""
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            query = tracer.query
            if query is None:
                return inner(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0, 0.0]  # id, child wall, child cpu
            stack.append(frame)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                return inner(*args, **kwargs)
            finally:
                wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                tracer.spans.append((query, span_id, parent, name, w0, wall, cpu,
                                     wall - frame[1], cpu - frame[2],
                                     size(*args) if size else 0))
        return traced

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` by its traced version until :meth:`restore`."""
        inner = getattr(owner, attr)
        setattr(owner, attr, self.traced(inner, name, size))
        self._undo.append((owner, attr, inner))

    def restore(self) -> None:
        """Put back every module attribute wrapped so far."""
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def totals(self, query_filter=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, wall, cpu, self_wall, self_cpu and size, summed."""
        out: dict[str, dict[str, float]] = {}
        for q, _, _, name, _, wall, cpu, self_wall, self_cpu, size in self.spans:
            if query_filter is not None and not query_filter(q):
                continue
            agg = out.setdefault(name, dict.fromkeys(
                ("calls", "wall_s", "cpu_s", "self_wall_s", "self_cpu_s", "size"), 0))
            agg["calls"] += 1
            agg["wall_s"] += wall
            agg["cpu_s"] += cpu
            agg["self_wall_s"] += self_wall
            agg["self_cpu_s"] += self_cpu
            agg["size"] += size
        return out


class DelayedChannel:
    """One direction of an in-process link that holds each frame for a fixed delay.

    A frame becomes readable ``delay`` seconds after it was sent. Links are
    FIFO and the delay is fixed, so frames stay in order. ``close`` poisons
    the channel at once: a reader blocked on it fails without waiting.
    """

    _CLOSE = object()

    def __init__(self, delay: float):
        self._q: queue.Queue = queue.Queue()
        self._delay = delay

    def send_bytes(self, data: bytes) -> None:
        self._q.put((time.monotonic() + self._delay, data))

    def recv_bytes(self, timeout: float) -> bytes:
        try:
            item = self._q.get(timeout=timeout)
        except queue.Empty:
            raise net.ProtocolError("receive timed out") from None
        if item is self._CLOSE:
            raise net.ProtocolError("channel closed by peer failure")
        due, data = item
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        return data

    def close(self) -> None:
        self._q.put(self._CLOSE)


def run_delayed_trio(worker, configs, delay: float, recv_timeout: float = 120.0):
    """``net.run_local_trio`` over :class:`DelayedChannel` links.

    Any party's failure closes every channel, so its peers fail at once
    instead of waiting out ``recv_timeout``.
    """
    channels = {(i, j): DelayedChannel(delay)
                for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    runtimes = []
    for cfg in sorted(configs, key=lambda c: c.party_index):
        i = cfg.party_index
        transcript = hashlib.sha256(b"OGM-transcript:%d:%d" % (cfg.session, i))
        links = {j: net.PeerLink(channels[(i, j)], channels[(j, i)], cfg.session, transcript)
                 for j in (1, 2, 3) if j != i}
        runtimes.append(net.PartyRuntime(cfg, links, transcript, recv_timeout))

    def close_all():
        for ch in channels.values():
            ch.close()

    return net.run_trio(worker, runtimes, close_channels=close_all)
