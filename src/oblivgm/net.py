"""Three-party runtime: framed transports, round bookkeeping, and session setup.

Every message crosses a directed peer link as a frame::

    "OGMF" | session u32 | round u32 | op u16 | length u32 | payload

Rounds count per (link, op) and must match on both ends; a mismatch is a
protocol error, not silent corruption. Two transports sit behind the same
channel interface: in-process byte queues (tests, ``query --mode local``) and TCP
sockets. Frames are serialized identically on both, so transcripts are
comparable across transports.
"""

from __future__ import annotations

import hashlib
import queue
import socket
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .prf import derive_key

FRAME_MAGIC = b"OGMF"
_HEADER = struct.Struct("<4sIIHI")
_RECV_CHUNK = 1 << 20  # largest single socket read, so memory follows the bytes that arrive

OP_SETUP = 1
OP_RESHARE = 2
OP_OPEN = 3
OP_SHUFFLE = 4

OP_NAMES = {OP_SETUP: "setup", OP_RESHARE: "reshare", OP_OPEN: "open", OP_SHUFFLE: "shuffle"}


class ProtocolError(RuntimeError):
    """Round skew, desynchronization, or a broken/closed channel."""


class ChannelClosed(ProtocolError):
    """The channel was closed because another party failed."""


@dataclass(frozen=True)
class Frame:
    session: int
    round: int
    op: int
    payload: bytes

    def encode(self) -> bytes:
        return _HEADER.pack(FRAME_MAGIC, self.session, self.round, self.op, len(self.payload)) + self.payload

    @staticmethod
    def decode(data: bytes) -> "Frame":
        if len(data) < _HEADER.size:
            raise ProtocolError("short frame")
        magic, session, rnd, op, length = _HEADER.unpack_from(data)
        if magic != FRAME_MAGIC:
            raise ProtocolError("bad frame magic")
        payload = data[_HEADER.size:]
        if len(payload) != length:
            raise ProtocolError("frame length mismatch")
        return Frame(session, rnd, op, payload)


class QueueChannel:
    """One direction of an in-process link; carries encoded frame bytes."""

    _CLOSE = object()

    def __init__(self):
        self._q: queue.Queue = queue.Queue()

    def send_bytes(self, data: bytes) -> None:
        self._q.put(data)

    def recv_bytes(self, timeout: float) -> bytes:
        try:
            item = self._q.get(timeout=timeout)
        except queue.Empty:
            raise ProtocolError("receive timed out") from None
        if item is self._CLOSE:
            raise ChannelClosed("channel closed by peer failure")
        return item

    def close(self) -> None:
        self._q.put(self._CLOSE)


class TcpChannel:
    """Framed messages over one TCP socket (both directions).

    A received header of any session but ``session`` fails at once,
    before its payload is read.
    """

    def __init__(self, sock: socket.socket, session: int):
        self._sock = sock
        self._session = session
        self._send_lock = threading.Lock()

    def send_bytes(self, data: bytes) -> None:
        with self._send_lock:
            self._sock.sendall(data)

    def _read_exact(self, n: int, timeout: float) -> bytes:
        self._sock.settimeout(timeout)
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(min(n - got, _RECV_CHUNK))
            except socket.timeout:
                raise ProtocolError("receive timed out") from None
            except OSError as exc:
                raise ProtocolError(f"socket error: {exc}") from None
            if not chunk:
                raise ProtocolError("peer disconnected")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_bytes(self, timeout: float) -> bytes:
        header = self._read_exact(_HEADER.size, timeout)
        magic, session, _, _, length = _HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            raise ProtocolError("bad frame magic")
        if session != self._session:
            raise ProtocolError(f"session mismatch: got {session}, expected {self._session}")
        payload = self._read_exact(length, timeout) if length else b""
        return header + payload

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class PeerLink:
    """Bidirectional framed link to one peer with per-op round counters."""

    def __init__(self, send_channel, recv_channel, session: int, transcript: "hashlib._Hash"):
        self._send_ch = send_channel
        self._recv_ch = recv_channel
        self.session = session
        self._tx_rounds: dict[int, int] = {}
        self._rx_rounds: dict[int, int] = {}
        self._transcript = transcript

    def send(self, op: int, payload: bytes) -> int:
        rnd = self._tx_rounds.get(op, 0)
        self._tx_rounds[op] = rnd + 1
        data = Frame(self.session, rnd, op, payload).encode()
        self._transcript.update(b"S" + data)
        self._send_ch.send_bytes(data)
        return len(data)

    def close(self) -> None:
        """Poison the link: the peer's pending and future receives fail at once."""
        self._send_ch.close()

    def recv(self, op: int, timeout: float) -> bytes:
        data = self._recv_ch.recv_bytes(timeout)
        frame = Frame.decode(data)
        if frame.session != self.session:
            raise ProtocolError(f"session mismatch: got {frame.session}, expected {self.session}")
        if frame.op != op:
            raise ProtocolError(
                f"expected op {OP_NAMES.get(op, op)}, got {OP_NAMES.get(frame.op, frame.op)}"
            )
        expected = self._rx_rounds.get(op, 0)
        if frame.round != expected:
            raise ProtocolError(
                f"round skew on op {OP_NAMES.get(op, op)}: got {frame.round}, expected {expected}"
            )
        self._rx_rounds[op] = expected + 1
        self._transcript.update(b"R")
        self._transcript.update(data)
        return frame.payload


@dataclass
class PhaseStats:
    bytes_sent: int = 0
    frames_sent: int = 0
    logical_bits: int = 0
    seconds: float = 0.0  # wall time spent inside the phase (not kept for the total)

    def add(self, nbytes: int, bits: int) -> None:
        self.bytes_sent += nbytes
        self.frames_sent += 1
        self.logical_bits += bits


class Meter:
    """Per-party traffic accounting, per phase and in total.

    :meth:`phase` names the phase that sends are booked to, and restores the
    previous name on exit. The meter sees one party's sends only, so it
    counts no rounds: a query's rounds are the causal depth of its frames
    over all three parties.
    """

    def __init__(self):
        self.phases: dict[str, PhaseStats] = {}
        self.total = PhaseStats()
        self.current = "(none)"

    @contextmanager
    def phase(self, name: str):
        outer, self.current = self.current, name
        started = time.perf_counter()
        try:
            yield
        finally:
            self.current = outer
            self.phases.setdefault(name, PhaseStats()).seconds += time.perf_counter() - started

    def record_send(self, nbytes: int, logical_bits: int) -> None:
        self.total.add(nbytes, logical_bits)
        self.phases.setdefault(self.current, PhaseStats()).add(nbytes, logical_bits)


class Opened(NamedTuple):
    """One entry of the leakage ledger: a value revealed to every party.

    ``bits`` is the value as a ``uint8`` 0/1 array. ``slot`` is the query
    slot the bits belong to (None when the caller gave none) and
    ``segments`` the public row counts of its groups, which split ``bits``.
    An open that spans several slots makes one entry per slot.
    """

    label: int
    phase: str
    bits: np.ndarray
    slot: int | None
    segments: tuple[int, ...]


@dataclass
class PartyConfig:
    """Key material and addressing for one party.

    Pairwise shuffle seeds follow the sharing rule: the seed for pair (i, i+1)
    is held by exactly those two parties, as ``seed_with_next`` at party i and
    ``seed_with_prev`` at party i+1.
    """

    party_index: int
    session: int
    zero_key_own: bytes
    zero_key_prev: bytes
    seed_with_next: bytes
    seed_with_prev: bytes
    bind: str | None = None
    peers: dict[int, str] = field(default_factory=dict)


def make_session_configs(master: bytes, session: int = 1) -> list[PartyConfig]:
    """Derive a consistent config triple from master key material."""
    k = {i: derive_key(master, f"zero-key-{i}") for i in (1, 2, 3)}
    s = {
        (1, 2): derive_key(master, "pair-seed-12"),
        (2, 3): derive_key(master, "pair-seed-23"),
        (3, 1): derive_key(master, "pair-seed-31"),
    }
    return [
        PartyConfig(1, session, k[1], k[3], s[(1, 2)], s[(3, 1)]),
        PartyConfig(2, session, k[2], k[1], s[(2, 3)], s[(1, 2)]),
        PartyConfig(3, session, k[3], k[2], s[(3, 1)], s[(2, 3)]),
    ]


class PartyRuntime:
    """One party's handle on a live session."""

    def __init__(self, config: PartyConfig, links: dict[int, PeerLink],
                 transcript: "hashlib._Hash", recv_timeout: float = 120.0):
        from .rss import ZeroShareContext, next_party, prev_party

        self.index = config.party_index
        self.session = config.session
        self.links = links
        self.zs = ZeroShareContext(config.zero_key_own, config.zero_key_prev)
        self.seed_with_next = config.seed_with_next
        self.seed_with_prev = config.seed_with_prev
        self.meter = Meter()
        self.opened: list[Opened] = []  # the leakage ledger, one entry per open and slot
        self.recv_timeout = recv_timeout
        self._next = next_party(self.index)
        self._prev = prev_party(self.index)
        self._table_counter = 0
        self._open_label = 0
        self._transcript = transcript

    # -- messaging ---------------------------------------------------------

    def _send(self, peer: int, op: int, payload: bytes, logical_bits: int) -> None:
        nbytes = self.links[peer].send(op, payload)
        self.meter.record_send(nbytes, logical_bits)

    def send_next(self, op: int, payload: bytes, logical_bits: int = 0) -> None:
        self._send(self._next, op, payload, logical_bits)

    def send_prev(self, op: int, payload: bytes, logical_bits: int = 0) -> None:
        self._send(self._prev, op, payload, logical_bits)

    def recv_next(self, op: int) -> bytes:
        return self.links[self._next].recv(op, self.recv_timeout)

    def recv_prev(self, op: int) -> bytes:
        return self.links[self._prev].recv(op, self.recv_timeout)

    # -- session state -----------------------------------------------------

    def zero_share(self, nbits: int):
        return self.zs.next_share(nbits)

    def alloc_table_id(self) -> int:
        tid = self._table_counter
        self._table_counter += 1
        return tid

    def alloc_open_label(self) -> int:
        """Next open label, counting from 1; lockstep across the parties."""
        self._open_label += 1
        return self._open_label

    def close_links(self) -> None:
        for link in self.links.values():
            link.close()

    def note_opened(self, label: int, bits: np.ndarray, slots=None) -> None:
        """Enter an opened 0/1 array in the ledger, one entry per ``(slot, segments)`` run.

        The runs split ``bits`` in order; without ``slots`` the whole value
        is one untagged entry.
        """
        phase, n, pos = self.meter.current, len(bits), 0
        if slots is None:
            self.opened.append(Opened(label, phase, bits, None, (n,)))
            return
        for slot, segments in slots:
            end = pos + sum(segments)
            self.opened.append(Opened(label, phase, bits[pos:end], slot, tuple(segments)))
            pos = end
        if pos != n:
            raise ValueError(f"ledger runs cover {pos} of {n} opened bits")

    def transcript_digest(self) -> str:
        return self._transcript.hexdigest()


def _new_transcript(config: PartyConfig) -> "hashlib._Hash":
    h = hashlib.sha256()
    h.update(b"OGM-transcript:%d:%d" % (config.session, config.party_index))
    return h


def local_runtimes(configs: list[PartyConfig], recv_timeout: float = 120.0) -> list[PartyRuntime]:
    """Wire three in-process parties with queue channels."""
    if sorted(c.party_index for c in configs) != [1, 2, 3]:
        raise ValueError("configs must cover party indices 1, 2, 3 exactly")
    configs = sorted(configs, key=lambda c: c.party_index)
    if len({c.session for c in configs}) != 1:
        raise ValueError("configs disagree on session id")
    # one queue per directed pair
    q = {(i, j): QueueChannel() for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    runtimes = []
    for cfg in configs:
        i = cfg.party_index
        transcript = _new_transcript(cfg)
        links = {
            j: PeerLink(q[(i, j)], q[(j, i)], cfg.session, transcript)
            for j in (1, 2, 3)
            if j != i
        }
        runtimes.append(PartyRuntime(cfg, links, transcript, recv_timeout))
    return runtimes


def run_trio(worker, runtimes: list[PartyRuntime], close_channels=None):
    """Run ``worker(rt)`` for the three parties on separate threads.

    On failure in any party every runtime's links are closed, or
    ``close_channels()`` is called instead when given, so blocked peers fail
    fast. The first exception raised is re-raised: the peers' failures on the
    closed channels come after it, whatever error type a channel uses for them.
    """
    results: list = [None, None, None]
    errors: list = []
    if close_channels is None:
        def close_channels():
            for rt in runtimes:
                rt.close_links()

    def run(idx: int, rt: PartyRuntime):
        try:
            results[idx] = worker(rt)
        except BaseException as exc:  # noqa: BLE001 - propagated below
            errors.append(exc)
            close_channels()

    threads = [
        threading.Thread(target=run, args=(i, rt), name=f"party-{rt.index}", daemon=True)
        for i, rt in enumerate(runtimes)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def run_local_trio(worker, configs: list[PartyConfig] | None = None,
                   recv_timeout: float = 120.0):
    """Convenience wrapper: set up an in-process session and run a worker triple."""
    if configs is None:
        configs = make_session_configs(b"\x00" * 16)
    return run_trio(worker, local_runtimes(configs, recv_timeout))


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------


def _parse_addr(addr: str) -> tuple[str, int]:
    """A ``host:port`` address as a socket address; the host defaults to 127.0.0.1."""
    host, _, port = addr.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"bad address {addr!r}: the port must be a number from 0 to 65535")
    return host or "127.0.0.1", int(port)


def parse_peers(spec: str) -> dict[int, str]:
    """Parse ``1=host:port,2=host:port`` peer listings (OBLIVGM_PEERS)."""
    peers = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        idx, _, addr = part.partition("=")
        if idx.strip() not in ("1", "2", "3"):
            raise ValueError(f"bad peer {part!r}: the party must be 1, 2 or 3")
        _parse_addr(addr)
        peers[int(idx)] = addr
    return peers


def tcp_runtime(config: PartyConfig, recv_timeout: float = 120.0,
                connect_timeout: float = 30.0) -> PartyRuntime:
    """Establish the TCP mesh for one party and return its runtime.

    Each party listens on its bind address, dials peers with a smaller index,
    and accepts connections from peers with a larger one. A setup frame
    carrying the dialer's party index identifies each inbound connection,
    and the reply carries the acceptor's. Every channel checks the session of
    each header it reads, the setup frames' included, on both sides. A bind
    address it cannot listen on, such as one in use, and a peer it cannot
    reach raise :class:`ProtocolError`. A malformed address, or a peer to
    dial that has none, raises ``ValueError`` before any socket is opened.
    """
    if not config.bind:
        raise ValueError("TCP transport requires a bind address")
    i = config.party_index
    bind = _parse_addr(config.bind)
    dial = {}
    for j in (p for p in (1, 2, 3) if p < i):
        if j not in config.peers:
            raise ValueError(f"the peers list has no address for party {j}, which party {i} dials")
        dial[j] = _parse_addr(config.peers[j])
    try:
        listener = socket.create_server(bind, backlog=2)
    except OSError as exc:
        raise ProtocolError(f"cannot listen on {config.bind}: {exc.strerror or exc}") from None
    listener.settimeout(connect_timeout)
    channels: dict[int, TcpChannel] = {}
    opened: list[TcpChannel] = []  # every channel made, so a failed setup closes them all
    try:
        for j, addr in dial.items():
            deadline = time.monotonic() + connect_timeout
            while True:
                try:
                    sock = socket.create_connection(addr, timeout=2.0)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise ProtocolError(f"peer {j} at {config.peers[j]} unreachable") from None
                    time.sleep(0.05)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            ch = TcpChannel(sock, config.session)
            opened.append(ch)
            ch.send_bytes(Frame(config.session, 0, OP_SETUP, bytes([i])).encode())
            hello = Frame.decode(ch.recv_bytes(connect_timeout))
            if hello.op != OP_SETUP or hello.payload != bytes([j]):
                raise ProtocolError("bad setup handshake")
            channels[j] = ch
        expect = sorted(p for p in (1, 2, 3) if p > i)
        while expect:
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                raise ProtocolError(f"peers {expect} never connected") from None
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            ch = TcpChannel(sock, config.session)
            opened.append(ch)
            hello = Frame.decode(ch.recv_bytes(connect_timeout))
            if hello.op != OP_SETUP or len(hello.payload) != 1:
                raise ProtocolError("bad setup handshake")
            j = hello.payload[0]
            if j not in expect:
                raise ProtocolError(f"unexpected peer {j} connected")
            ch.send_bytes(Frame(config.session, 0, OP_SETUP, bytes([i])).encode())
            channels[j] = ch
            expect.remove(j)
    except BaseException:
        for ch in opened:
            ch.close()
        raise
    finally:
        listener.close()
    transcript = _new_transcript(config)
    links = {
        j: PeerLink(ch, ch, config.session, transcript) for j, ch in channels.items()
    }
    return PartyRuntime(config, links, transcript, recv_timeout)
