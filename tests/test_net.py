"""Transport layer: framing, round discipline, setup, and both transports."""

import threading
import time

import numpy as np
import pytest

from oblivgm import net, rss
from oblivgm.net import (OP_OPEN, OP_RESHARE, ChannelClosed, Frame, PartyConfig, ProtocolError,
                         QueueChannel, TcpChannel, local_runtimes, make_session_configs,
                         parse_peers, run_trio, tcp_runtime)
from oblivgm.shuffle import MatchTable, sec_shuffle
from tests.conftest import share_bits


def test_frame_round_trip():
    f = Frame(session=3, round=9, op=OP_OPEN, payload=b"hello world")
    assert Frame.decode(f.encode()) == f


def test_frame_decode_errors():
    with pytest.raises(ProtocolError, match="short"):
        Frame.decode(b"OGMF")
    good = Frame(1, 0, OP_OPEN, b"x").encode()
    with pytest.raises(ProtocolError, match="magic"):
        Frame.decode(b"XXXX" + good[4:])
    with pytest.raises(ProtocolError, match="length"):
        Frame.decode(good + b"junk")


def test_setup_validation():
    configs = make_session_configs(b"\x01" * 16)
    configs[1] = PartyConfig(1, configs[1].session, *(b"\x00" * 16,) * 4)
    with pytest.raises(ValueError, match="indices"):
        local_runtimes(configs)


def test_fresh_session_zero_shares_cancel_immediately():
    runtimes = local_runtimes(make_session_configs(b"\x07" * 16))
    outs = run_trio(lambda rt: rt.zero_share(96), runtimes)
    assert not (outs[0] ^ outs[1] ^ outs[2]).any()


def test_round_skew_detected():
    runtimes = local_runtimes(make_session_configs(b"\x02" * 16))

    def worker(rt):
        if rt.index == 1:
            # send two frames; the peer consumes them expecting rounds 0 then 0 again
            rt.send_next(OP_RESHARE, b"a")
            rt.send_next(OP_RESHARE, b"b")
        elif rt.index == 2:
            rt.recv_prev(OP_RESHARE)
            link = rt.links[1]
            link._rx_rounds[OP_RESHARE] = 0  # simulate a desynchronized party
            link.recv(OP_RESHARE, rt.recv_timeout)
        return None

    with pytest.raises(ProtocolError, match="round skew"):
        run_trio(worker, runtimes)


def test_unexpected_op_detected():
    runtimes = local_runtimes(make_session_configs(b"\x03" * 16))

    def worker(rt):
        if rt.index == 1:
            rt.send_next(OP_RESHARE, b"x")
        elif rt.index == 2:
            rt.recv_prev(OP_OPEN)
        return None

    with pytest.raises(ProtocolError, match="expected op"):
        run_trio(worker, runtimes)


def test_failing_party_fails_the_trio_at_once():
    runtimes = local_runtimes(make_session_configs(b"\x08" * 16), recv_timeout=3)

    def worker(rt):
        if rt.index == 2:
            raise RuntimeError("party 2 failed")
        return rt.recv_prev(OP_RESHARE)  # blocks until a peer sends or fails

    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="party 2 failed") as info:
        run_trio(worker, runtimes)
    assert time.perf_counter() - started < 1.0
    assert info.type is RuntimeError  # the party's own error, not a peer's timeout


def test_closed_queue_channel_raises_channel_closed():
    ch = QueueChannel()
    ch.close()
    with pytest.raises(ChannelClosed, match="closed"):
        ch.recv_bytes(1.0)


def test_tcp_bad_magic_fails_before_reading_the_payload():
    import socket

    a, b = socket.socketpair()
    try:
        # the header announces a payload that never comes: only the magic check
        # can fail this read before the timeout
        a.sendall(b"XXXX" + Frame(1, 0, OP_OPEN, b"").encode()[4:-4] + (1 << 20).to_bytes(4, "little"))
        with pytest.raises(ProtocolError, match="magic"):
            TcpChannel(b, session=1).recv_bytes(5.0)
    finally:
        a.close()
        b.close()


def test_tcp_wrong_session_fails_before_reading_the_payload():
    import socket

    a, b = socket.socketpair()
    try:
        # a well-formed header of session 2 announcing a payload that never
        # comes: only the session check can fail this read before the timeout
        a.sendall(Frame(2, 0, OP_OPEN, b"").encode()[:-4] + (1 << 20).to_bytes(4, "little"))
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="session mismatch"):
            TcpChannel(b, session=1).recv_bytes(5.0)
        assert time.monotonic() - started < 1.0
    finally:
        a.close()
        b.close()


def test_tcp_dialer_checks_the_session_of_the_setup_reply():
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def wrong_session_peer():  # accepts the dial like party 1 would, but in session 99
        sock, _ = listener.accept()
        with sock:
            TcpChannel(sock, session=1).recv_bytes(10)
            sock.sendall(Frame(99, 0, net.OP_SETUP, bytes([1])).encode())
            try:
                sock.recv(1)  # hold the socket open until the dialer closes it
            except ConnectionError:
                pass

    peer = threading.Thread(target=wrong_session_peer, daemon=True)
    peer.start()
    try:
        cfg = make_session_configs(b"\x08" * 16)[1]  # party 2 dials party 1
        cfg.bind = "127.0.0.1:0"
        cfg.peers = {1: "127.0.0.1:%d" % listener.getsockname()[1]}
        with pytest.raises(ProtocolError, match="session mismatch"):
            tcp_runtime(cfg, connect_timeout=5)
    finally:
        peer.join(10)
        listener.close()
    assert not peer.is_alive()  # the dialer closed its socket when setup failed


def test_tcp_payload_is_read_in_bounded_chunks():
    frame = Frame(1, 0, OP_RESHARE, bytes(range(256)) * (3 * net._RECV_CHUNK // 256 + 5)).encode()

    class RecordingSocket:
        def __init__(self):
            self.sizes = []
            self.pos = 0

        def settimeout(self, timeout):
            pass

        def recv(self, n):
            self.sizes.append(n)
            chunk = frame[self.pos:self.pos + n]
            self.pos += len(chunk)
            return chunk

    sock = RecordingSocket()
    assert TcpChannel(sock, session=1).recv_bytes(1.0) == frame
    assert max(sock.sizes) == net._RECV_CHUNK
    assert len(sock.sizes) > 3


def test_large_payload_echo_and_order():
    runtimes = local_runtimes(make_session_configs(b"\x04" * 16))
    blob = bytes(range(256)) * 4096  # 1 MiB

    def worker(rt):
        if rt.index == 1:
            rt.send_next(OP_RESHARE, blob)
            for i in range(10_000):
                rt.send_next(OP_OPEN, i.to_bytes(4, "little"))
            return None
        if rt.index == 2:
            got = rt.recv_prev(OP_RESHARE)
            seq = [int.from_bytes(rt.recv_prev(OP_OPEN), "little") for _ in range(10_000)]
            return got == blob, seq == list(range(10_000))
        return None

    results = run_trio(worker, runtimes)
    assert results[1] == (True, True)


def test_parse_peers():
    assert parse_peers("1=127.0.0.1:9001, 2=host:9002") == {
        1: "127.0.0.1:9001", 2: "host:9002"}
    for spec, named in (("4=host:9002", "'4=host:9002'"), ("x=host:9002", "'x=host:9002'"),
                        ("1=host:65536", "'host:65536'"), ("1=host", "'host'"),
                        ("1=host:-1", "'host:-1'")):
        with pytest.raises(ValueError, match=named):
            parse_peers(spec)


def _free_ports(n):
    import socket

    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def _tcp_trio(master: bytes, worker):
    ports = _free_ports(3)
    peers = {i + 1: f"127.0.0.1:{ports[i]}" for i in range(3)}
    base = make_session_configs(master)
    results = [None, None, None]
    errors = [None, None, None]

    def run(i):
        cfg = base[i]
        cfg.bind = peers[i + 1]
        cfg.peers = peers
        rt = None
        try:
            rt = tcp_runtime(cfg, recv_timeout=30, connect_timeout=15)
            results[i] = worker(rt)
        except BaseException as exc:  # noqa: BLE001
            errors[i] = exc
        finally:
            if rt is not None:
                rt.close_links()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e
    return results


def test_tcp_trio_matches_in_process_transcript():
    master = b"\x05" * 16
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 2, (2, 128), dtype=np.uint8)
    sx, sy = share_bits(x, rng), share_bits(y, rng)

    def worker(rt):
        z = rss.and_gate(rt, sx[rt.index - 1], sy[rt.index - 1])
        opened = rss.open_shared(rt, z)  # the runtime's first open label is 1
        return opened, rt.transcript_digest()

    local = run_trio(worker, local_runtimes(make_session_configs(master)))
    remote = _tcp_trio(master, worker)
    assert all(np.array_equal(l[0], x & y) for l in local)
    assert [l[0].tolist() for l in local] == [r[0].tolist() for r in remote]
    assert [l[1] for l in local] == [r[1] for r in remote]  # byte-identical transcripts


def test_full_query_transcript_identical_across_transports():
    from oblivgm.engine import sec_match
    from oblivgm.graphs import encrypt_graph, parse_graph_text
    from oblivgm.query import gen_token, load_query
    from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY

    rng = np.random.default_rng(4)
    graph = parse_graph_text(CAMPUS_GRAPH)
    schema, shares = encrypt_graph(graph, 2, rng)
    tokens = gen_token(load_query(TWO_PERSON_QUERY, schema), schema, rng)
    master = b"\x0a" * 16

    def worker(rt):
        sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])
        return rt.transcript_digest()

    local = run_trio(worker, local_runtimes(make_session_configs(master)))
    remote = _tcp_trio(master, worker)
    assert local == remote


def test_tcp_unreachable_peer():
    base = make_session_configs(b"\x06" * 16)
    cfg = base[2]  # party 3 dials parties 1 and 2
    cfg.bind = "127.0.0.1:0"
    cfg.peers = {1: "127.0.0.1:9", 2: "127.0.0.1:9"}  # discard port, nothing listens
    with pytest.raises(ProtocolError, match="unreachable"):
        tcp_runtime(cfg, connect_timeout=0.3)


def test_meter_counts_each_partys_frames_and_bytes_per_phase():
    rng = np.random.default_rng(21)
    x = share_bits(rng.integers(0, 2, 9), rng)
    rows = [share_bits(rng.integers(0, 2, 7), rng) for _ in range(4)]
    zeros = np.zeros((1, 1), np.uint32)

    def worker(rt):
        with rt.meter.phase("a"):
            rss.reshare_rows(rt, zeros, 9)  # one frame from every party, twice
            rss.reshare_rows(rt, zeros, 9)
        assert rt.meter.current == "(none)"
        with rt.meter.phase("b"):
            sec_shuffle(rt, MatchTable.from_rows([r[rt.index - 1] for r in rows]))
            rss.open_shared(rt, x[rt.index - 1])

    runtimes = local_runtimes(make_session_configs(b"\x23" * 16))
    run_trio(worker, runtimes)
    # the shuffle sends one frame from parties 1 and 3 and two from party 2,
    # then the open one from each
    assert [rt.meter.phases["a"].frames_sent for rt in runtimes] == [2, 2, 2]
    assert [rt.meter.phases["b"].frames_sent for rt in runtimes] == [2, 3, 2]
    assert [rt.meter.total.frames_sent for rt in runtimes] == [4, 5, 4]
    for rt in runtimes:
        a, b = rt.meter.phases["a"], rt.meter.phases["b"]
        assert (a.bytes_sent, a.logical_bits) == (2 * (18 + 4), 18)
        assert rt.meter.total.bytes_sent == a.bytes_sent + b.bytes_sent
        assert a.seconds > 0 and b.seconds > 0


def test_meter_books_sends_outside_a_phase_to_none():
    meter = net.Meter()
    meter.record_send(10, 80)
    with meter.phase("a"):
        meter.record_send(12, 96)
        meter.record_send(12, 96)
    assert {name: (p.bytes_sent, p.frames_sent, p.logical_bits)
            for name, p in meter.phases.items()} == {"(none)": (10, 1, 80), "a": (24, 2, 192)}
    assert (meter.total.bytes_sent, meter.total.frames_sent, meter.total.logical_bits) == \
        (34, 3, 272)
