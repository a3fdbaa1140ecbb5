"""Replicated secret sharing basics: share, reconstruct, XOR, AND, zero-shares.

Every secret here is a bit string. Splitting gives three shares that XOR back
to the secret; each party holds two of them, so any two parties can
reconstruct but one alone sees uniform noise. XOR of shared values is free;
AND costs one round in which each party sends one blinded bit per position
to its neighbor.
"""

import numpy as np

from oblivgm.bits import pack_bits, unpack_bits
from oblivgm import rss
from oblivgm.net import run_local_trio

rng = np.random.default_rng(2024)


def show(words, nbits=8):
    """A packed row's bits as a string of 0s and 1s."""
    return "".join(map(str, unpack_bits(words, nbits).ravel()))


x = np.array([1, 0, 1, 1, 0, 0, 1, 0], np.uint8)
y = np.array([1, 1, 0, 1, 0, 1, 0, 0], np.uint8)
print(f"x            = {show(pack_bits(x))}")
print(f"y            = {show(pack_bits(y))}")

# one row of 8 bits, split into the three parties' tables
sx = rss.share_rows(pack_bits(x)[None], len(x), rng)
sy = rss.share_rows(pack_bits(y)[None], len(y), rng)
pair = (show(m) for m in (sx[0].share_a, sx[0].share_b))
print(f"party 1 pair = ({', '.join(pair)})   <- looks uniform")
print(f"reconstruct  = {show(rss.reconstruct_rows(sx))}")
print(f"x XOR y      = {show(rss.reconstruct_rows([a.xor(b) for a, b in zip(sx, sy)]))}"
      "  (local only)")


def and_worker(rt):
    z = rss.and_gate(rt, sx[rt.index - 1], sy[rt.index - 1])
    sent = rt.meter.total.logical_bits
    return z, sent


results = run_local_trio(and_worker)
z_shares = [r[0] for r in results]
print(f"x AND y      = {show(rss.reconstruct_rows(z_shares))}  "
      f"(each party sent {results[0][1]} bits, one per position)")

# The blinding inside AND uses fresh sharings of zero, generated without any
# communication from pairwise PRF keys; they always cancel out:
zeros = [rt_out for rt_out in run_local_trio(lambda rt: rt.zero_share(16))]
print(f"zero-shares XOR to {show(zeros[0] ^ zeros[1] ^ zeros[2], 16)}")
