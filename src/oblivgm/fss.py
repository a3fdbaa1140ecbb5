"""Function secret sharing with output group Z2.

Three primitives, all two-party key pairs whose pointwise XOR of evaluations
equals a plaintext indicator over ``[0, 2^domain_bits)``:

* distributed point function (equality, ``x == alpha``),
* distributed comparison function (strict ``x < alpha``, with the <=, >, >=
  variants obtained by shifting the threshold and XORing a public constant
  into exactly one key of the pair),
* interval containment, built from two comparison keys.

Keys are GGM trees: a 16-byte root seed expanded level by level with the
fixed-key AES PRG from :mod:`oblivgm.prf`, plus one correction word (seed,
two control bits, one value bit) per level. The value bit carries the
comparison function's per-level contribution and stays zero in point keys,
so point and comparison keys serialize to identical sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bits import BitVector
from .prf import SEED_BYTES, prg_expand, seed_to_array

KIND_EQ = "eq"
KIND_LT = "lt"
KIND_LE = "le"
KIND_GT = "gt"
KIND_GE = "ge"
KIND_INTERVAL = "iv"

COMPARISON_KINDS = (KIND_LT, KIND_LE, KIND_GT, KIND_GE)
PREDICATE_KINDS = (KIND_EQ,) + COMPARISON_KINDS + (KIND_INTERVAL,)

_TAG_DPF = 1
_TAG_DCF = 2
_TAG_INTERVAL = 3


class DomainError(ValueError):
    """Evaluation point or threshold outside the key's domain."""


def domain_bits_for(domain_size: int) -> int:
    """Tree depth for a public domain of ``domain_size`` values (next power of two)."""
    if domain_size < 1:
        raise DomainError("domain size must be positive")
    return max(1, (domain_size - 1).bit_length())


@dataclass(frozen=True, eq=False)
class DpfKey:
    """One party's point-function key."""

    domain_bits: int
    root_seed: bytes
    root_t: int
    seed_cw: np.ndarray  # (levels, 2) uint64
    ctrl_cw: np.ndarray  # (levels,) uint8: bit0 tau_left, bit1 tau_right, bit2 value
    final_cw: int
    add_const: int = 0


@dataclass(frozen=True, eq=False)
class DcfKey(DpfKey):
    """One party's comparison key (x < threshold); value bits are live."""


@dataclass(frozen=True, eq=False)
class IntervalKey:
    """Containment key: XOR of two comparison keys covers [lo, hi]."""

    lower: DcfKey
    upper: DcfKey
    closed_low: bool = True
    closed_high: bool = True

    @property
    def domain_bits(self) -> int:
        return self.lower.domain_bits


FssKey = DpfKey | DcfKey | IntervalKey


# ---------------------------------------------------------------------------
# key generation
# ---------------------------------------------------------------------------


def _tree_gen(alpha: int, bits: int, rng: np.random.Generator, comparison: bool):
    root0 = rng.bytes(SEED_BYTES)
    root1 = rng.bytes(SEED_BYTES)
    seeds = np.stack([seed_to_array(root0), seed_to_array(root1)])
    t = np.array([0, 1], dtype=np.uint8)
    seed_cw = np.zeros((bits, 2), dtype=np.uint64)
    ctrl_cw = np.zeros(bits, dtype=np.uint8)

    for lvl in range(bits):
        a = (alpha >> (bits - 1 - lvl)) & 1
        left, right, t_left, t_right, value = prg_expand(seeds)
        v_cw = int(value[0] ^ value[1]) ^ (a if comparison else 0)
        keep_seed, keep_t = (left, t_left) if a == 0 else (right, t_right)
        lose_seed = right if a == 0 else left
        s_cw = lose_seed[0] ^ lose_seed[1]
        tau_l = int(t_left[0] ^ t_left[1]) ^ a ^ 1
        tau_r = int(t_right[0] ^ t_right[1]) ^ a
        seed_cw[lvl] = s_cw
        ctrl_cw[lvl] = tau_l | (tau_r << 1) | (v_cw << 2)
        tau_keep = tau_l if a == 0 else tau_r
        # parties with control bit 1 fold in the corrections before descending
        mask = t.astype(np.uint64)[:, None]
        seeds = keep_seed ^ (s_cw[None, :] * mask)
        t = keep_t ^ (t & tau_keep)

    if comparison:
        final_cw = 0
    else:
        final_cw = int((seeds[0, 0] ^ seeds[1, 0]) & np.uint64(1)) ^ 1  # beta = 1

    def build(cls, root, root_t):
        return cls(
            domain_bits=bits,
            root_seed=root,
            root_t=root_t,
            seed_cw=seed_cw,
            ctrl_cw=ctrl_cw,
            final_cw=final_cw,
        )

    cls = DcfKey if comparison else DpfKey
    return build(cls, root0, 0), build(cls, root1, 1)


def dpf_gen(alpha: int, domain_size: int, rng: np.random.Generator):
    """Keys for the equality indicator at ``alpha`` (output 1 in Z2)."""
    if not 0 <= alpha < domain_size:
        raise DomainError(f"alpha {alpha} outside domain of size {domain_size}")
    return _tree_gen(alpha, domain_bits_for(domain_size), rng, comparison=False)


def dcf_gen(alpha: int, domain_size: int, rng: np.random.Generator):
    """Keys for the strict comparison indicator ``x < alpha``."""
    if not 0 <= alpha < domain_size:
        raise DomainError(f"alpha {alpha} outside domain of size {domain_size}")
    return _tree_gen(alpha, domain_bits_for(domain_size), rng, comparison=True)


def _with_const(key: DcfKey, const: int) -> DcfKey:
    if const == 0:
        return key
    return DcfKey(
        domain_bits=key.domain_bits,
        root_seed=key.root_seed,
        root_t=key.root_t,
        seed_cw=key.seed_cw,
        ctrl_cw=key.ctrl_cw,
        final_cw=key.final_cw,
        add_const=key.add_const ^ const,
    )


def cmp_gen(kind: str, alpha: int, domain_size: int, rng: np.random.Generator):
    """Comparison keys for any of <, <=, >, >= against ``alpha``.

    All four reduce to a strict less-than tree plus, for the complement
    variants, a public constant folded into the first key of the pair.
    """
    if kind not in COMPARISON_KINDS:
        raise ValueError(f"not a comparison kind: {kind!r}")
    if not 0 <= alpha < domain_size:
        raise DomainError(f"alpha {alpha} outside domain of size {domain_size}")
    bits = domain_bits_for(domain_size)
    full = 1 << bits
    if kind == KIND_LT:
        threshold, const = alpha, 0
    elif kind == KIND_GE:
        threshold, const = alpha, 1
    elif kind == KIND_LE:
        # x <= alpha  ==  x < alpha+1; threshold full means "always true"
        threshold, const = (0, 1) if alpha + 1 == full else (alpha + 1, 0)
    else:  # KIND_GT: complement of x <= alpha
        threshold, const = (0, 0) if alpha + 1 == full else (alpha + 1, 1)
    k1, k2 = _tree_gen(threshold, bits, rng, comparison=True)
    return _with_const(k1, const), k2


def ic_gen(low: int, high: int, domain_size: int, rng: np.random.Generator,
           closed_low: bool = True, closed_high: bool = True):
    """Interval keys; the default variant is the closed interval [low, high]."""
    if low > high:
        raise DomainError(f"empty interval bounds: {low} > {high}")
    if not (0 <= low < domain_size and 0 <= high < domain_size):
        raise DomainError("interval bounds outside domain")
    bits = domain_bits_for(domain_size)
    full = 1 << bits
    lo_t = low + (0 if closed_low else 1)
    hi_t = high + (1 if closed_high else 0)
    const = 0
    if lo_t >= hi_t:  # statically empty open interval
        lo_t = hi_t = 0
    if hi_t == full:  # upper bound covers the whole domain: complement the lower part
        hi_t = 0
        const = 1
    low1, low2 = _tree_gen(lo_t, bits, rng, comparison=True)
    up1, up2 = _tree_gen(hi_t, bits, rng, comparison=True)
    up1 = _with_const(up1, const)
    mk = lambda lo, up: IntervalKey(lo, up, closed_low, closed_high)  # noqa: E731
    return mk(low1, up1), mk(low2, up2)


def key_pair_gen(kind: str, operands: tuple[int, ...], domain_size: int,
                 rng: np.random.Generator, closed: tuple[bool, bool] = (True, True)):
    """One key pair for a predicate; ``closed`` picks an interval's open or closed bounds."""
    if kind == KIND_EQ:
        return dpf_gen(operands[0], domain_size, rng)
    if kind in COMPARISON_KINDS:
        return cmp_gen(kind, operands[0], domain_size, rng)
    if kind == KIND_INTERVAL:
        return ic_gen(operands[0], operands[1], domain_size, rng, *closed)
    raise ValueError(f"unknown predicate kind {kind!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _walk_eval(key: DpfKey, x: int) -> int:
    bits = key.domain_bits
    if not 0 <= x < (1 << bits):
        raise DomainError(f"point {x} outside 2^{bits} domain")
    comparison = isinstance(key, DcfKey)
    seeds = seed_to_array(key.root_seed)[None, :]
    t = int(key.root_t)
    acc = 0
    for lvl in range(bits):
        left, right, t_left, t_right, value = prg_expand(seeds)
        xb = (x >> (bits - 1 - lvl)) & 1
        if comparison and xb == 0:
            acc ^= int(value[0]) ^ (t & ((key.ctrl_cw[lvl] >> 2) & 1))
        branch_seed = left if xb == 0 else right
        branch_t = int(t_left[0] if xb == 0 else t_right[0])
        if t:
            branch_seed = branch_seed ^ key.seed_cw[lvl][None, :]
            branch_t ^= (key.ctrl_cw[lvl] >> xb) & 1
        seeds = branch_seed
        t = int(branch_t) & 1
    if comparison:
        out = acc
    else:
        out = int(seeds[0, 0] & np.uint64(1)) ^ (t & key.final_cw)
    return (out ^ key.add_const) & 1


def dpf_eval(key: DpfKey, x: int) -> int:
    return _walk_eval(key, x)


def _full_domain_trees(keys: list[DpfKey], n: int) -> np.ndarray:
    """Evaluate tree keys of one depth at every point of ``[0, n)``, all in step.

    The trees descend together, one :func:`prg_expand` per level for all of
    their nodes; a tree's nodes stay consecutive. Row ``i`` of the returned
    ``(len(keys), n)`` uint8 array is key ``i``'s evaluation.
    """
    bits = keys[0].domain_bits
    if n > (1 << bits):
        raise DomainError(f"requested {n} points from a 2^{bits} domain")
    seeds = np.stack([seed_to_array(k.root_seed) for k in keys])
    t = np.array([k.root_t for k in keys], dtype=np.uint8)
    seed_cw = np.stack([k.seed_cw for k in keys])  # (trees, levels, 2)
    ctrl_cw = np.stack([k.ctrl_cw for k in keys])  # (trees, levels)
    acc = np.zeros(len(keys), dtype=np.uint8)  # comparison keys' running value bit
    for lvl in range(bits):
        left, right, t_left, t_right, value = prg_expand(seeds)
        nodes = 1 << lvl  # per tree
        # nodes with control bit 1 fold in their tree's correction word
        cw = np.repeat(seed_cw[:, lvl], nodes, axis=0) * t.astype(np.uint64)[:, None]
        ctrl = np.repeat(ctrl_cw[:, lvl], nodes) * t
        seeds = np.stack([left ^ cw, right ^ cw], axis=1).reshape(-1, 2)
        t = np.stack([t_left ^ (ctrl & 1), t_right ^ ((ctrl >> 1) & 1)], axis=1).ravel()
        acc = np.stack([acc ^ value ^ ((ctrl >> 2) & 1), acc], axis=1).ravel()
    leaves = 1 << bits
    comparison = np.repeat([isinstance(k, DcfKey) for k in keys], leaves)
    final_cw = np.repeat(np.array([k.final_cw for k in keys], dtype=np.uint8), leaves)
    point = (seeds[:, 0] & np.uint64(1)).astype(np.uint8) ^ (t & final_cw)
    out = np.where(comparison, acc, point).reshape(len(keys), leaves)[:, :n]
    return out ^ np.array([k.add_const for k in keys], dtype=np.uint8)[:, None]


def full_domain_eval(key: FssKey, n: int, *, more=None):
    """Evaluate at every point of ``[0, n)`` in one tree traversal.

    ``more`` lists further ``(key, n)`` pairs to evaluate in the same
    traversal, and the list of every evaluation comes back; without it the
    one evaluation comes back. Trees of one depth, the two comparison halves
    of an interval key among them, descend together, one PRG call per level.
    """
    jobs = [(key, n)] + list(more or ())
    trees = [(j, tree, m) for j, (k, m) in enumerate(jobs)
             for tree in ((k.lower, k.upper) if isinstance(k, IntervalKey) else (k,))]
    out = [np.zeros(m, dtype=np.uint8) for _, m in jobs]
    for depth in sorted({tree.domain_bits for _, tree, _ in trees}):
        group = [(j, tree, m) for j, tree, m in trees if tree.domain_bits == depth]
        evals = _full_domain_trees([tree for _, tree, _ in group], max(m for *_, m in group))
        for (j, _, m), row in zip(group, evals):
            out[j] ^= row[:m]  # an interval key: the XOR of its two halves
    vectors = [BitVector.from_bits(bits) for bits in out]
    return vectors if more is not None else vectors[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CMP_HEADER = struct.Struct("<BBBB")  # tag, domain_bits, add_const, root_t


def _serialize_tree_key(key: DpfKey) -> bytes:
    tag = _TAG_DCF if isinstance(key, DcfKey) else _TAG_DPF
    out = bytearray(_CMP_HEADER.pack(tag, key.domain_bits, key.add_const, key.root_t))
    out += key.root_seed
    for lvl in range(key.domain_bits):
        out += key.seed_cw[lvl].tobytes()
        out.append(int(key.ctrl_cw[lvl]))
    out.append(key.final_cw)
    return bytes(out)


def serialize_key(key: FssKey) -> bytes:
    if isinstance(key, IntervalKey):
        flags = (1 if key.closed_low else 0) | (2 if key.closed_high else 0)
        lo = _serialize_tree_key(key.lower)
        up = _serialize_tree_key(key.upper)
        head = struct.pack("<BBBB", _TAG_INTERVAL, key.domain_bits, flags, 0)
        return head + struct.pack("<I", len(lo)) + lo + struct.pack("<I", len(up)) + up
    return _serialize_tree_key(key)


def _parse_tree_key(buf: bytes, offset: int = 0):
    tag, bits, add_const, root_t = _CMP_HEADER.unpack_from(buf, offset)
    if tag not in (_TAG_DPF, _TAG_DCF):
        raise ValueError(f"bad key tag {tag}")
    pos = offset + _CMP_HEADER.size
    root_seed = bytes(buf[pos:pos + SEED_BYTES])
    if len(root_seed) != SEED_BYTES:
        raise ValueError("truncated key")
    pos += SEED_BYTES
    seed_cw = np.zeros((bits, 2), dtype=np.uint64)
    ctrl_cw = np.zeros(bits, dtype=np.uint8)
    for lvl in range(bits):
        chunk = buf[pos:pos + SEED_BYTES + 1]
        if len(chunk) != SEED_BYTES + 1:
            raise ValueError("truncated key")
        seed_cw[lvl] = np.frombuffer(chunk[:SEED_BYTES], dtype=np.uint64)
        ctrl_cw[lvl] = chunk[SEED_BYTES]
        pos += SEED_BYTES + 1
    if pos + 1 > len(buf):
        raise ValueError("truncated key")
    final_cw = buf[pos]
    pos += 1
    cls = DcfKey if tag == _TAG_DCF else DpfKey
    key = cls(
        domain_bits=bits,
        root_seed=root_seed,
        root_t=root_t,
        seed_cw=seed_cw,
        ctrl_cw=ctrl_cw,
        final_cw=final_cw,
        add_const=add_const,
    )
    return key, pos


def parse_key(buf: bytes) -> FssKey:
    if not buf:
        raise ValueError("empty key buffer")
    if buf[0] == _TAG_INTERVAL:
        _, bits, flags, _ = struct.unpack_from("<BBBB", buf, 0)
        pos = 4
        (lo_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        lower, end = _parse_tree_key(buf, pos)
        if end - pos != lo_len:
            raise ValueError("interval sub-key length mismatch")
        pos = end
        (up_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        upper, end = _parse_tree_key(buf, pos)
        if end - pos != up_len or end != len(buf):
            raise ValueError("interval sub-key length mismatch")
        if not isinstance(lower, DcfKey) or not isinstance(upper, DcfKey):
            raise ValueError("interval sub-keys must be comparison keys")
        if lower.domain_bits != bits or upper.domain_bits != bits:
            raise ValueError("interval sub-key domain mismatch")
        return IntervalKey(lower, upper, bool(flags & 1), bool(flags & 2))
    key, end = _parse_tree_key(buf, 0)
    if end != len(buf):
        raise ValueError("trailing bytes after key")
    return key
