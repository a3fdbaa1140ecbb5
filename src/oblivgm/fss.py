"""Function secret sharing with output group Z2.

Three primitives, all two-party key pairs whose pointwise XOR of evaluations
equals a plaintext indicator over ``[0, 2^domain_bits)``, and all drawn by
:func:`key_pair_gen` from a predicate's kind, operands and domain size:

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

A key's record holds its fields only: ``root_t``, ``add_const`` and the
root seed, then ``(seed_cw, ctrl_cw)`` per level, then ``final_cw``; an
interval key is its two halves. The public predicate kind and domain fix
the key's class and depth, so the record stores neither, nor its length.
"""

from __future__ import annotations

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

    @property
    def domain_bits(self) -> int:
        return self.lower.domain_bits


FssKey = DpfKey | DcfKey | IntervalKey


# ---------------------------------------------------------------------------
# key generation
# ---------------------------------------------------------------------------


def _trees_gen(bits: int, trees: list[tuple[int, bool, int]], roots: np.ndarray):
    """Key pairs of trees of depth ``bits``, all descending together.

    ``trees`` holds per tree its threshold, whether it is a comparison tree,
    and the public constant of its first key; ``roots`` is the ``(trees,
    party, 2)`` uint64 array of their root seeds. One :func:`prg_expand` per
    level serves every tree.
    """
    n = len(trees)
    alpha = np.array([a for a, _, _ in trees], dtype=np.int64)
    comparison = np.array([c for _, c, _ in trees], dtype=np.uint8)
    seeds = roots
    t = np.tile(np.array([0, 1], dtype=np.uint8), (n, 1))
    seed_cw = np.zeros((n, bits, 2), dtype=np.uint64)
    ctrl_cw = np.zeros((n, bits), dtype=np.uint8)

    for lvl in range(bits):
        a = ((alpha >> (bits - 1 - lvl)) & 1).astype(np.uint8)
        left, right, t_left, t_right, value = prg_expand(seeds.reshape(-1, 2))
        left, right = left.reshape(n, 2, 2), right.reshape(n, 2, 2)
        t_left, t_right, value = t_left.reshape(n, 2), t_right.reshape(n, 2), value.reshape(n, 2)
        right_kept = a.astype(bool)
        keep_seed = np.where(right_kept[:, None, None], right, left)
        keep_t = np.where(right_kept[:, None], t_right, t_left)
        lose_seed = np.where(right_kept[:, None, None], left, right)
        s_cw = lose_seed[:, 0] ^ lose_seed[:, 1]
        v_cw = value[:, 0] ^ value[:, 1] ^ (a & comparison)
        tau_l = t_left[:, 0] ^ t_left[:, 1] ^ a ^ 1
        tau_r = t_right[:, 0] ^ t_right[:, 1] ^ a
        seed_cw[:, lvl] = s_cw
        ctrl_cw[:, lvl] = tau_l | (tau_r << 1) | (v_cw << 2)
        tau_keep = np.where(right_kept, tau_r, tau_l)
        # parties with control bit 1 fold in the corrections before descending
        seeds = keep_seed ^ (s_cw[:, None, :] * t.astype(np.uint64)[:, :, None])
        t = keep_t ^ (t & tau_keep[:, None])

    point_cw = ((seeds[:, 0, 0] ^ seeds[:, 1, 0]) & np.uint64(1)) ^ np.uint64(1)  # beta = 1
    pairs = []
    for i, (_, is_comparison, const) in enumerate(trees):
        cls = DcfKey if is_comparison else DpfKey
        final_cw = 0 if is_comparison else int(point_cw[i])
        pairs.append(tuple(
            cls(domain_bits=bits, root_seed=roots[i, p].tobytes(), root_t=p,
                seed_cw=seed_cw[i], ctrl_cw=ctrl_cw[i], final_cw=final_cw,
                add_const=const if p == 0 else 0)
            for p in (0, 1)))
    return pairs


def _tree_plan(kind: str, operands: tuple[int, ...], domain_size: int,
               closed: tuple[bool, bool]) -> list[tuple[int, bool, int]]:
    """The trees of one key pair: threshold, comparison or not, and first key's constant.

    A point key is one point tree at ``alpha``. Each comparison is a strict
    less-than tree plus, for the complement variants, a public constant
    folded into the first key of the pair. An interval is a lower and an
    upper comparison tree; ``closed`` picks its open or closed bounds.
    """
    if kind == KIND_INTERVAL:
        low, high = operands
        if low > high:
            raise DomainError(f"empty interval bounds: {low} > {high}")
        if not (0 <= low < domain_size and 0 <= high < domain_size):
            raise DomainError("interval bounds outside domain")
    elif kind == KIND_EQ or kind in COMPARISON_KINDS:
        alpha = operands[0]
        if not 0 <= alpha < domain_size:
            raise DomainError(f"alpha {alpha} outside domain of size {domain_size}")
    else:
        raise ValueError(f"unknown predicate kind {kind!r}")
    full = 1 << domain_bits_for(domain_size)
    if kind == KIND_EQ:
        return [(alpha, False, 0)]
    if kind == KIND_LT:
        return [(alpha, True, 0)]
    if kind == KIND_GE:
        return [(alpha, True, 1)]
    if kind == KIND_LE:
        # x <= alpha  ==  x < alpha+1; threshold full means "always true"
        return [(0, True, 1) if alpha + 1 == full else (alpha + 1, True, 0)]
    if kind == KIND_GT:  # complement of x <= alpha
        return [(0, True, 0) if alpha + 1 == full else (alpha + 1, True, 1)]
    lo_t = low + (0 if closed[0] else 1)
    hi_t = high + (1 if closed[1] else 0)
    const = 0
    if lo_t >= hi_t:  # statically empty open interval
        lo_t = hi_t = 0
    if hi_t == full:  # upper bound covers the whole domain: complement the lower part
        hi_t = 0
        const = 1
    return [(lo_t, True, 0), (hi_t, True, const)]


def key_pairs_gen(preds, rng: np.random.Generator) -> list[tuple[FssKey, FssKey]]:
    """One key pair per ``(kind, operands, domain_size, closed)`` of ``preds``.

    Every tree's two root seeds are drawn first, tree by tree in ``preds``
    order (an interval's lower tree before its upper one), the order in which
    one :func:`key_pair_gen` call per predicate draws them. Then the trees of
    one depth descend together, one :func:`prg_expand` per level.
    """
    plans = [_tree_plan(*pred) for pred in preds]
    trees = [(domain_bits_for(pred[2]), tree) for pred, plan in zip(preds, plans) for tree in plan]
    # Generator.bytes draws 32-bit words in sequence, so one call gives the
    # bytes of one call per 16-byte root seed
    roots = np.frombuffer(rng.bytes(2 * SEED_BYTES * len(trees)), dtype=np.uint64).reshape(-1, 2, 2)
    pairs: list = [None] * len(trees)
    for bits in sorted({bits for bits, _ in trees}):
        group = [i for i, (b, _) in enumerate(trees) if b == bits]
        for i, pair in zip(group, _trees_gen(bits, [trees[i][1] for i in group], roots[group])):
            pairs[i] = pair
    made = iter(pairs)
    out = []
    for kind, *_ in preds:
        if kind == KIND_INTERVAL:
            (low1, low2), (up1, up2) = next(made), next(made)
            out.append((IntervalKey(low1, up1), IntervalKey(low2, up2)))
        else:
            out.append(next(made))
    return out


def key_pair_gen(kind: str, operands: tuple[int, ...], domain_size: int,
                 rng: np.random.Generator, closed: tuple[bool, bool] = (True, True)):
    """One key pair for a predicate; ``closed`` picks an interval's open or closed bounds."""
    return key_pairs_gen([(kind, operands, domain_size, closed)], rng)[0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_point(key: DpfKey, x: int) -> int:
    """One point's evaluation of a point or comparison key, by one walk down its tree."""
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

_LEVEL = np.dtype([("seed_cw", "<u8", 2), ("ctrl_cw", "u1")])  # one level's 17 bytes


def key_bytes(kind: str, domain_bits: int) -> int:
    """Size of the record of a ``kind`` key of depth ``domain_bits``."""
    tree = 3 + SEED_BYTES + domain_bits * _LEVEL.itemsize
    return 2 * tree if kind == KIND_INTERVAL else tree


def serialize_key(key: FssKey) -> bytes:
    if isinstance(key, IntervalKey):
        return serialize_key(key.lower) + serialize_key(key.upper)
    levels = np.empty(key.domain_bits, _LEVEL)
    levels["seed_cw"], levels["ctrl_cw"] = key.seed_cw, key.ctrl_cw
    return (bytes([key.root_t, key.add_const]) + key.root_seed + levels.tobytes()
            + bytes([key.final_cw]))


def parse_key(kind: str, domain_bits: int, blob: bytes) -> FssKey:
    """Read the record of a ``kind`` key of depth ``domain_bits``."""
    if len(blob) != key_bytes(kind, domain_bits):
        raise ValueError(f"{len(blob)} bytes for a {kind} key of depth {domain_bits}, "
                         f"not {key_bytes(kind, domain_bits)}")
    if kind == KIND_INTERVAL:
        half = len(blob) // 2
        return IntervalKey(parse_key(KIND_LT, domain_bits, blob[:half]),
                           parse_key(KIND_LT, domain_bits, blob[half:]))
    levels = np.frombuffer(blob, _LEVEL, domain_bits, offset=2 + SEED_BYTES)
    return (DpfKey if kind == KIND_EQ else DcfKey)(
        domain_bits=domain_bits,
        root_seed=bytes(blob[2:2 + SEED_BYTES]),
        root_t=blob[0],
        seed_cw=levels["seed_cw"].astype(np.uint64),
        ctrl_cw=levels["ctrl_cw"].copy(),
        final_cw=blob[-1],
        add_const=blob[1],
    )
