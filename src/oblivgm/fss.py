"""Function secret sharing with output group Z2.

A key pair's two keys XOR, point by point, to a plaintext indicator over
``[0, 2^domain_bits)``; :func:`key_pair_gen` draws one from a predicate's
kind, operands and domain size. A key is the tuple of its GGM trees and
evaluates to their XOR: equality is one point tree (``x == alpha``), a
comparison one comparison tree (``x < threshold``, with the <=, >, >=
variants obtained by shifting the threshold and XORing a public constant
into exactly one key of the pair), and an interval ``[low, high]`` the
comparison trees ``x < low`` and ``x < high + 1``, which cancel when
``low == high + 1``, the empty interval. A threshold of ``2^depth`` is drawn
as the complement of ``x < 0``, and a key's whole constant sits on its last
tree.

A tree is a 16-byte root seed expanded level by level with the fixed-key
AES PRG from :mod:`oblivgm.prf`, plus one correction word (seed, two control
bits, one value bit) per level. The value bit carries the comparison tree's
per-level contribution and stays zero in point trees, so both serialize to
identical sizes.

A tree's record holds its fields only: ``root_t``, ``add_const`` and the
root seed, then ``(seed_cw, ctrl_cw)`` per level, then ``final_cw``; a key's
record is its trees' records in order. The public predicate kind and domain
fix the number, type and depth of a key's trees, so the record stores none
of them, nor its length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prf import SEED_BYTES, prg_expand, seed_to_array

KIND_EQ = "eq"
KIND_LT = "lt"
KIND_LE = "le"
KIND_GT = "gt"
KIND_GE = "ge"
KIND_INTERVAL = "iv"

COMPARISON_KINDS = (KIND_LT, KIND_LE, KIND_GT, KIND_GE)
PREDICATE_KINDS = (KIND_EQ,) + COMPARISON_KINDS + (KIND_INTERVAL,)

# per single-operand kind, the threshold's offset from alpha and the first key's
# constant: x <= a is x < a + 1, and > and >= are the complements of <= and <
_THRESHOLD = {KIND_EQ: (0, 0), KIND_LT: (0, 0), KIND_GE: (0, 1), KIND_LE: (1, 0), KIND_GT: (1, 1)}


class DomainError(ValueError):
    """Evaluation point or threshold outside the key's domain."""


def domain_bits_for(domain_size: int) -> int:
    """Tree depth for a public domain of ``domain_size`` values (next power of two)."""
    if domain_size < 1:
        raise DomainError("domain size must be positive")
    return max(1, (domain_size - 1).bit_length())


@dataclass(frozen=True, eq=False)
class Tree:
    """One party's GGM tree; a comparison tree's value bits are live."""

    comparison: bool
    root_seed: bytes
    root_t: int
    seed_cw: np.ndarray  # (levels, 2) uint64
    ctrl_cw: np.ndarray  # (levels,) uint8: bit0 tau_left, bit1 tau_right, bit2 value
    final_cw: int
    add_const: int = 0

    @property
    def domain_bits(self) -> int:
        return len(self.ctrl_cw)


FssKey = tuple[Tree, ...]


# ---------------------------------------------------------------------------
# key generation
# ---------------------------------------------------------------------------


def _trees_gen(bits: int, trees: list[tuple[int, bool, int]], roots: np.ndarray):
    """Pairs of trees of depth ``bits``, all descending together.

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
    return [tuple(Tree(comparison=is_comparison, root_seed=roots[i, p].tobytes(), root_t=p,
                       seed_cw=seed_cw[i], ctrl_cw=ctrl_cw[i],
                       final_cw=0 if is_comparison else int(point_cw[i]),
                       add_const=const if p == 0 else 0)
                  for p in (0, 1))
            for i, (_, is_comparison, const) in enumerate(trees)]


def _tree_plan(kind: str, operands: tuple[int, ...], domain_size: int) -> list[tuple[int, int]]:
    """The trees of one key pair: each one's threshold and its first key's constant."""
    if kind == KIND_INTERVAL:
        low, high = operands
        if not 0 <= low <= high + 1 <= domain_size:
            raise DomainError(f"interval [{low}, {high}] is crossed or outside "
                              f"the domain of size {domain_size}")
        plan = [(low, 0), (high + 1, 0)]
    elif kind in _THRESHOLD:
        (alpha,) = operands
        if not 0 <= alpha < domain_size:
            raise DomainError(f"alpha {alpha} outside domain of size {domain_size}")
        offset, const = _THRESHOLD[kind]
        plan = [(alpha + offset, const)]
    else:
        raise ValueError(f"unknown predicate kind {kind!r}")
    # x < 2^depth is the complement of x < 0. Only the XOR of a key's constants
    # counts, so all of it goes on the last tree: a record's constant bytes then
    # never tell an empty interval at the top of the domain from another one.
    full = 1 << domain_bits_for(domain_size)
    constant = sum(const + (threshold == full) for threshold, const in plan) % 2
    return [(threshold % full, 0) for threshold, _ in plan[:-1]] + [(plan[-1][0] % full, constant)]


def key_pairs_gen(preds, rng: np.random.Generator) -> list[tuple[FssKey, FssKey]]:
    """One key pair per ``(kind, operands, domain_size)`` of ``preds``.

    Every tree's two root seeds are drawn first, tree by tree in ``preds``
    order (an interval's lower tree before its upper one), the order in which
    one :func:`key_pair_gen` call per predicate draws them. Then the trees of
    one depth descend together, one :func:`prg_expand` per level.
    """
    plans = [_tree_plan(*pred) for pred in preds]
    trees = [(domain_bits_for(n), (threshold, kind != KIND_EQ, const))
             for (kind, _, n), plan in zip(preds, plans) for threshold, const in plan]
    # Generator.bytes draws 32-bit words in sequence, so one call gives the
    # bytes of one call per 16-byte root seed
    roots = np.frombuffer(rng.bytes(2 * SEED_BYTES * len(trees)), dtype=np.uint64).reshape(-1, 2, 2)
    pairs: list = [None] * len(trees)
    for bits in sorted({bits for bits, _ in trees}):
        group = [i for i, (b, _) in enumerate(trees) if b == bits]
        for i, pair in zip(group, _trees_gen(bits, [trees[i][1] for i in group], roots[group])):
            pairs[i] = pair
    made = iter(pairs)
    return [tuple(zip(*(next(made) for _ in plan))) for plan in plans]


def key_pair_gen(kind: str, operands: tuple[int, ...], domain_size: int,
                 rng: np.random.Generator) -> tuple[FssKey, FssKey]:
    """One key pair for a predicate."""
    return key_pairs_gen([(kind, operands, domain_size)], rng)[0]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _full_domain_trees(trees: list[Tree], n: int) -> np.ndarray:
    """Evaluate trees of one depth at every point of ``[0, n)``, all in step.

    The trees descend together, one :func:`prg_expand` per level for all of
    their nodes; a tree's nodes stay consecutive. Row ``i`` of the returned
    ``(len(trees), n)`` uint8 array is tree ``i``'s evaluation.
    """
    bits = trees[0].domain_bits
    if n > (1 << bits):
        raise DomainError(f"requested {n} points from a 2^{bits} domain")
    seeds = np.stack([seed_to_array(k.root_seed) for k in trees])
    t = np.array([k.root_t for k in trees], dtype=np.uint8)
    seed_cw = np.stack([k.seed_cw for k in trees])  # (trees, levels, 2)
    ctrl_cw = np.stack([k.ctrl_cw for k in trees])  # (trees, levels)
    acc = np.zeros(len(trees), dtype=np.uint8)  # comparison trees' running value bit
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
    comparison = np.repeat([k.comparison for k in trees], leaves)
    final_cw = np.repeat(np.array([k.final_cw for k in trees], dtype=np.uint8), leaves)
    point = (seeds[:, 0] & np.uint64(1)).astype(np.uint8) ^ (t & final_cw)
    out = np.where(comparison, acc, point).reshape(len(trees), leaves)[:, :n]
    return out ^ np.array([k.add_const for k in trees], dtype=np.uint8)[:, None]


def full_domain_eval(key: FssKey, n: int, *, more=None):
    """Evaluate at every point of ``[0, n)`` in one tree traversal, as a ``uint8`` 0/1 array.

    ``more`` lists further ``(key, n)`` pairs to evaluate in the same
    traversal, and the list of every evaluation comes back; without it the
    one evaluation comes back. The trees of one depth, of every key, descend
    together, one PRG call per level.
    """
    jobs = [(key, n)] + list(more or ())
    trees = [(j, tree, m) for j, (k, m) in enumerate(jobs) for tree in k]
    out = [np.zeros(m, dtype=np.uint8) for _, m in jobs]
    for depth in sorted({tree.domain_bits for _, tree, _ in trees}):
        group = [(j, tree, m) for j, tree, m in trees if tree.domain_bits == depth]
        evals = _full_domain_trees([tree for _, tree, _ in group], max(m for *_, m in group))
        for (j, _, m), row in zip(group, evals):
            out[j] ^= row[:m]  # a key is the XOR of its trees
    return out if more is not None else out[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_LEVEL = np.dtype([("seed_cw", "<u8", 2), ("ctrl_cw", "u1")])  # one level's 17 bytes


def key_bytes(kind: str, domain_bits: int) -> int:
    """Size of the record of a ``kind`` key of depth ``domain_bits``."""
    trees = 2 if kind == KIND_INTERVAL else 1
    return trees * (3 + SEED_BYTES + domain_bits * _LEVEL.itemsize)


def serialize_key(key: FssKey) -> bytes:
    records = []
    for tree in key:
        levels = np.empty(tree.domain_bits, _LEVEL)
        levels["seed_cw"], levels["ctrl_cw"] = tree.seed_cw, tree.ctrl_cw
        records += [bytes([tree.root_t, tree.add_const]), tree.root_seed, levels.tobytes(),
                    bytes([tree.final_cw])]
    return b"".join(records)


def parse_key(kind: str, domain_bits: int, blob: bytes) -> FssKey:
    """Read the record of a ``kind`` key of depth ``domain_bits``."""
    if len(blob) != key_bytes(kind, domain_bits):
        raise ValueError(f"{len(blob)} bytes for a {kind} key of depth {domain_bits}, "
                         f"not {key_bytes(kind, domain_bits)}")
    tree_bytes = key_bytes(KIND_EQ, domain_bits)  # a point key is one tree
    trees = []
    for at in range(0, len(blob), tree_bytes):
        levels = np.frombuffer(blob, _LEVEL, domain_bits, offset=at + 2 + SEED_BYTES)
        trees.append(Tree(
            comparison=kind != KIND_EQ,
            root_seed=bytes(blob[at + 2:at + 2 + SEED_BYTES]),
            root_t=blob[at],
            seed_cw=levels["seed_cw"].astype(np.uint64),
            ctrl_cw=levels["ctrl_cw"].copy(),
            final_cw=blob[at + tree_bytes - 1],
            add_const=blob[at + 1],
        ))
    return tuple(trees)
