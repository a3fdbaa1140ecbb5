"""Private predicates as key pairs: equality, comparison, interval containment.

A predicate like `age in [30, 40]` becomes two short keys. Each key alone is
pseudorandom; evaluated at the same public point, the two outputs XOR to the
predicate's truth value there. The servers therefore evaluate predicates by
position, without ever seeing the thresholds. One call, `fss.key_pair_gen`,
draws every kind of pair from the predicate's kind, operands and domain size.
"""

import numpy as np

from oblivgm import fss

rng = np.random.default_rng(7)
domain = 64


def indicator(k1, k2):
    return fss.full_domain_eval(k1, domain) ^ fss.full_domain_eval(k2, domain)


def render(bits):
    return "".join("#" if b else "." for b in bits)


k1, k2 = fss.key_pair_gen("eq", (37,), domain, rng)
print("x == 37      ", render(indicator(k1, k2)))
print("  key 1 alone", render(fss.full_domain_eval(k1, domain)), "(noise)")

k1, k2 = fss.key_pair_gen("lt", (20,), domain, rng)
print("x <  20      ", render(indicator(k1, k2)))

k1, k2 = fss.key_pair_gen("ge", (50,), domain, rng)
print("x >= 50      ", render(indicator(k1, k2)))

i1, i2 = fss.key_pair_gen("iv", (30, 40), domain, rng)
print("30<=x<=40    ", render(indicator(i1, i2)))

# a key is its root seed plus one correction word per level of the domain's
# tree; the public kind and domain fix its size, so it stores neither
bits = fss.domain_bits_for(domain)
blob = fss.serialize_key(i1)
eq_blob = fss.serialize_key(fss.key_pair_gen("eq", (37,), domain, rng)[0])
assert (len(blob), len(eq_blob)) == (fss.key_bytes("iv", bits), fss.key_bytes("eq", bits))
print(f"{bits}-level keys: interval {len(blob)} bytes, equality {len(eq_blob)} bytes "
      f"(ratio {len(blob) / len(eq_blob):.2f}; an interval is two comparisons)")
