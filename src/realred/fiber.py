"""Fibers as affine spaces over F2, on bitmasks.

A fiber of strong involutions over one twisted involution, in one square
class, is t0 plus the F2-span of its generators g_i = (d/2) c_i mod d,
d = denom, c_i the Smith columns of 1 + theta* at divisor 2
(involution.InnerClass._fiber).  Its point b, a bitmask over the
generators, is t0 plus the g_i of the bits of b.  What the fiber's orbits
are read from is affine in b, so each is one value at t0 and one XOR per
generator (span):
- keys: x_key is linear in t, and the key of (d/2) c has entries 0 or
  d/2, so it is a bitmask (half_mask) and key masks add by XOR;
- gradings: adding g_i adds <beta, c_i> to 2 <beta, t> / d, so it flips
  the grading of beta when <beta, c_i> is odd (InnerClass.root_grading);
- a noncompact imaginary reflection in beta adds (d/2) beta^v to t, so it
  XORs b with the one mask whose key mask is that of (d/2) beta^v
  (reflections).
Points are listed in fiber order, by subset size, then in
itertools.combinations order (subset_order): the order of a breadth-first
closure from t0 under the generators in order, which first reaches
{a1 < ... < ak} from {a1, ..., a(k-1)}.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple


class Fiber(NamedTuple):
    """A nonempty fiber over F2 (involution.InnerClass._fiber).

    Point b is t0 plus the gens of the bits of b, mod denom.  keys[b] has
    bit r set when entry r of the x_key of that sum of gens is denom/2,
    the other entries being 0: the key of point b is t0's plus denom/2
    times the bits of keys[b].  len(keys) is the fiber's size.
    """

    t0: tuple[int, ...]
    gens: tuple[tuple[int, ...], ...]
    keys: tuple[int, ...]


def span(first, steps, add) -> list:
    """The values at the bitmasks 0 .. 2^k - 1 of an affine map from F2^k:
    first at 0, and bit i adds steps[i] by add.  Built by doubling."""
    out = [first]
    for step in steps:
        out += [add(x, step) for x in out]
    return out


def bitmask(bits) -> int:
    """The int with bit i set where the i-th of bits is true."""
    return sum(1 << i for i, b in enumerate(bits) if b)


def half_mask(key: tuple[int, ...], denom: int) -> int:
    """The bitmask of the entries denom/2 of the key of a point (denom/2) c,
    c integral; RuntimeError unless every entry is 0 or denom/2."""
    if not {0, denom // 2}.issuperset(key):
        raise RuntimeError("a generator or shift key has an entry other than 0 or denom/2")
    return bitmask(key)


@cache
def subset_order(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bitmasks of the subsets of range(k) in fiber order, by size and
    then in combinations order, and the position of each mask in it."""
    masks = tuple(
        sum(1 << i for i in c) for size in range(k + 1) for c in combinations(range(k), size)
    )
    at = [0] * len(masks)
    for p, b in enumerate(masks):
        at[b] = p
    return masks, tuple(at)


def reflections(
    keys: tuple[int, ...], grades: list[int], shifts: list[int]
) -> tuple[list[list[int]], list[tuple[bool, ...]]]:
    """The imaginary reflections on a fiber, in fiber order.

    keys are the fiber's key masks (Fiber.keys), and grades[b] has bit g
    set when the g-th imaginary basis root beta is noncompact at point b.
    There the reflection in beta adds the key mask shifts[g], of (denom/2)
    beta^v, so it maps b to b ^ c, keys[c] = shifts[g]; elsewhere it fixes
    b.  Returns images[i][g], the position of the image of the i-th point
    under the g-th reflection, and the gradings of the i-th point as a
    tuple of bools.  Raises RuntimeError when a shift is no key mask of
    the fiber, so that a reflection would leave it.
    """
    index = {k: b for b, k in enumerate(keys)}
    moves = [index.get(s, -1) for s in shifts]
    if -1 in moves:
        raise RuntimeError("a noncompact imaginary reflection leaves the fiber")
    masks, at = subset_order(len(keys).bit_length() - 1)
    images = [
        [at[b ^ c] if grades[b] >> g & 1 else i for g, c in enumerate(moves)]
        for i, b in enumerate(masks)
    ]
    points = [tuple(grades[b] >> g & 1 == 1 for g in range(len(moves))) for b in masks]
    return images, points
