"""Fibers as affine spaces over F2, on bitmasks, and the orbits on them.

A fiber of strong involutions over one twisted involution, in one square
class, is t0 plus the F2-span of its generators g_i = (d/2) c_i mod d,
d = denom, c_i the Smith columns of 1 + theta* at divisor 2
(Fibers._fiber).  Its point b, a bitmask over the generators, is t0 plus
the g_i of the bits of b.  What the fiber's orbits are read from is
affine in b, so each is one value at t0 and one XOR per generator (span):
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
{a1 < ... < ak} from {a1, ..., a(k-1)}.  Each orbit of the imaginary Weyl
group on a fiber is a FiberOrbit (Fibers._orbit_partition), and its image
in the adjoint fiber is read off its members' gradings
(Fibers._adjoint_orbits).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import xor
from typing import NamedTuple

from . import lin
from .diagram import components
from .lattice import StrongX
from .rootdata import InputError

# one orbit on a fiber: (square-class key, members, moves, points as in FiberOrbit)
OrbitPart = tuple[
    tuple, tuple[StrongX, ...], tuple[tuple[int, ...], ...], tuple[tuple[bool, ...], ...]
]


class Fiber(NamedTuple):
    """A nonempty fiber over F2 (Fibers._fiber).

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


class FiberOrbit(NamedTuple):
    """Cross-action orbit of the imaginary Weyl group on one fiber.

    The members are strong involutions over one involution, points of one
    Fiber in fiber order, and all have the weak real form numbered form.
    moves[g][m] is the position in members of the image of member m under
    the reflection in the g-th root of imaginary_basis of the involution,
    which XORs the member's bitmask with one mask where that root is
    noncompact.  points[m], the point of member m in the adjoint fiber, is
    its tuple of gradings at imaginary_basis, affine in its bitmask.
    """

    square_class: int
    form: int
    members: tuple[StrongX, ...]
    moves: tuple[tuple[int, ...], ...]
    points: tuple[tuple[bool, ...], ...]

    def __repr__(self) -> str:
        # points, the members' gradings, are left out; the digests hash repr
        return (
            f"FiberOrbit(square_class={self.square_class!r}, form={self.form!r}, "
            f"members={self.members!r}, moves={self.moves!r})"
        )


class Fibers:
    """The fibers of an inner class, and the orbits of the imaginary Weyl
    groups on them.

    InnerClass inherits it.  It reads rd, the table, the lattice records
    and x_key, the square classes and denom (squares.SquareClasses),
    gradings and fiber_elements, and keeps each fiber in _fibers.
    """

    def _fiber(self, inv: int, key: tuple) -> Fiber | None:
        """The fiber over inv of the square class key, None when the class is
        not realized over inv; built once and kept in _fibers.  Raises
        InputError on a miss unless key is the key of a realized square
        class (_realized_keys), and unless inv is an int, not a bool, on
        every call, since a bool id equals an int one and would read its
        fiber (lattice).

        The generators are (d/2) c_i, d = denom, for the Smith columns c_i
        of 1 + theta* at divisor 2; keys are linear in t, so the key masks
        of the sums of generators are XORs of theirs.  Raises RuntimeError
        when 1 + theta* has a divisor above 2, when the key masks are not
        2^(fiber rank) distinct ones (that is, independent over F2), or
        when a point squares outside the class.
        """
        if (inv, key) in self._fibers and type(inv) is int:
            return self._fibers[(inv, key)]
        if key not in self._realized_keys:
            raise InputError(f"no square class {key!r}; realized: {self._realized_keys}")
        d, cd = self.denom, self.cd
        rep = self._class_rep(key)
        if any(v * d % cd for v in rep):
            raise RuntimeError("square class representative is not over denom")
        lat = self.lattice(inv)
        target = tuple(v * d // cd - c * (d // 2) for v, c in zip(rep, lat.cbits))
        sf = lat.plus
        t0 = lin.solve_mod_presolved(sf, target, d)
        if t0 is None:
            self._fibers[(inv, key)] = None
            return None
        if any(e > 2 for e in sf.diag):
            raise RuntimeError("1 + theta* has an elementary divisor above 2")
        cols = lin.transpose(sf.vinv)
        gens = [lin.vec_scale(cols[i], d // 2) for i, e in enumerate(sf.diag) if e == 2]
        keys = span(0, [half_mask(self.x_key((inv, g))[1], d) for g in gens], xor)
        if len(gens) != lat.ranks.compact or len(set(keys)) != len(keys):
            raise RuntimeError("fiber size is not 2^(fiber rank)")
        t0 = lin.vec_mod(t0, d)
        # squares are linear in t: adding g adds (1 + theta*) g, and vec_mod
        # adds multiples of d; so all squares agree mod d exactly when each
        # generator has (1 + theta*) g = 0 mod d, and only t0 is keyed
        if any(v % d for g in gens for v in lin.vec_add(g, lin.mat_vec(lat.theta_star, g))) or \
                self.central_class_key(self._square_numerators((inv, t0)), d) != key:
            raise RuntimeError("fiber element squares outside its square class")
        out = self._fibers[(inv, key)] = Fiber(t0, tuple(gens), tuple(keys))
        return out

    def _orbit_partition(self, inv: int) -> list[OrbitPart]:
        """Orbits of the imaginary Weyl group on the fibers over inv of the
        realized square classes, as (class key, members, moves, points).

        Fibers come in the order of _realized_keys, members in fiber order
        and the orbits of a fiber by first member; moves and points are as
        in FiberOrbit.  With d = denom, the reflection in a root beta
        imaginary at inv fixes (inv, t) when beta is compact there, and adds
        (d/2) beta^v to t when it is noncompact:
        - Pick w with w beta = alpha_j simple.  Cross actions are affine
          with linear part w (InnerClass._step, lattice.move), and they
          carry gradings (root_grading), so the claim reduces to a simple
          imaginary alpha_j, where the cross action is s_j t.
        - For x in a fiber, <alpha_j, t> is 0 or d/2 mod d, and it is d/2
          exactly when alpha_j is noncompact.
        So it adds the key of (inv, (d/2) beta^v) to the key of x, and on
        the fiber's bitmasks it is an XOR with one mask where beta is
        noncompact (fiber.reflections).  The gradings at imaginary_basis(inv)
        are affine in the bitmask too: adding g_i = (d/2) c_i adds <beta,
        c_i> to 2 <beta, t> / d, so they are the gradings at t0, one row of
        pairings (gradings), and one flip mask per generator.  Raises
        RuntimeError when a reflection leaves the fiber.
        """
        d = self.denom
        basis = self.table.imaginary_basis(inv)
        pos = self.rd.positive_roots
        shifts = [half_mask(self.x_key((inv, lin.vec_scale(pos[k].covec, d // 2)))[1], d)
                  for k in basis]
        out = []
        for key in self._realized_keys:
            fiber = self._fiber(inv, key)
            if fiber is None:
                continue
            # bit g of a grade is the grading of the g-th basis root: read
            # off the gradings at t0, and g_i flips it when <beta, c_i> is odd
            flips = [
                bitmask(2 * lin.vec_dot(pos[k].vec, g) // d % 2 for k in basis) for g in fiber.gens
            ]
            grades = span(bitmask(map(self.gradings((inv, fiber.t0)).get, basis)), flips, xor)
            images, points = reflections(fiber.keys, grades, shifts)
            ts = self.fiber_elements(inv, key)
            # the moves permute the fiber, so its orbits are the components
            for comp in components(images):
                at = {i: m for m, i in enumerate(comp)}
                out.append((
                    key,
                    tuple((inv, ts[i]) for i in comp),
                    tuple(tuple(at[images[i][g]] for i in comp) for g in range(len(basis))),
                    tuple(points[i] for i in comp),
                ))
        return out

    @staticmethod
    def _adjoint_orbits(
        orbits: list[tuple[tuple[bool, ...], ...]]
    ) -> tuple[tuple[int, ...], tuple[set[tuple[bool, ...]], ...]]:
        """Images of cross-action orbits over one involution in the adjoint fiber.

        orbits lists the points (FiberOrbit.points) of the members of each
        orbit.  The image of x = (inv, t) in the fiber of the adjoint group
        is read as its point: the gradings of the imaginary simple roots at
        x (imaginary_basis(inv)).
        - root_grading reads only <alpha, t> / denom, and t and its
          adjoint image give the same value.
        - The image map is W_i-equivariant and onto: every adjoint strong
          involution lifts, and central translates keep the image.  So an
          orbit maps onto one adjoint orbit, whose points are the distinct
          points of the orbit's members.
        That the gradings determine a point of the adjoint fiber is checked
        against an explicit adjoint context in the tests, not proved here.

        Returns the adjoint orbit of each orbit, numbered by first
        appearance, and the point set of each adjoint orbit; each orbit is
        placed by the point of its first member.  Raises RuntimeError when
        another of its points lies in another adjoint orbit.
        """
        ids, points, where = [], [], {}
        for pts in orbits:
            a = where.get(pts[0], len(points))
            if a == len(points):
                points.append(set())
            if any(where.setdefault(p, a) != a for p in pts):
                raise RuntimeError("a cross-action orbit meets two adjoint orbits")
            points[a].update(pts)
            ids.append(a)
        return tuple(ids), tuple(points)
