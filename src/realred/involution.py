"""Strong real forms, square classes, gradings, and real form naming.

A strong involution is represented by a pair x = (i, t) where i indexes
a twisted involution and t is a rational cocharacter stored as an
integer vector over the context-wide denominator.  Central cocharacters
and square-class keys are integer numerators too, so the module does no
rational arithmetic.  Whether an imaginary root is noncompact at x is
one parity in closed form (root_grading): a pairing with t plus the
root's heights over the simple roots and over the imaginary simple
roots.  The per-Cartan queries grade x at every imaginary root at once
(gradings), from one row per involution of each root's vector and
height offset, so a grading is one pairing.  An imaginary reflection
s_beta fixes x = (i, t) when beta is compact at x, and adds (denom/2)
beta^v to t when it is noncompact (_orbit_partition).  Everything here
is organised around one InnerClass object per (root datum, involution).
Each cross-action orbit on a fiber is a FiberOrbit; the weak real forms
are the adjoint-fiber orbits of those over involution 0
(fundamental_orbits).  real_form_of descends to involution 0 pairing
alpha_j with t once per step, a cross action or an inverse Cayley
transform, and reads the form off the base point's gradings.

Fibers are affine spaces over F2, read off one InvolutionLattice record
per twisted involution: theta*, read on first use off the root
permutation (RootDatum.cocharacter_action), and its rho-check drop,
heights, the Smith form of 1 + theta*, and a basis of the theta-fixed
characters, moved along complex descents by rank-one reflection updates.
The key of x is t paired with that basis mod denom (x_key), linear in
t.  A fiber is t0 plus the F2-span of its generators g_i = (denom/2)
c_i, c_i the Smith columns of 1 + theta* at divisor 2, and its point b,
a bitmask over the generators, is t0 plus the g_i of the bits of b
(fiber.Fiber).  Keys, gradings and
imaginary cross actions are affine in b: adding g_i adds <beta, c_i> to
2 <beta, t> / denom, and so flips the grading of beta when that is odd,
and a noncompact reflection XORs b with one mask (_orbit_partition).
Points are listed by subset size, then in itertools.combinations order:
the order of a breadth-first closure from t0 under the generators in
order, which first reaches {a1 < ... < ak} from {a1, ..., a(k-1)}.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul, xor
from typing import NamedTuple

from . import lin
from .fiber import Fiber, bitmask, half_mask, reflections, span, subset_order
from .rootdata import (
    Factor,
    InputError,
    LieType,
    RootDatum,
    components,
)
from .weyl import (
    COMPLEX_DOWN,
    COMPLEX_UP,
    IMAGINARY,
    REAL,
    InnerClassInvolution,
    InvolutionTable,
    inner_class_involution,
    involution_table,
)

# x = (involution id, cocharacter numerator vector)
StrongX = tuple[int, lin.Vector]
# one orbit on a fiber: (square-class key, members, moves, points as in FiberOrbit)
OrbitPart = tuple[
    tuple, tuple[StrongX, ...], tuple[tuple[int, ...], ...], tuple[tuple[bool, ...], ...]
]


class RankDecomposition(NamedTuple):
    """Split, compact, and complex-pair ranks of a torus involution."""

    split: int
    compact: int
    complex_pairs: int


class SquareClass(NamedTuple):
    """One class of central square values realized by strong involutions."""

    index: int
    key: tuple[int, ...]


class RealFormLabel(NamedTuple):
    """Menu entry for one weak real form of the inner class."""

    index: int
    name: str
    quasisplit: bool
    square_class: int
    rep: StrongX


class StrongOrbit(NamedTuple):
    """Cross-action orbit on one square-class fiber, as a report entry."""

    square_class: int
    form: int
    members: tuple[int, ...]


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


class FundamentalFiber(NamedTuple):
    """The base fiber's orbits and what they number (InnerClass._fundamental).

    row holds (alpha, _grading_offset) of each root of imaginary_basis(0),
    in that order: the base's grading row at the basis, which gives the
    point of a base point in the adjoint fiber, the key of form_at.
    """

    orbits: tuple[FiberOrbit, ...]
    forms: tuple[tuple, ...]
    square_classes: tuple[SquareClass, ...]
    form_at: dict[tuple[bool, ...], int]
    row: tuple[tuple[lin.Vector, int], ...]


_TORUS_NAMES = {"c": "u(1)", "s": "gl(1,R)", "e": "u(1)", "C": "gl(1,C)"}

# Exceptional form names in increasing noncompactness order; the key is
# (letter, rank, equal_rank).
_EXCEPTIONAL_NAMES = {
    ("G", 2, True): ("g2", "g2(R)"),
    ("F", 4, True): ("f4", "f4(so(9))", "f4(R)"),
    ("E", 6, True): ("e6", "e6(so(10).u(1))", "e6(su(6).su(2))"),
    ("E", 6, False): ("e6(f4)", "e6(R)"),
    ("E", 7, True): ("e7", "e7(e6.u(1))", "e7(so(12).su(2))", "e7(R)"),
    ("E", 8, True): ("e8", "e8(e7.su(2))", "e8(R)"),
}


def _complex_pair_name(f: Factor) -> str:
    if f.letter == "A":
        return f"sl({f.rank + 1},C)"
    if f.letter == "B":
        return f"so({2 * f.rank + 1},C)"
    if f.letter == "C":
        return f"sp({2 * f.rank},C)"
    if f.letter == "D":
        return f"so({2 * f.rank},C)"
    return f"{f.letter.lower()}{f.rank}(C)"


def _split_product(total: int, s: int) -> tuple[int, int]:
    """Solves p + q = s, p * q = total with p >= q >= 0 integers."""
    disc = s * s - 4 * total
    root = isqrt(max(disc, 0))
    p, q = (s + root) // 2, (s - root) // 2
    if root * root != disc or p * q != total or p + q != s:
        raise RuntimeError(f"no integers p + q = {s} with p * q = {total}")
    return p, q


class InvolutionLattice:
    """Lattice data of one twisted involution theta: what its fiber is read from.

    InnerClass.lattice links a record reached by a complex descent, by
    the simple root j, to the record of the table parent nbr, theta =
    s_j nbr s_j, as parent; the base and any involution without a
    complex descent link to nothing.  Every field but theta, rd, dstar
    and the links, theta_star included, is computed from theta, the
    root datum, dstar and the links on first read and kept
    (__getattr__): a KGB search reads only the key rows (minus) of
    most records, and those of a record with a parent need no theta*.
    A theta_star given to the constructor is kept, and the other fields
    are computed from it.  The properties drop and ranks are computed
    on every read.  Records are immutable; equality compares every field
    but rd, dstar and the links, and repr shows theta_star, cbits and
    heights.

    Attributes:
        theta_star: the action of theta on cocharacters, its transposed
            matrix, in closed form from the root permutation theta and
            dstar (RootDatum.cocharacter_action): no product for a simply
            connected datum without torus, and one n x n product at most.
        theta: the images of the 2N roots under theta, as the table's
            bytes (InvolutionTable.thetas).
        dstar: the matrix of delta on cocharacters, theta* at the base.
        drop, cbits: rho-check minus its image under theta* delta*, for
            theta = w.delta, and its parity.  theta* delta* is the
            cocharacter action of u = delta w^-1 delta, and u^-1 beta =
            theta beta, so drop is the sum of the positive coroots beta^v
            with theta beta negative.  cbits is the torus part of sigma_w
            delta(sigma_w) on the cocharacter lattice.
        heights: 2 rho-check plus every positive coroot imaginary at theta.
            It pairs with a positive imaginary root alpha to 2 (ht(alpha) +
            ht_i(alpha)), the heights over the simple roots and over the
            imaginary simple roots.
        parent, j: the record of the table parent and the simple root j
            of the complex descent from it, else None, None.
        minus: (rank, rows, twos, ones) of 1 - theta*.  rows are a Z-basis
            of the theta-fixed characters, which the key pairs with t
            (x_key).  rank is the rank of 1 - theta*, and twos and ones
            count its Smith divisors 2 and 1, for ranks.  Without a parent,
            rows are the rows of the Smith uinv at the zero divisors (the
            trailing ones).  After a complex descent, theta* = C_j
            theta*_nbr C_j with C_j = 1 - alpha_j^v alpha_j^T unimodular
            and C_j^2 = 1, so r theta*_nbr = r gives r C_j theta* = r C_j:
            rows are the parent's rows times C_j, and the Smith divisors,
            those of a conjugate matrix, are the parent's.  So a Cartan
            class takes a Smith form only at the involutions without a
            complex descent that the parent links reach.
        plus: the Smith form of 1 + theta*, which fibers are solved in.
    """

    __slots__ = (
        "theta_star", "theta", "rd", "parent", "j", "dstar", "cbits", "heights", "minus", "plus",
    )
    _COMPARED = ("theta_star", "theta", "cbits", "heights", "minus", "plus")

    theta_star: lin.Matrix
    theta: bytes
    rd: RootDatum
    cbits: lin.Vector
    heights: lin.Vector
    parent: InvolutionLattice | None
    j: int | None
    dstar: lin.Matrix | None
    minus: tuple[int, tuple[lin.Vector, ...], int, int]
    plus: lin.SmithForm

    def __init__(
        self,
        theta_star: lin.Matrix | None,
        theta: bytes,
        rd: RootDatum,
        parent: InvolutionLattice | None = None,
        j: int | None = None,
        dstar: lin.Matrix | None = None,
    ):
        if theta_star is not None:
            object.__setattr__(self, "theta_star", theta_star)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rd", rd)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "dstar", dstar)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._COMPARED)

    def __hash__(self) -> int:
        return hash((self.theta_star, self.theta))

    def __repr__(self) -> str:
        return (
            f"InvolutionLattice(theta_star={self.theta_star!r}, "
            f"cbits={self.cbits!r}, heights={self.heights!r})"
        )

    def __getattr__(self, name: str):
        """Computes a field not set yet on its first read, and keeps it."""
        npos, n = len(self.theta) // 2, self.rd.rank
        if name == "cbits":
            value = tuple(x % 2 for x in self.drop)
        elif name == "heights":
            imaginary = self.rd.coroot_sum(k for k in range(npos) if self.theta[k] == k)
            value = lin.vec_add(self.rd.two_rho_check, imaginary)
        elif name == "minus" and self.parent is not None:
            rank, rows, twos, ones = self.parent.minus
            a, av = self.rd.simple_roots[self.j], self.rd.simple_coroots[self.j]
            value = rank, lin.times_coreflection(rows, a, av), twos, ones
        elif name == "minus":
            sf = lin.smith_form(lin.mat_sub(lin.identity(n), self.theta_star), ncols=n)
            value = sf.rank, sf.uinv[sf.rank:], sf.diag.count(2), sf.diag.count(1)
        elif name == "plus":
            value = lin.smith_form(lin.mat_add(lin.identity(n), self.theta_star), ncols=n)
        elif name == "theta_star" and self.dstar is not None:
            value = self.rd.cocharacter_action(self.theta, self.dstar)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    @property
    def drop(self) -> lin.Vector:
        npos = len(self.theta) // 2
        return self.rd.coroot_sum(k for k in range(npos) if self.theta[k] >= npos)

    @property
    def ranks(self) -> RankDecomposition:
        """Rank decomposition of theta*.

        The lattice is a sum of trivial, sign and rank-two permutation
        summands of theta* (Adams-du Cloux), on which 1 - theta* has the
        Smith divisors 0, 2 and (1, 0).  So the split rank is the count
        of divisors 2, the complex pairs are the divisors 1, and the
        compact rank is the zero divisors (the key rows) less the pairs.
        Raises RuntimeError when 1 - theta* has a divisor above 2, so that
        ker(1 + theta*) over its image is no elementary abelian 2-group.
        """
        rank, rows, twos, ones = self.minus
        if twos + ones != rank:
            raise RuntimeError("1 - theta* has an elementary divisor above 2")
        return RankDecomposition(split=twos, compact=len(rows) - ones, complex_pairs=ones)


class InnerClass:
    """All strong real form data for one inner class of real forms."""

    def __init__(self, delta: InnerClassInvolution):
        self.delta = delta
        self.rd: RootDatum = delta.rd
        self.lt: LieType = delta.lt
        self.table: InvolutionTable = involution_table(delta)
        self._dstar: lin.Matrix = lin.transpose(delta.matrix)
        self._lattices = {0: InvolutionLattice(self._dstar, self.table.thetas[0], self.rd)}
        # the Fiber, or None when empty, by (involution, square-class key)
        self._fibers: dict[tuple[int, tuple], Fiber | None] = {}
        self._orbits_at: dict[int, tuple[FiberOrbit, ...]] = {}
        # the (root, alpha, offset) row of gradings, by involution
        self._grading_rows: dict[int, tuple[tuple, ...]] = {}
        # cartan.CartanClass by class index, built in cartan
        self._cartan_classes: dict[int, object] = {}

    def check(self, **indices: object) -> None:
        """Raises InputError unless each index given, form= or cartan=, is
        an int, not a bool, numbering a weak real form or a Cartan class
        of the inner class.
        """
        for name, i in indices.items():
            what, count = (
                ("real form", len(self.real_forms)) if name == "form"
                else ("Cartan class", len(self.table.classes))
            )
            if type(i) is not int or not 0 <= i < count:
                raise InputError(f"no {what} #{i!r}: there are {count}")

    # -- central square classes ----------------------------------------

    @cached_property
    def _central_smith(self) -> lin.SmithForm:
        """Constraints cutting out delta-fixed central cocharacters mod Z^n."""
        rows = [list(a) for a in self.rd.simple_roots]
        rows.extend(lin.mat_sub(self._dstar, lin.identity(self.rd.rank)))
        return lin.smith_form(lin.freeze(rows), ncols=self.rd.rank)

    @cached_property
    def cd(self) -> int:
        """Denominator of square-class keys: lcm of the nonzero central Smith diagonal."""
        return lcm(*(d for d in self._central_smith.diag if d))

    def _central_reduce(self, num: lin.Vector, den: int) -> tuple[int, ...]:
        """Coordinates over cd of the central cocharacter num / den modulo
        the identity part; RuntimeError unless it is central and delta-fixed.
        """
        sf = self._central_smith
        cd = self.cd
        y = lin.mat_vec(sf.v, num)
        out = []
        for i, yi in enumerate(y):
            d = sf.diag[i] if i < len(sf.diag) else 0
            if d == 0:
                out.append(0)
            elif yi * d % den:
                raise RuntimeError("cocharacter is not central and delta-fixed")
            else:
                out.append(yi * cd // den % cd)
        return tuple(out)

    @cached_property
    def _center_smith(self) -> lin.SmithForm:
        """Constraints cutting out all central cocharacters mod Z^n."""
        rows = [list(a) for a in self.rd.simple_roots]
        return lin.smith_form(lin.freeze(rows), ncols=self.rd.rank)

    @cached_property
    def _central_translates(self) -> tuple[tuple[int, ...], ...]:
        """Square-value shifts z.delta(z), z central, as reduced keys.

        Shifts coming from the identity component of the center reduce
        to zero, so torsion generators of the full center suffice: the
        i-th is col_i / diag_i for the Smith divisors diag_i >= 2, and its
        shift g_i has order dividing diag_i.  The translates are the sums
        of k_i g_i mod cd over 0 <= k_i < diag_i, sorted.
        """
        sf = self._center_smith
        n = self.rd.rank
        cd = self.cd
        cols = lin.transpose(sf.vinv)
        onep = lin.mat_add(self._dstar, lin.identity(n))
        finite = [i for i in range(min(n, len(sf.diag))) if sf.diag[i] >= 2]
        gens = [self._central_reduce(lin.mat_vec(onep, cols[i]), sf.diag[i]) for i in finite]
        return tuple(sorted({
            tuple(sum(k * g[c] for k, g in zip(combo, gens)) % cd for c in range(n))
            for combo in product(*(range(sf.diag[i]) for i in finite))
        }))

    def central_class_key(self, num: lin.Vector, den: int) -> tuple[int, ...]:
        """Canonical key of the square class of the central cocharacter num / den.

        Keys are numerators over the one fixed cd of Smith coordinates in
        [0, 1), so they sort and minimise exactly as those rationals do.
        """
        cd = self.cd
        base = self._central_reduce(num, den)
        return min(
            tuple((a + b) % cd for a, b in zip(base, g))
            for g in self._central_translates
        )

    @cached_property
    def _candidate_classes(self) -> tuple[tuple[int, ...], ...]:
        """All square classes of delta-fixed central elements."""
        sf = self._central_smith
        n = self.rd.rank
        cd = self.cd
        finite = [i for i in range(n) if i < len(sf.diag) and sf.diag[i] >= 2]
        keys = set()
        for combo in product(*(range(sf.diag[i]) for i in finite)):
            y = [0] * n
            for i, k in zip(finite, combo):
                y[i] = k * (cd // sf.diag[i])
            keys.add(self.central_class_key(lin.mat_vec(sf.vinv, tuple(y)), cd))
        return tuple(sorted(keys))

    def _class_rep(self, key: tuple[int, ...]) -> lin.Vector:
        """Numerators over cd of a cocharacter in the square class key."""
        return lin.mat_vec(self._central_smith.vinv, key)

    @cached_property
    def _realized_keys(self) -> tuple[tuple[int, ...], ...]:
        """Candidate classes realized as squares over the base involution.

        A class is realized when its representative lies in the rational
        image of 1 + theta plus the cocharacter lattice; equivalently the
        zero-divisor coordinates of uinv times the representative are
        integral.
        """
        sf = self.lattice(0).plus
        out = []
        for key in self._candidate_classes:
            c = lin.mat_vec(sf.uinv, self._class_rep(key))
            if all(
                c[i] % self.cd == 0
                for i in range(len(c))
                if i >= len(sf.diag) or sf.diag[i] == 0
            ):
                out.append(key)
        if not out:
            raise RuntimeError("no square class is realized over the base involution")
        return tuple(out)

    @cached_property
    def denom(self) -> int:
        """Global denominator for all cocharacter numerators."""
        cd = self.cd
        dens = [
            cd // gcd(cd, v) for key in self._realized_keys
            for v in self._class_rep(key)
        ]
        return 2 * lcm(2, *dens)

    # -- per-involution linear data ------------------------------------

    def lattice(self, inv: int) -> InvolutionLattice:
        """The lattice record of an involution, linked to its table parent's
        when it has a complex descent.

        The parent, one twisted length shorter, is reached by the first
        simple root j that is a complex descent at inv: the rule depends
        on inv alone, and the key rows are transported along it
        (InvolutionLattice.minus).  The parent's record is built first.
        An involution without a complex descent links to nothing, and its
        theta* is read off its root permutation on first read
        (InvolutionLattice.theta_star); at the base it is delta*.  Records
        are kept; on a miss, raises InputError unless inv is an int
        numbering a row of the table.
        """
        out = self._lattices.get(inv)
        if out is None:
            if type(inv) is not int or not 0 <= inv < len(self.table):
                raise InputError(f"no involution {inv!r}: there are {len(self.table)} involutions")
            j = self.table.kinds(inv).find(COMPLEX_DOWN)
            parent = self.lattice(self.table.status(inv, j)[1]) if j >= 0 else None
            out = self._lattices[inv] = InvolutionLattice(
                None, self.table.thetas[inv], self.rd, parent, j if parent else None, self._dstar,
            )
        return out

    def x_key(self, x: StrongX) -> tuple:
        """Canonical key of x modulo torus-conjugation equivalence.

        x = (i, t) is keyed by t paired with a Z-basis of the characters
        fixed by theta_i (InvolutionLattice.minus), mod denom.  It is
        linear in t.  KGB ids sort by these keys, so they depend on this
        very basis: the Smith rows of the nearest record, on the walk
        down complex descents from theta_i (lattice), that has no complex
        descent, moved by C_j along each complex descent in between
        (InvolutionLattice.minus).  Raises InputError unless t has rank
        entries, and, when i has no record yet, unless i numbers a row
        of the table (lattice); a KGB search keys only ids of the table.
        """
        inv, t = x
        n = self.rd.rank
        if len(t) != n:
            raise InputError(f"no strong involution {x!r}: torus parts have {n} entries")
        d = self.denom
        return (inv, tuple([sum(map(mul, r, t)) % d for r in self.lattice(inv).minus[1]]))

    def _reflect(self, j: int, t: lin.Vector) -> lin.Vector:
        """s_j t = t - <alpha_j, t> alpha_j^v, on cocharacters."""
        c = lin.vec_dot(self.rd.simple_roots[j], t)
        return lin.vec_sub(t, lin.vec_scale(self.rd.simple_coroots[j], c)) if c else t

    def _square_numerators(self, x: StrongX) -> lin.Vector:
        """Numerators over denom of the square value of x."""
        inv, t = x
        lat = self.lattice(inv)
        return lin.vec_add(
            lin.vec_add(t, lin.mat_vec(lat.theta_star, t)),
            lin.vec_scale(lat.cbits, self.denom // 2),
        )

    # -- fibers ----------------------------------------------------------

    def _fiber(self, inv: int, key: tuple) -> Fiber | None:
        """The fiber over inv of the square class key, None when the class is
        not realized over inv; built once and kept in _fibers.

        The generators are (d/2) c_i, d = denom, for the Smith columns c_i
        of 1 + theta* at divisor 2; keys are linear in t, so the key masks
        of the sums of generators are XORs of theirs.  Raises RuntimeError
        when 1 + theta* has a divisor above 2, when the key masks are not
        2^(fiber rank) distinct ones (that is, independent over F2), or
        when a point squares outside the class.
        """
        if (inv, key) in self._fibers:
            return self._fibers[(inv, key)]
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

    def fiber_elements(self, inv: int, key: tuple) -> tuple[lin.Vector, ...]:
        """Strong involutions over one involution with squares in one class.

        Elements are reduced numerators over denom, the points of the
        Fiber in fiber order: t0 plus the sums of the subsets of the
        generators, smallest subsets first and subsets of one size in
        combinations order.  Empty when the square class is not realized
        over this involution.  Built by doubling on each call: the fiber
        record keeps no points, and FiberOrbit.members is their one reader
        in the library.
        """
        fiber = self._fiber(inv, key)
        if fiber is None:
            return ()
        ts = span(fiber.t0, fiber.gens, lin.vec_add)
        return tuple(lin.vec_mod(ts[b], self.denom) for b in subset_order(len(fiber.gens))[0])

    # -- cross actions, Cayley transforms, gradings ----------------------

    def cross(self, j: int, x: StrongX) -> StrongX:
        """Cross action of the j-th simple reflection: s_j t mod denom, plus
        _complex_shift when j is complex at the involution of x.  Raises
        InputError when x is not a strong involution of the table (_strong)."""
        inv, t = self._strong(x)
        kind, nbr = self.table.status(inv, j)
        t2 = self._reflect(j, t)
        if kind in (IMAGINARY, REAL):
            return (inv, lin.vec_mod(t2, self.denom))
        shift = lin.vec_scale(self._complex_shift(inv, j, kind), self.denom // 2)
        return (nbr, lin.vec_mod(lin.vec_add(t2, shift), self.denom))

    def _complex_shift(self, inv: int, j: int, kind: str) -> lin.Vector:
        """gamma^v, of which the cross action of the simple root j, complex
        of the given kind at inv, adds denom/2 times to s_j t: gamma is s_j
        theta alpha_j when j is complex up, alpha_j when complex down.
        Either carries gradings (root_grading)."""
        if kind == COMPLEX_UP:
            s = self.table.simple[j]
            gamma = self.table.reflections[s][self.table.thetas[inv][s]]
            return self.rd.positive_roots[gamma].covec
        return self.rd.simple_coroots[j]

    def _grading_offset(self, inv: int, k: int) -> int:
        """(ht(alpha) + ht_i(alpha) - 1) d, d = denom, for the positive root
        k imaginary at inv: alpha is noncompact at (inv, t) exactly when 2
        <alpha, t> plus this is 0 mod 2d (root_grading).  It is d for a
        simple root k, and reads no record: a simple root imaginary at inv
        is no sum of two positive imaginary roots, so it is simple in the
        imaginary system too, and ht + ht_i = 2.  Other roots read the
        heights of lattice(inv)."""
        if k in self.table.simple:
            return self.denom
        heights = lin.vec_dot(self.rd.positive_roots[k].vec, self.lattice(inv).heights) // 2
        return (heights - 1) * self.denom

    def _strong(self, x: StrongX) -> StrongX:
        """x, once checked: InputError unless its involution id numbers a
        row of the table and its torus part has rank entries."""
        inv, t = x
        if type(inv) is not int or not 0 <= inv < len(self.table) or len(t) != self.rd.rank:
            raise InputError(
                f"no strong involution {x!r}: there are {len(self.table)} involutions, "
                f"and torus parts have {self.rd.rank} entries"
            )
        return x

    def gradings(self, x: StrongX) -> dict[int, bool]:
        """root_grading of x at every positive root imaginary there, by root.

        Reads one row per involution, kept in _grading_rows: each imaginary
        root k in increasing order with its vector alpha and _grading_offset,
        so a grading costs one pairing, 2 <alpha, t> plus the offset mod 2
        denom.  In the library only per-Cartan queries fill the rows: the
        fibers and the weak forms at canonical involutions, and the base
        fiber.  A KGB
        search reads the offsets of its simple roots alone (kgb._step_row),
        and a descent grades its base point at imaginary_basis(0) alone
        (FundamentalFiber.row).
        """
        inv, t = self._strong(x)
        row = self._grading_rows.get(inv)
        if row is None:
            pos = self.rd.positive_roots
            row = self._grading_rows[inv] = tuple([
                (k, pos[k].vec, self._grading_offset(inv, k))
                for k in self.table.imaginary_roots(inv)
            ])
        d2 = 2 * self.denom
        return {k: (2 * sum(map(mul, a, t)) + off) % d2 == 0 for k, a, off in row}

    def grading(self, x: StrongX, j: int) -> bool:
        """True when the imaginary simple root j is noncompact at x."""
        return self.root_grading(x, self.table.simple[j])

    def root_grading(self, x: StrongX, k: int) -> bool:
        """True when positive root k, imaginary at x, is noncompact there.

        k indexes the table's positive roots, like every root subsystem;
        its vector alpha is read off rd for the two pairings.  With x =
        (i, t) and d = denom, alpha is noncompact exactly
        when 2 <alpha, t> / d + ht(alpha) + ht_i(alpha) is odd, ht_i being
        the height over imaginary_basis(i); the heights of lattice(i)
        give the two in one pairing.  This is the grading that transport
        along cross actions gives, by induction on the height of alpha, along
        the descent that lowers it by the first simple reflection s_j
        with s_j alpha positive and lower; n = <alpha, alpha_j^v>:
        - alpha = alpha_j simple: ht + ht_i = 2, and at a simple imaginary
          root the test is the base-point one, 2 <alpha_j, t> / d odd.
          The torus part of sigma_w delta(sigma_w) adds nothing there:
          w^-1 alpha_j = delta alpha_j is simple, so the rho-check drop
          pairs to 0 with alpha_j and grows by alpha_j^v at the Cayley
          transform, and its coroot coefficients at j at the two
          involutions cancel with the 1 of the base-point formula.
        - j complex: cross sends t to t' = s_j t + (d/2) gamma^v, so
          2 <s_j alpha, t'> / d = 2 <alpha, t> / d + <s_j alpha, gamma^v>,
          and the last term is n mod 2 for both choices of gamma in
          cross.  ht drops by n, and ht_i does not change, since s_j
          carries the imaginary simple roots at i to those at the new
          involution.
        - j imaginary: there is no shift, and ht and ht_i each drop by n.
        - j real cannot occur: real and imaginary roots are orthogonal.
        Raises RuntimeError when the root is not imaginary at x, and
        InputError when x is not a strong involution of the table (_strong).
        """
        inv, t = self._strong(x)
        root = self.rd.positive_roots[k]
        if self.table.thetas[inv][k] != k:
            raise RuntimeError(f"root {root.coeffs} is not imaginary at involution {inv}")
        num = 2 * lin.vec_dot(root.vec, t) + self._grading_offset(inv, k)
        return num % (2 * self.denom) == 0

    def cayley(self, j: int, x: StrongX) -> StrongX:
        """Cayley transform through a noncompact imaginary simple root.

        Raises ValueError when simple root j is not imaginary at x, or is
        compact there, and InputError when x is not a strong involution of
        the table (_strong).
        """
        inv, t = self._strong(x)
        kind, nbr = self.table.status(inv, j)
        if kind != IMAGINARY:
            raise ValueError(f"simple root {j} is not imaginary at involution {inv}")
        if not self.grading(x, j):
            raise ValueError(f"simple root {j} is compact at this strong involution")
        return (nbr, lin.vec_mod(self._reflect(j, t), self.denom))

    # -- weak real forms --------------------------------------------------

    def _orbit_partition(self, inv: int) -> list[OrbitPart]:
        """Orbits of the imaginary Weyl group on the fibers over inv of the
        realized square classes, as (class key, members, moves, points).

        Fibers come in the order of _realized_keys, members in fiber order
        and the orbits of a fiber by first member; moves and points are as
        in FiberOrbit.  With d = denom, the reflection in a root beta
        imaginary at inv fixes (inv, t) when beta is compact there, and adds
        (d/2) beta^v to t when it is noncompact:
        - Pick w with w beta = alpha_j simple.  Cross actions are affine
          with linear part w, and they carry gradings (root_grading), so
          the claim reduces to a simple imaginary alpha_j.
        - At a simple imaginary alpha_j, cross returns s_j t = t -
          <alpha_j, t> alpha_j^v.  For x in a fiber, <alpha_j, t> is 0 or
          d/2 mod d, and it is d/2 exactly when alpha_j is noncompact.
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

    @cached_property
    def _factor_ranges(self) -> tuple[tuple[int, ...], ...]:
        """Simple-root indices of each internal factor; none for a torus factor."""
        index = self.lt.simple_factor_index
        return tuple(
            tuple(k for k, i in enumerate(index) if i == fac)
            for fac in range(len(self.lt.factors))
        )

    @cached_property
    def _fundamental(self) -> FundamentalFiber:
        """The base fiber's orbits, with the weak forms and square classes.

        The weak real forms are the orbits of the adjoint base fiber
        (_adjoint_orbits); form_at gives the form of each of its points,
        their gradings at basis = imaginary_basis(0), row the grading row
        at basis (FundamentalFiber), and forms is (nc, iota, quasisplit)
        of each form, in menu order.  nc counts the noncompact imaginary
        roots, positive and negative, of each internal factor and iota is
        the half-spin tag of each factor, both at the first member of a
        form's first base-fiber orbit.  A form is quasisplit when the
        all-noncompact grading is one of its points.  The menu sorts the
        forms by (total nc, zip(nc, iota)).  That key cannot tie: it
        determines the name of every unit (real_forms), and the names of
        distinct weak forms differ.  The square classes are numbered by
        first appearance in the orbits of the forms from the quasisplit
        one down.
        """
        parts = self._orbit_partition(0)
        ids, points = self._adjoint_orbits([pts for *_, pts in parts])
        basis = self.table.imaginary_basis(0)
        split = (True,) * len(basis)
        index = self.lt.simple_factor_index
        forms = []
        for a, pts in enumerate(points):
            _, members, _, member_points = parts[ids.index(a)]
            nc = [0] * len(self.lt.factors)
            for k, noncompact in self.gradings(members[0]).items():
                if noncompact:
                    coeffs = self.rd.positive_roots[k].coeffs
                    nc[index[next(i for i, c in enumerate(coeffs) if c)]] += 2
            bits = dict(zip(basis, member_points[0]))
            iota = tuple(
                self._iota_tag(bits, f, rng) for f, rng in zip(self.lt.factors, self._factor_ranges)
            )
            forms.append((tuple(nc), iota, split in pts))
        order = sorted(
            range(len(forms)),
            key=lambda a: (sum(forms[a][0]), tuple(zip(forms[a][0], forms[a][1]))),
        )
        if [forms[a][2] for a in order] != [False] * (len(order) - 1) + [True]:
            raise RuntimeError("the quasisplit form is not the unique last one of the menu")
        menu = {a: m for m, a in enumerate(order)}
        by_form = sorted(zip(ids, parts), key=lambda q: -menu[q[0]])
        keys = list(dict.fromkeys(part[0] for _, part in by_form))
        if len(keys) != len(self._realized_keys):
            raise RuntimeError("a realized square class carries no weak form")
        return FundamentalFiber(
            tuple(FiberOrbit(keys.index(p[0]), menu[a], *p[1:]) for a, p in zip(ids, parts)),
            tuple(forms[a] for a in order),
            tuple(SquareClass(i, key) for i, key in enumerate(keys)),
            {p: menu[a] for a, pts in enumerate(points) for p in pts},
            tuple((self.rd.positive_roots[k].vec, self._grading_offset(0, k)) for k in basis),
        )

    def _iota_tag(self, bits: dict[int, bool], f: Factor, rng: tuple[int, ...]) -> int:
        """Distinguishes the two half-spin gradings of an equal-rank D factor.

        bits maps the roots of imaginary_basis(0) to their gradings at a
        base-fiber point.  The factor's simple roots are imaginary simple at
        0, and their gradings are the pairings 2 <alpha_j, t> / denom mod 2.
        0: not applicable or orthogonal type; 1, 2: the two spin cosets.
        """
        if f.letter != "D" or any(self.delta.perm[p] != p for p in rng):
            return 0
        pair = [int(bits[self.table.simple[j]]) for j in rng]
        block = [
            [self.rd.cartan[j][i] for j in rng]
            for i in rng
        ]
        sf = lin.smith_form(lin.freeze(block))
        r = f.rank
        for tag, shifts in ((0, ()), (0, (r - 2, r - 1)), (1, (r - 2,)), (2, (r - 1,))):
            b = list(pair)
            for shift in shifts:
                b[shift] -= 1
            if lin.solve_mod_presolved(sf, tuple(b), 2) is not None:
                return tag
        raise RuntimeError("unclassified half-spin coset")

    @cached_property
    def real_forms(self) -> tuple[RealFormLabel, ...]:
        """Weak real forms of the inner class, most compact first.

        Units are named in one walk over delta.units: a torus factor by
        its letter, a complex pair by its factor, any other unit by its
        factor's nc and iota among those of all the weak forms.  A form's
        rep and square class are those of its first fundamental orbit.
        """
        fundamental = self._fundamental
        labels = []
        for idx, (nc, iota, quasisplit) in enumerate(fundamental.forms):
            names = []
            for letter, idxs in self.delta.units:
                fac = idxs[0]
                f = self.lt.factors[fac]
                if f.letter == "T":
                    names.append(_TORUS_NAMES[letter])
                elif letter == "C":
                    names.append(_complex_pair_name(f))
                else:
                    equal = all(self.delta.perm[p] == p for p in self._factor_ranges[fac])
                    values = sorted({g[0][fac] for g in fundamental.forms})
                    names.append(_factor_form_name(f, equal, nc[fac], values, iota[fac]))
            first = next(o for o in fundamental.orbits if o.form == idx)
            labels.append(RealFormLabel(
                index=idx,
                name=".".join(names),
                quasisplit=quasisplit,
                square_class=first.square_class,
                rep=first.members[0],
            ))
        return tuple(labels)

    @property
    def fundamental_orbits(self) -> tuple[FiberOrbit, ...]:
        """Orbits on the fiber over involution 0, numbering the KGB seeds
        (kgb.seed_orbit) in the order of _orbit_partition(0)."""
        return self._fundamental.orbits

    @cached_property
    def square_classes(self) -> tuple[SquareClass, ...]:
        """Realized square classes, numbered from the quasisplit form down."""
        return self._fundamental.square_classes

    def real_form_of(self, x: StrongX) -> int:
        """Weak real form of a strong involution, by descent to the base.

        Each step lowers the twisted length by one and pairs alpha_j with t
        once, c = <alpha_j, t>, as a KGB step does; with d = denom it moves
        t to t - shift alpha_j^v mod d.
        - At the first simple root j that is a complex descent, it is the
          cross action: s_j t plus (d/2) gamma^v, and gamma^v = alpha_j^v
          there (_complex_shift), so shift = c - d/2.
        - Otherwise, at the first real j that has one, it is the first
          inverse Cayley candidate (nbr, u), u = s_j t + e alpha_j^v:
          alpha_j, simple imaginary at nbr, is noncompact at it exactly
          when <alpha_j, u> = 2e - c = d/2 mod d (root_grading).  With r =
          d/2 + c mod d there is no e when r is odd, and else e = r/2 is
          the first, so shift = c - r/2.  Every candidate squares into the
          class of x: its Cayley image has the square numerators of x, as
          theta*_inv alpha_j^v = -alpha_j^v, and a Cayley transform through
          a noncompact alpha_j keeps them mod d.
        The descent keys nothing, and ends at the point of the base point in
        the adjoint fiber: its gradings at imaginary_basis(0), kept by
        torus conjugation and reduction mod denom, whose adjoint orbit is
        the weak form (_fundamental).  The form does not depend on the path:
        cross actions and Cayley transforms preserve the weak real form.
        Raises InputError when x is not a strong involution of the table
        (_strong).  Raises RuntimeError when no step applies, which only a
        point off every fiber gives, or when a candidate is compact
        (grading), which its choice rules out unless the grading is wrong.
        """
        inv, t = self._strong(x)
        table, rd, d = self.table, self.rd, self.denom
        h = d // 2
        while table.lengths[inv] > 0:
            kinds = table.kinds(inv)
            j = kinds.find(COMPLEX_DOWN)
            if j >= 0:
                shift = sum(map(mul, rd.simple_roots[j], t)) - h
            else:
                for j, kind in enumerate(kinds):
                    if kind == REAL:
                        c = sum(map(mul, rd.simple_roots[j], t))
                        if (h + c) % 2 == 0:
                            shift = c - (h + c) % d // 2
                            break
                else:
                    raise RuntimeError("strong involution admits no descent")
            inv = table.status(inv, j)[1]
            t = tuple([(u - shift * v) % d for u, v in zip(t, rd.simple_coroots[j])])
            if kinds[j] == REAL and not self.grading((inv, t), j):
                raise RuntimeError("an inverse Cayley candidate is compact")
        row = self._fundamental.row
        point = tuple([(2 * sum(map(mul, a, t)) + off) % (2 * d) == 0 for a, off in row])
        return self._fundamental.form_at[point]

    # -- strong real forms at a Cartan class ------------------------------

    def cartan_orbits(self, cartan: int) -> tuple[FiberOrbit, ...]:
        """The per-Cartan record: cross-action orbits on the fibers.

        Lists the orbits of the imaginary Weyl group on each realized
        square-class fiber over the canonical involution of the class,
        with the weak real form and the cross-action moves of every orbit:
        square class by square class, and within a fiber by first member
        in fiber order.  At involution 0 these are fundamental_orbits,
        sorted stably by square class; elsewhere the form is found by one
        descent from the orbit's first member, since cross actions
        preserve it.  Built once per class and cached.
        """
        self.check(cartan=cartan)
        out = self._orbits_at.get(cartan)
        if out is None:
            inv = self.table.canonical_member(cartan)
            keys = [sq.key for sq in self.square_classes]
            orbits = self.fundamental_orbits if inv == 0 else [
                FiberOrbit(keys.index(key), self.real_form_of(xs[0]), xs, *rest)
                for key, xs, *rest in self._orbit_partition(inv)
            ]
            out = self._orbits_at[cartan] = tuple(sorted(orbits, key=lambda o: o.square_class))
        return out

    def strong_real_forms_at(self, cartan: int) -> tuple[tuple[int, tuple[StrongOrbit, ...]], ...]:
        """Orbit partition of each realized square-class fiber at a Cartan.

        Returns (square class index, orbits) pairs in class order; member
        indices refer to positions in the class fiber listing.  Derived
        from the per-Cartan record cartan_orbits, which checks the index.
        """
        orbits = self.cartan_orbits(cartan)
        out = []
        for sq in self.square_classes:
            mine = [(o.form, len(o.members)) for o in orbits if o.square_class == sq.index]
            if mine:
                out.append((sq.index, strong_orbits(sq.index, mine)))
        return tuple(out)

    def form_cartans(self, form: int) -> tuple[int, ...]:
        """Cartan classes carrying strong involutions of one weak form."""
        self.check(form=form)
        return self._form_cartans[form]

    @cached_property
    def _form_cartans(self) -> tuple[tuple[int, ...], ...]:
        """form_cartans of every weak form, from one pass over cartan_orbits."""
        out: list[list[int]] = [[] for _ in self.real_forms]
        for c in range(len(self.table.classes)):
            for form in {o.form for o in self.cartan_orbits(c)}:
                out[form].append(c)
        return tuple(map(tuple, out))

    def cartan_ranks(self, cartan: int) -> RankDecomposition:
        """Rank decomposition of the canonical involution of a Cartan class."""
        self.check(cartan=cartan)
        return self.lattice(self.table.canonical_member(cartan)).ranks

    def most_split_cartan(self, form: int) -> int:
        """Cartan class of maximal real rank within one weak form."""
        self.check(form=form)
        return self._most_split[form]

    @cached_property
    def _most_split(self) -> tuple[int, ...]:
        out = []
        for form in range(len(self.real_forms)):
            real_rank = {}
            for c in self.form_cartans(form):
                dec = self.cartan_ranks(c)
                real_rank[c] = dec.split + dec.complex_pairs
            best = max(real_rank, key=real_rank.get)
            if list(real_rank.values()).count(real_rank[best]) != 1:
                raise RuntimeError(
                    f"real form #{form} has several Cartan classes of maximal real rank"
                )
            out.append(best)
        return tuple(out)

    # -- component groups --------------------------------------------------

    def component_rank(self, form: int) -> int:
        """Rank of the component two-group of the real points.

        At the canonical involution of the form's most split Cartan it is
        the rank of K / L, with K = ker(1 + theta*) and L spanned by the
        columns of 1 - theta* and the real coroots.  L lies in K with K's
        rank, and K is saturated, so K / L is the torsion of Z^n / L: one
        Z/2 per Smith divisor 2 of those generators.  Raises RuntimeError
        when a divisor is above 2, or when L has another rank than 1 -
        theta*, which a generator outside K would give it.
        """
        inv = self.table.canonical_member(self.most_split_cartan(form))
        n = self.rd.rank
        # the rows of 1 - theta are the columns of 1 - theta*
        gens = lin.mat_sub(lin.identity(n), lin.transpose(self.lattice(inv).theta_star))
        gens += tuple(self.rd.positive_roots[k].covec for k in self.table.real_roots(inv))
        sf = lin.smith_form(gens, ncols=n)
        if any(d > 2 for d in sf.diag):
            raise RuntimeError("the component group is not an elementary abelian 2-group")
        if sf.rank != n - len(self.lattice(inv).minus[1]):
            raise RuntimeError("a real coroot or a column of 1 - theta* is not in ker(1 + theta*)")
        return sf.diag.count(2)

    # -- counting -----------------------------------------------------------

    def strong_count_at(self, cartan: int) -> int:
        """Number of strong involutions over one Cartan class, all squares.

        Each fiber counts 2^k, its number of key masks (Fiber.keys); no
        point is built.
        """
        self.check(cartan=cartan)
        inv = self.table.canonical_member(cartan)
        per = sum(len(f.keys) for sq in self.square_classes if (f := self._fiber(inv, sq.key)))
        return per * len(self.table.classes[cartan])

    def strong_count(self) -> int:
        return sum(
            self.strong_count_at(c) for c in range(len(self.table.classes))
        )


def _factor_form_name(
    f: Factor, equal: bool, nc: int, values: list[int], iota: int
) -> str:
    """Display name of one simple factor's real form.

    values lists the factor's noncompact counts over all weak forms,
    ascending; nc and iota belong to the form being named.
    """
    letter, n = f.letter, f.rank
    if letter in "GFE":
        table = _EXCEPTIONAL_NAMES[(letter, n, equal)]
        if len(values) != len(table):
            raise RuntimeError(f"{letter}{n} has {len(values)} noncompact counts, not {len(table)}")
        return table[values.index(nc)]
    if letter == "A":
        if not equal:
            if nc == values[-1]:
                return f"sl({n + 1},R)"
            return f"sl({(n + 1) // 2},H)"
        if n == 1:
            return "su(2)" if nc == 0 else "sl(2,R)"
        p, q = _split_product(nc // 2, n + 1)
        return f"su({p})" if q == 0 else f"su({p},{q})"
    if letter == "B":
        p, q = _split_product(nc, 2 * n + 1)
        return f"so({p})" if q == 0 else f"so({p},{q})"
    if letter == "C":
        if nc == n * n + n:
            return f"sp({2 * n},R)"
        p, q = _split_product(nc // 4, n)
        return f"sp({p})" if q == 0 else f"sp({p},{q})"
    if letter != "D":
        raise RuntimeError(f"no real form names for type {letter}")
    if not equal:
        a, b = _split_product(nc // 4, n - 1)
        return f"so({2 * a + 1},{2 * b + 1})"
    if iota:
        star = f"so*({2 * n})"
        if n % 2 == 0:
            star += "[1,0]" if iota == 1 else "[0,1]"
        return star
    p, q = _split_product(nc, 2 * n)
    return f"so({p})" if q == 0 else f"so({p},{q})"


def strong_orbits(square_class: int, parts: list[tuple[int, int]]) -> tuple[StrongOrbit, ...]:
    """Report entries of the (form, size) orbits of one fiber.

    The fiber's members are numbered orbit by orbit, most split form
    first and orbits of one form in the given order, so member 0 always
    sits in the most split orbit.
    """
    out = []
    start = 0
    for form, size in sorted(parts, key=lambda p: -p[0]):
        out.append(StrongOrbit(square_class, form, tuple(range(start, start + size))))
        start += size
    return tuple(out)


# -- report formatting -----------------------------------------------------


def format_real_form_menu(ic: InnerClass) -> list[str]:
    """Menu lines listing the weak real forms."""
    lines = ["(weak) real forms are:"]
    lines.extend(f"{f.index}: {f.name}" for f in ic.real_forms)
    return lines


def format_strong_real(
    report: tuple[tuple[int, tuple[StrongOrbit, ...]], ...]
) -> list[str]:
    """Report lines for the strong real forms at one Cartan class."""

    def orbit_lines(entries: tuple[StrongOrbit, ...]) -> list[str]:
        return [
            "real form #{}: [{}] ({})".format(
                e.form, ",".join(str(m) for m in e.members), len(e.members)
            )
            for e in entries
        ]

    if len(report) == 1:
        return orbit_lines(report[0][1])
    lines = [f"there are {len(report)} real form classes:"]
    for idx, entries in report:
        lines.append("")
        lines.append(f"class #{idx}:")
        lines.extend(orbit_lines(entries))
    return lines


# -- module-level operations -------------------------------------------------


def inner_class(letters: str, rd: RootDatum, lt: LieType) -> InnerClass:
    """Builds the full inner-class context from the letter string."""
    return InnerClass(inner_class_involution(letters, rd, lt))
