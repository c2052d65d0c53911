"""Weak real forms: the base fiber's orbits, their names, and the descent.

The weak real forms of an inner class are the orbits of the imaginary
Weyl group on the adjoint fiber over the base involution 0: the images
of the cross-action orbits on the fibers over 0 (fundamental_orbits).
Each is named per unit of delta.units from its noncompact root counts
and, for an equal-rank D factor, its half-spin tag.  real_form_of
checks the square of x and descends from x to involution 0 (_descend)
by moves along simple roots (lattice.move), cross actions and inverse
Cayley transforms, and reads the form off the base point's gradings at
imaginary_basis(0), from the base's grading row (InnerClass._grading_row).
The report lines of the menu and of the strong real forms at a Cartan
class, one orbit line each (orbit_lines, which the Cartan report prints
too), are built here too.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt
from operator import mul
from typing import NamedTuple

from . import lin
from .diagram import cartan_smith
from .fiber import FiberOrbit
from .lattice import StrongX, move
from .rootdata import Factor, InputError
from .squares import SquareClass
from .weyl import COMPLEX_DOWN, REAL


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


class FundamentalFiber(NamedTuple):
    """The base fiber's orbits and what they number (RealForms._fundamental)."""

    orbits: tuple[FiberOrbit, ...]
    forms: tuple[tuple, ...]
    square_classes: tuple[SquareClass, ...]
    form_at: dict[tuple[bool, ...], int]


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


class RealForms:
    """The weak real forms of an inner class, numbered by the base fiber.

    InnerClass inherits it.  It reads delta, lt, the table and denom, the
    base fiber's orbits (Fibers._orbit_partition), the realized square
    classes and the class of a square (central_class_key), the gradings
    (gradings, grading, _grading_row and _strong), and the moves along
    simple roots (InnerClass._step, lattice.move).
    real_forms, which format_real_form_menu reads, is defined on
    InnerClass.
    """

    real_forms: tuple[RealFormLabel, ...]

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
        their gradings at basis = imaginary_basis(0), and forms is (nc,
        iota, quasisplit) of each form, in menu order.  nc counts the noncompact imaginary
        roots, positive and negative, of each internal factor and iota is
        the half-spin tag of each factor, both at the first member of a
        form's first base-fiber orbit.  A form is quasisplit when the
        all-noncompact grading is one of its points.  The menu sorts the
        forms by (total nc, zip(nc, iota)).  That key cannot tie: it
        determines the name of every unit (_form_name), and the names of
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
        )

    def _iota_tag(self, bits: dict[int, bool], f: Factor, rng: tuple[int, ...]) -> int:
        """Distinguishes the two half-spin gradings of an equal-rank D factor.

        bits maps the roots of imaginary_basis(0) to their gradings at a
        base-fiber point.  The factor's simple roots are imaginary simple at
        0, and their gradings are the pairings 2 <alpha_j, t> / denom mod 2.
        The tag solves in the one Smith form of D_r (diagram.cartan_smith):
        the factor's block of rd.cartan is Bourbaki's, as build_root_datum
        checks, and symmetric.
        0: not applicable or orthogonal type; 1, 2: the two spin cosets.
        """
        if f.letter != "D" or any(self.delta.perm[p] != p for p in rng):
            return 0
        pair = [int(bits[self.table.simple[j]]) for j in rng]
        r = f.rank
        sf = cartan_smith("D", r)
        for tag, shifts in ((0, ()), (0, (r - 2, r - 1)), (1, (r - 2,)), (2, (r - 1,))):
            b = list(pair)
            for shift in shifts:
                b[shift] -= 1
            if lin.solve_mod_presolved(sf, tuple(b), 2) is not None:
                return tag
        raise RuntimeError("unclassified half-spin coset")

    def _form_name(self, nc: tuple[int, ...], iota: tuple[int, ...]) -> str:
        """Name of the weak form with these noncompact counts and half-spin
        tags (FundamentalFiber.forms), one part per unit of delta.units: a
        torus factor by its letter, a complex pair by its factor, any other
        unit by its factor's nc and iota among those of all the weak forms.
        """
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
                values = sorted({g[0][fac] for g in self._fundamental.forms})
                names.append(_factor_form_name(f, equal, nc[fac], values, iota[fac]))
        return ".".join(names)

    @property
    def fundamental_orbits(self) -> tuple[FiberOrbit, ...]:
        """Orbits on the fiber over involution 0, numbering the KGB seeds
        (kgb.seed_orbit) in the order of _orbit_partition(0)."""
        return self._fundamental.orbits

    @property
    def square_classes(self) -> tuple[SquareClass, ...]:
        """Realized square classes, numbered from the quasisplit form down."""
        return self._fundamental.square_classes

    def real_form_of(self, x: StrongX) -> int:
        """Weak real form of a strong involution, by descent to the base
        (_descend).  Raises InputError when x is not a strong involution of
        the table (_strong), or when its square is not central and
        delta-fixed.

        Every central, delta-fixed square of a point over the table lies in
        a realized square class, so none is refused for its class: _descend
        reaches a point over the base involution from x by cross actions,
        torus conjugations and inverse Cayley transforms, which keep the
        square, and a class is realized when a strong involution over the
        base involution squares into it (squares).
        """
        try:
            self._central_reduce(self._square_numerators(self._strong(x)), self.denom)
        except RuntimeError:
            raise InputError(
                f"no strong involution {x!r}: its square is not central and delta-fixed"
            ) from None
        return self._descend(x)

    def _descend(self, x: StrongX) -> int:
        """real_form_of of x, unchecked: cartan_orbits calls it on fiber points.

        t is a numerator vector over d, denom at the start.  Each step
        lowers the twisted length by one and pairs alpha_j with t once, c =
        <alpha_j, t>, as a KGB step does, and moves t along j (lattice.move):
        - At the first simple root j that is a complex descent, it is the
          cross action, as InnerClass._step gives it.
        - Otherwise, at the first real j with d/2 + c even, it is the first
          inverse Cayley candidate (nbr, u), u = s_j t + e alpha_j^v:
          alpha_j, simple imaginary at nbr, is noncompact at it exactly
          when <alpha_j, u> = 2e - c = d/2 mod d (root_grading).  With r =
          d/2 + c mod d, e = r/2 is the first, so t moves by c - r/2 in
          place of c.  The Cayley image of the candidate is (inv, t - (r/2)
          alpha_j^v), which is x conjugated by the torus: theta* alpha_j^v
          = -alpha_j^v, so (r/2) alpha_j^v = (1 - theta*) (r/4) alpha_j^v.
          So the candidate has the square of x and the KGB element of x.
        A step always exists.  At positive twisted length theta is not
        delta, so it sends some simple root to a negative root, and that
        root is a complex descent or real.  When d/2 + c is odd at every
        real j, as at (1, (1,)) in adjoint A1 s, t / d is rewritten as the
        same cocharacter 2t / 2d, and the first real j is taken: then c is
        even, and so is the new d/2, the old d, as denom is a multiple of 4.
        Over d alone a step need not exist: the torus conjugations over d
        shift t by the integral cocharacters that theta* negates, and when
        alpha_j pairs evenly with all of them, as in GL(2) = A1.T1 / (1/2,
        1/2), they keep the parity of c.
        The descent keys nothing, and ends at the point of the base point in
        the adjoint fiber: its gradings at imaginary_basis(0), the offsets of
        the base's grading row taken over d, kept by torus conjugation and
        reduction mod d, whose adjoint orbit is the weak form
        (_fundamental).  The form does not depend on the path: cross
        actions, Cayley transforms and torus conjugation preserve it.
        Raises RuntimeError when a row of positive length has neither a
        complex descent nor a real root, which only a corrupt table gives,
        or when a candidate over denom is compact (grading), which its
        choice rules out unless the grading is wrong.
        """
        inv, t = x
        table, d = self.table, self.denom
        while table.lengths[inv] > 0:
            kinds = table.kinds(inv)
            j = kinds.find(COMPLEX_DOWN)
            if j >= 0:
                _, inv, a, av, gamma = self._step(inv, j)
                t = move(t, sum(map(mul, a, t)), av, gamma, d)
                continue
            h = d // 2
            for j, kind in enumerate(kinds):
                if kind == REAL:
                    _, nbr, a, av, _ = self._step(inv, j)
                    c = sum(map(mul, a, t))
                    if (h + c) % 2 == 0:
                        break
            else:
                j = kinds.find(REAL)
                if j < 0:
                    raise RuntimeError("strong involution admits no descent")
                _, nbr, a, av, _ = self._step(inv, j)
                t, d, h = tuple([2 * v for v in t]), 2 * d, d
                c = sum(map(mul, a, t))
            inv, t = nbr, move(t, c - (h + c) % d // 2, av, None, d)
            if d == self.denom and not self.grading((inv, t), j):
                raise RuntimeError("an inverse Cayley candidate is compact")
        scale = d // self.denom
        row = self._grading_row(0)
        point = tuple([
            (2 * sum(map(mul, a, t)) + scale * off) % (2 * d) == 0
            for a, off in map(row.__getitem__, table.imaginary_basis(0))
        ])
        return self._fundamental.form_at[point]


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


def format_real_form_menu(ic: RealForms) -> list[str]:
    """Menu lines listing the weak real forms."""
    lines = ["(weak) real forms are:"]
    lines.extend(f"{f.index}: {f.name}" for f in ic.real_forms)
    return lines


def orbit_lines(entries: tuple[StrongOrbit, ...]) -> list[str]:
    """One line per orbit, "real form #f: [m,...] (size)", as the strong
    real forms and the Cartan report (cartan.format_cartan_block) print it."""
    return [
        f"real form #{e.form}: [{','.join(map(str, e.members))}] ({len(e.members)})"
        for e in entries
    ]


def format_strong_real(
    report: tuple[tuple[int, tuple[StrongOrbit, ...]], ...]
) -> list[str]:
    """Report lines for the strong real forms at one Cartan class."""
    if len(report) == 1:
        return orbit_lines(report[0][1])
    lines = [f"there are {len(report)} real form classes:"]
    for idx, entries in report:
        lines.append("")
        lines.append(f"class #{idx}:")
        lines.extend(orbit_lines(entries))
    return lines
