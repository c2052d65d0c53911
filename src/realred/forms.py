"""Weak real forms: the base fiber's orbits, their names, and the descent.

The weak real forms of an inner class are the orbits of the imaginary
Weyl group on the adjoint fiber over the base involution 0: the images
of the cross-action orbits on the fibers over 0 (fundamental_orbits).
Each is named per unit of delta.units from its noncompact root counts
and, for an equal-rank D factor, its half-spin tag.  real_form_of
descends from x to involution 0, pairing alpha_j with t once per step,
a cross action or an inverse Cayley transform, and reads the form off
the base point's gradings.  The report lines of the menu and of the
strong real forms at a Cartan class are built here too.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt
from operator import mul
from typing import NamedTuple

from . import lin
from .fiber import FiberOrbit
from .lattice import StrongX
from .rootdata import Factor
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
    """The base fiber's orbits and what they number (RealForms._fundamental).

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


class RealForms:
    """The weak real forms of an inner class, numbered by the base fiber.

    InnerClass inherits it.  It reads delta, lt, rd, the table and denom,
    the base fiber's orbits (Fibers._orbit_partition), the realized square
    classes, and the gradings (gradings, grading, _grading_offset and
    _strong).  real_forms, which format_real_form_menu reads, is defined
    on InnerClass.
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
        their gradings at basis = imaginary_basis(0), row the grading row
        at basis (FundamentalFiber), and forms is (nc, iota, quasisplit)
        of each form, in menu order.  nc counts the noncompact imaginary
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
