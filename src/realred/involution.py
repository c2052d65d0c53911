"""The inner class: strong involutions, their gradings, and per-Cartan queries.

A strong involution is represented by a pair x = (i, t) where i indexes
a twisted involution and t is a rational cocharacter stored as an
integer vector over the context-wide denominator (squares).  Whether an
imaginary root is noncompact at x is one parity in closed form
(root_grading): a pairing with t plus the root's heights over the simple
roots and over the imaginary simple roots.  The per-Cartan queries grade
x at every imaginary root at once (gradings), from one row per
involution of each root's vector and height offset, so a grading is one
pairing.

InnerClass is the one entry object, one per (root datum, involution),
and it inherits each other layer from the module of its concept: the
central square classes and denom (squares.SquareClasses), the fibers and
the cross-action orbits on them (fiber.Fibers), and the weak real forms
with their names and the descent to the base (forms.RealForms).  It
keeps the lattice records (lattice.InvolutionLattice) and the keys, the
cross actions, Cayley transforms and gradings, and the queries at one
Cartan class.  None of those modules imports this one.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from . import lin
from .delta import InnerClassInvolution, inner_class_involution
from .fiber import Fiber, FiberOrbit, Fibers, span, subset_order
from .forms import RealFormLabel, RealForms, StrongOrbit, strong_orbits
from .lattice import InvolutionLattice, RankDecomposition, StrongX
from .rootdata import InputError, LieType, RootDatum
from .squares import SquareClasses
from .weyl import (
    COMPLEX_DOWN,
    COMPLEX_UP,
    IMAGINARY,
    REAL,
    InvolutionTable,
    involution_table,
)


class InnerClass(RealForms, Fibers, SquareClasses):
    """All strong real form data for one inner class of real forms.

    The square classes, fibers and weak real forms are inherited from
    SquareClasses, Fibers and RealForms, which read this class's records.
    """

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
        are kept.  Raises InputError unless inv is an int, on every call,
        since a bool id equals an int one and would read its record, and
        on a miss unless inv numbers a row of the table.
        """
        out = self._lattices.get(inv)
        if out is None or type(inv) is not int:
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
        entries and i is an int, not a bool, and, when i has no record
        yet, unless i numbers a row of the table (lattice); a KGB search
        keys only ids of the table.
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

    @cached_property
    def real_forms(self) -> tuple[RealFormLabel, ...]:
        """Weak real forms of the inner class, most compact first.

        Each is named by RealForms._form_name, and its rep and square class
        are those of its first fundamental orbit.  It is defined here, not
        on RealForms, since the benchmark's traced pass finds it in this
        class's dictionary, with cross, x_key, fiber_elements and
        strong_count.
        """
        fundamental = self._fundamental
        labels = []
        for idx, (nc, iota, quasisplit) in enumerate(fundamental.forms):
            first = next(o for o in fundamental.orbits if o.form == idx)
            labels.append(RealFormLabel(
                index=idx,
                name=self._form_name(nc, iota),
                quasisplit=quasisplit,
                square_class=first.square_class,
                rep=first.members[0],
            ))
        return tuple(labels)

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


# -- module-level operations -------------------------------------------------


def inner_class(letters: str, rd: RootDatum, lt: LieType) -> InnerClass:
    """Builds the full inner-class context from the letter string."""
    return InnerClass(inner_class_involution(letters, rd, lt))
