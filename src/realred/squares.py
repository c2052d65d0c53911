"""Central square classes, and the denominator of every torus part.

A strong involution x = (i, t) squares to a central element z with
delta(z) = z, and its square class is z modulo the shifts z' delta(z')
by central z'.  Cocharacters are stored as integer numerators over one
denominator per context: square-class keys over cd, the lcm of the
Smith divisors of the constraints cutting out the delta-fixed central
cocharacters, and torus parts over denom, twice the lcm of 2 and the
denominators of the realized classes' representatives.  So no rational
arithmetic is done.  A class is realized when a strong involution over
the base involution squares into it.  Its key is the least translate of
its reduced coordinates, and the realized classes are numbered from the
quasisplit real form down (forms.RealForms.square_classes).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from . import lin
from .lattice import StrongX


class SquareClass(NamedTuple):
    """One class of central square values realized by strong involutions."""

    index: int
    key: tuple[int, ...]


class SquareClasses:
    """The central square-class layer of an inner class.

    InnerClass inherits it, and it reads rd, the root datum, _dstar, the
    matrix of delta on cocharacters, and lattice, the lattice records.
    """

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

    def _square_numerators(self, x: StrongX) -> lin.Vector:
        """Numerators over denom of the square value of x."""
        inv, t = x
        lat = self.lattice(inv)
        return lin.vec_add(
            lin.vec_add(t, lin.mat_vec(lat.theta_star, t)),
            lin.vec_scale(lat.cbits, self.denom // 2),
        )
