"""Twisted-conjugacy classes of the table of twisted involutions.

TwistedConjugacy is the base of weyl.InvolutionTable that joins the
involutions into classes and names each class by a canonical member; it
reads the table's status rows, roots and words.  What the classes share
with the rest of weyl lives here too: the kinds of a simple root at a
twisted involution, which the status rows are written in, and the walk
(_walk) on the pairings of a weight with the simple coroots, which both
the reduced words and the canonical walk take.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from . import lin

IMAGINARY = "i"
REAL = "r"
COMPLEX_UP = "+"
COMPLEX_DOWN = "-"


def _walk(cartan: lin.Matrix, pairing: list[int], js: Sequence[int]) -> list[int]:
    """Reflects pairing, the <v, alpha_k^v> of some v, in place at the
    first j in js with pairing[j] < 0 until none is left; returns the j."""
    letters = []
    while True:
        for j in js:
            if pairing[j] < 0:
                break
        else:
            return letters
        letters.append(j)
        _reflect_pairing(cartan, pairing, j)


def _reflect_pairing(cartan: lin.Matrix, pairing: list[int], j: int) -> None:
    # <s_j v, alpha_k^v> = <v, alpha_k^v> - <v, alpha_j^v> <alpha_j, alpha_k^v>
    c = pairing[j]
    for k, a in enumerate(cartan[j]):
        pairing[k] -= c * a


class TwistedClasses(NamedTuple):
    """The twisted-conjugacy classes of a table, built by
    TwistedConjugacy._class_record: the member ids of each class, the
    class of each id, and each class's canonical member."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    canonical: tuple[int, ...]


class TwistedConjugacy:
    """The classes of weyl.InvolutionTable, which keeps classes itself.

    A subclass provides rd, simple, reflections, the flat status rows
    _kinds and _nbrs with status, and cayley, word, word_length, _roots
    and imaginary_basis.
    """

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        return self._class_record.class_of

    def canonical_member(self, class_idx: int) -> int:
        """Distinguished class member used for display and transforms.

        Among the members at which lambda, 2 rho of the positive real
        roots, is dominant, and mu, 2 rho of the positive imaginary roots,
        pairs nonnegatively with the simple coroots orthogonal to lambda,
        it is the one whose word is least by (length, word): the walk of
        _walk_canonical from any member, recorded by _class_record.
        """
        return self._class_record.canonical[self._id(class_idx, len(self.classes), "class")]

    @cached_property
    def _class_record(self) -> TwistedClasses:
        """The classes, class_of and canonical members, in one pass in id order.

        Ids grow with the twisted length, and a complex cross action
        conjugates within a class, so an involution with a complex descent
        joins the class of that lower neighbour, the first one its status
        row names.  The involutions without one are the roots of this
        forest of complex descents; each root is named by its canonical
        member, which _walk_canonical finds from any start, and the roots
        with one name make one class.  Starting from the class of the base
        involution, each class in turn then contributes the unseen classes
        reached by single Cayley transforms from its canonical member,
        scanning its imaginary basis in order.  Raises RuntimeError when a
        descent does not go down in id, a root and its canonical member
        differ in their counts of real and imaginary roots, or a canonical
        member's own root is named by another member.
        """
        n = len(self.simple)
        nbrs, find = self._nbrs, self._kinds.find
        group: list[int] = []
        members: list[list[int]] = []
        canonical: list[int] = []
        by_canonical: dict[int, int] = {}
        for i in range(len(self)):
            p = find(COMPLEX_DOWN, i * n, i * n + n)
            if p < 0:
                c = self._walk_canonical(i)
                if self._root_counts(c) != self._root_counts(i):
                    raise RuntimeError(f"the canonical walk from {i} leaves its class")
                g = by_canonical.get(c)
                if g is None:
                    g = by_canonical[c] = len(members)
                    members.append([])
                    canonical.append(c)
            else:
                lower = nbrs[p]
                if lower >= i:
                    raise RuntimeError(f"the complex descent of involution {i} does not go down")
                g = group[lower]
            group.append(g)
            members[g].append(i)
        for g, c in enumerate(canonical):
            if group[c] != g:
                raise RuntimeError(f"canonical member {c} lies in the class of another")
        order = [0]
        seen = {0}
        for g in order:
            rep = canonical[g]
            for b in self.imaginary_basis(rep):
                h = group[self.cayley(rep, b)]
                if h not in seen:
                    seen.add(h)
                    order.append(h)
        if len(order) != len(members):
            raise RuntimeError("Cayley transforms do not reach every class")
        rank = [0] * len(order)
        for c, g in enumerate(order):
            rank[g] = c
        return TwistedClasses(
            tuple(tuple(members[g]) for g in order),
            tuple(map(rank.__getitem__, group)),
            tuple(canonical[g] for g in order),
        )

    def _root_counts(self, i: int) -> tuple[int, int]:
        """Counts of real and imaginary roots, invariants of the class of i."""
        return len(self._roots(i, len(self.reflections))), len(self._roots(i, 0))

    def _two_rho_pairings(self, roots: Sequence[int]) -> list[int]:
        """Pairings of the sum of the given positive roots with the simple coroots."""
        vec = lin.zero_vector(self.rd.rank)
        for k in roots:
            vec = lin.vec_add(vec, self.rd.roots[k])
        return [lin.vec_dot(vec, av) for av in self.rd.simple_coroots]

    def _walk_canonical(self, i: int) -> int:
        """Canonical member of the class of i, by a walk from i.

        A complex cross action at j moves lambda and mu by s_j, since s_j
        permutes the positive roots other than alpha_j.  Moving at a j
        with lambda_j < 0 raises lambda in the dominance order until it
        is dominant; then moving at a j with lambda_j = 0 > mu_j does the
        same for mu and fixes lambda.  Such a j is complex: a real simple
        root pairs to 2 with lambda and to 0 with mu, an imaginary one to
        0 and 2.  If theta_2 = w theta_1 w^-1 and both give (lambda, mu),
        w may be taken to carry the positive real and imaginary roots of
        theta_1 to those of theta_2, since W(real) x W(imaginary)
        centralizes theta_2; then w fixes lambda and mu, so it lies in the
        parabolic W_J, J the simple roots with lambda_j = mu_j = 0.  Each
        j in J is complex and keeps (lambda, mu), so the search through J
        reaches every candidate, and the result is the same from every
        member of the class.  Candidates are compared by word_length first,
        so words are built only to break a tie at the least length.
        """
        js = range(len(self.simple))
        for shift in (len(self.reflections), 0):
            pairing = self._two_rho_pairings(self._roots(i, shift))
            for j in _walk(self.rd.cartan, pairing, js):
                i = self._complex_neighbour(i, j)
            js = [j for j in js if pairing[j] == 0]
        cands = [i]
        seen = {i}
        for m in cands:
            for j in js:
                nbr = self._complex_neighbour(m, j)
                if nbr not in seen:
                    seen.add(nbr)
                    cands.append(nbr)
        lengths = [self.word_length(m) for m in cands]
        least = min(lengths)
        ties = [m for m, ln in zip(cands, lengths) if ln == least]
        return ties[0] if len(ties) == 1 else min(ties, key=self.word)

    def _complex_neighbour(self, i: int, j: int) -> int:
        kind, nbr = self.status(i, j)
        if kind not in (COMPLEX_UP, COMPLEX_DOWN):
            raise RuntimeError(f"simple root {j} is not complex at involution {i}")
        return nbr
