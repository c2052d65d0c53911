"""Orbits of a real form on the flag variety, with their cross and
Cayley structure.

Elements are strong involutions (twisted involution, torus part) up to
conjugacy, generated from one fundamental-fiber orbit by simple cross
actions and by Cayley transforms through noncompact imaginary simple
roots.  Ids are assigned by (length, Cartan class, canonical key), where
length is the twisted length of the element's twisted involution
(InvolutionTable.lengths): complex cross actions move it by one, Cayley
transforms raise it by one, and other cross actions keep it.  The key
(InnerClass.x_key) pairs the torus part with a basis of the theta-fixed
characters, so the ids within one twisted involution depend on that
basis, and it depends on the twisted involution alone
(InnerClass.lattice): the Smith rows of 1 - theta* at the nearest
involution without a complex descent, moved along the complex descents
in between.  Only those records read theta*.  W acts on
KGB, so s_j is an involution: the discovery pass computes each unordered
cross edge once and fills it back at its far end, and leaves fixed
points unkeyed (a cross image equal to its source, as at every compact
imaginary root, takes the source's id).  Every real root is such a
point, and there the pass pairs nothing: s_j t = t - <alpha_j, t>
alpha_j^v, and a theta-fixed character r pairs to 0 with the real
coroot alpha_j^v, as <r, alpha_j^v> = <r, theta* alpha_j^v> = -<r,
alpha_j^v>, so s_j x has the key of x.  It keys one Cayley transform
per type-I pair: at a noncompact imaginary j with s_j x not x, x and
s_j x have one Cayley image, so the second of them to be processed reads
the first's.  The pass numbers the elements in the order it finds them
and records the edges by those provisional ids; one sort of the keys
relabels them.  It builds no words: the word column of a listing is
read from the table when the listing is printed (format_kgb, KGB.word).

Each step of the pass, one element x = (i, t) and one simple root j
that is not real, pairs alpha_j with t once: that pairing moves t along
j (InnerClass._step, lattice.move) and, at an imaginary j, gives the
grading with offset denom (InnerClass.grading), so a step builds no
lattice record and no grading row.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .involution import InnerClass
from .lattice import StrongX, move
from .rootdata import InputError
from .weyl import COMPLEX_DOWN, COMPLEX_UP, IMAGINARY, REAL, InvolutionTable

# status letter of a simple root, by root kind
_LETTER = {IMAGINARY: "c", REAL: "r", COMPLEX_UP: "C", COMPLEX_DOWN: "C"}


class KGBElement(NamedTuple):
    """One orbit, with its per-simple-root status and neighbours.

    The status letter for a simple root is "c" (compact imaginary), "n"
    (noncompact imaginary), "r" (real) or "C" (complex).  Cayley entries
    are present exactly at the noncompact imaginary roots.
    """

    id: int
    length: int
    cartan: int
    statuses: tuple[str, ...]
    cross: tuple[int, ...]
    cayley: tuple[int | None, ...]
    rep: StrongX


class KGB(NamedTuple):
    """The orbit set of one real form, as a cross/Cayley graph, with the
    involution table of its inner class, which gives the words."""

    form: int
    orbit: int
    elements: tuple[KGBElement, ...]
    table: InvolutionTable

    @property
    def size(self) -> int:
        return len(self.elements)

    def word(self, i: int) -> tuple[int, ...]:
        """Reduced word of the twisted involution of element i, built by
        the table on first request and kept there.  Raises IndexError
        unless i is an id of the listing, as the table readers do."""
        e = self.elements[self.table._id(i, self.size, "KGB element")]
        return self.table.word(e.rep[0])


def seed_orbit(ic: InnerClass, form: int, orbit: int | None = None) -> int:
    """Index in ic.fundamental_orbits of the orbit the generation starts from.

    Defaults to the first orbit realizing the form; an explicit orbit
    selects one strong form among several with the same underlying weak
    form.
    """
    ic.check(form=form)
    forms = [o.form for o in ic.fundamental_orbits]
    if orbit is None:
        return forms.index(form)
    if type(orbit) is not int or not 0 <= orbit < len(forms) or forms[orbit] != form:
        raise InputError("orbit does not realize the requested real form")
    return orbit


def generate_kgb(ic: InnerClass, form: int, orbit: int | None = None) -> KGB:
    """All orbits of the real form, from ic.fundamental_orbits[orbit] (seed_orbit).

    One breadth-first pass, as the module docstring describes.  found
    gives each key its provisional id, the order in which the search met
    it (InnerClass._key, x_key without its input checks), and lists by
    that id hold the rep, the ids of the cross images and the row of
    status letters and Cayley ids; reps, which starts with the seeds and
    grows as the search goes, is its queue.  A Cayley
    image is keyed once per type-I pair: (nbr, s_j t) and (nbr, t)
    differ by a multiple of alpha_j^v, real at nbr, which the key rows of
    nbr pair to 0, so the partner with the lower id gives it.  Each step
    reads InnerClass._step, kept in one row per involution for the call,
    and moves t once (lattice.move): that is the cross image, and at an
    imaginary j where 2 <alpha_j, t> + denom is 0 mod 2 denom, so that
    alpha_j is noncompact (InnerClass.grading), it is the Cayley
    transform over nbr too.  Sorting the keys by (length, Cartan class,
    key) gives the final ids.  No word is built.
    """
    orbit = seed_orbit(ic, form, orbit)
    table = ic.table
    key_of = ic._key
    d = ic.denom
    n = len(table.simple)

    # id by key; by id, the rep, the cross ids (filled in from both ends)
    # and the (status letters, Cayley ids) row
    found, reps, crosses, rows = {}, [], [], []
    # the steps of the simple roots at each twisted involution met
    steps: dict[int, list[tuple]] = {}

    def record(y: StrongX) -> int:
        key = key_of(y)
        q = found.get(key)
        if q is None:
            q = found[key] = len(reps)
            reps.append(y)
            crosses.append([None] * n)
        return q

    for x in ic.fundamental_orbits[orbit].members:
        record(x)

    for p, (inv, t) in enumerate(reps):
        row = steps.get(inv)
        if row is None:
            row = steps[inv] = [ic._step(inv, j) for j in range(n)]
        cross = crosses[p]
        statuses = [_LETTER[step[0]] for step in row]
        cayley = [None] * n
        for j, (kind, nbr, a, av, gamma) in enumerate(row):
            todo = cross[j] is None
            if kind == REAL:
                # the key rows pair to 0 with a real coroot: s_j x = x
                cross[j] = p
            elif gamma is not None:
                if todo:
                    cross[j] = q = record((nbr, move(t, sum(map(mul, a, t)), av, gamma, d)))
                    crosses[q][j] = p
            else:
                c = sum(map(mul, a, t))
                # reps are reduced mod d, so y = t when c = 0
                y = move(t, c, av, None, d) if c else t
                if todo:
                    cross[j] = q = p if y == t else record((inv, y))
                    crosses[q][j] = p
                if (2 * c + d) % (2 * d) == 0:
                    statuses[j] = "n"
                    # a partner processed already found the pair's image
                    q = cross[j]
                    cayley[j] = record((nbr, y)) if q >= p else rows[q][1][j]
        rows.append((tuple(statuses), cayley))

    lengths, class_of = table.lengths, table.class_of
    # the provisional ids in the final order, and the final id of each
    order = [found[k] for k in sorted(found, key=lambda k: (lengths[k[0]], class_of[k[0]], k))]
    final = [0] * len(reps)
    for i, p in enumerate(order):
        final[p] = i
    elements = tuple(
        KGBElement(i, lengths[reps[p][0]], class_of[reps[p][0]], rows[p][0],
                   tuple([final[q] for q in crosses[p]]),
                   tuple([None if q is None else final[q] for q in rows[p][1]]), reps[p])
        for i, p in enumerate(order)
    )
    return KGB(form=form, orbit=orbit, elements=elements, table=table)


def format_kgb(kgb: KGB) -> list[str]:
    """One line per element, in the fixed column layout.

    Columns: id, length, Cartan class, status letters, cross images,
    Cayley images ("*" where absent), and the reduced word of the
    twisted involution (1-based, empty for the identity).  The words are
    read from the table (KGB.word), so each is built once per involution,
    when a listing first shows it.
    """
    idw = len(str(kgb.size - 1))
    fw = idw + 2
    lines = []
    for e in kgb.elements:
        row = f"{e.id:>{idw}}:{e.length:>3}{e.cartan:>3}"
        row += "  [" + ",".join(e.statuses) + "]"
        row += " " + "".join(f"{t:>{fw}}" for t in e.cross)
        row += "  " + "".join(
            f"{'*' if t is None else t:>{fw}}" for t in e.cayley
        )
        row += "  " + ",".join(str(j + 1) for j in kgb.table.word(e.rep[0]))
        lines.append(row.rstrip())
    return lines
