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
imaginary root, takes the source's key).  Every real root is such a
point, and there the pass pairs nothing: s_j t = t - <alpha_j, t>
alpha_j^v, and a theta-fixed character r pairs to 0 with the real
coroot alpha_j^v, as <r, alpha_j^v> = <r, theta* alpha_j^v> = -<r,
alpha_j^v>, so s_j x has the key of x.  It keys one Cayley transform
per type-I pair: at a noncompact imaginary j with s_j x not x, x and
s_j x have one Cayley image, so the second of them to be processed reads
the first's key.  It records the edges by key; the ids only relabel
them.  It builds no words: the word column of a listing is read from the
table when the listing is printed (format_kgb, KGB.word).

Each step of the pass, one element x = (i, t) and one simple root j
that is not real, pairs alpha_j with t once.  The reflection y = s_j t
mod denom gives the cross image: (i, y) at an imaginary j, and y plus
(denom/2) gamma^v at a complex j (InnerClass._complex_shift).  At an
imaginary j the same pairing gives the grading.  When j is noncompact
there, y is also the torus part of the Cayley transform: the Cayley
transform and the imaginary cross action both reflect t by s_j and
differ only in the twisted involution (InnerClass.cayley).  The
neighbours, coroots gamma^v and grading offsets come from one step row
per twisted involution, built when the pass first meets it and dropped
with the call.  The offset of a simple imaginary root is denom
(InnerClass._grading_offset), so a step row builds no lattice record and
reads no heights.
"""

from __future__ import annotations

from collections import deque
from operator import mul
from typing import NamedTuple

from .involution import InnerClass
from .lattice import StrongX
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
        the table on first request and kept there."""
        return self.table.word(self.elements[i].rep[0])


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

    One breadth-first pass: each element records its status letters and
    the keys of its cross and Cayley images as the search meets them;
    ids replace the keys once the elements are sorted.  Each unordered
    cross edge is computed once; fixed points are unkeyed, and a real j
    is one without a pairing, since the key rows pair to 0 with a real
    coroot.  W acts on KGB, so s_j is an involution: y = cross_j(x) has
    x as its j-th cross image, recorded when y is met and not recomputed
    when y is processed.
    Each Cayley image is keyed once per type-I pair: at a noncompact
    imaginary j with y = s_j x not x, x and y have one Cayley image, since
    (nbr, s_j t) and (nbr, t) differ by a multiple of alpha_j^v, real at
    nbr, which the key rows of nbr pair to 0.  So the later of x and y to
    be processed takes the earlier one's Cayley key.  No word is built.

    Each (element, simple root) step reads the step row of the element's
    twisted involution (_step_row) and pairs alpha_j with t once, at a
    j that is not real.  With c = <alpha_j, t> and d = denom, y = t - c
    alpha_j^v mod d is the cross image (InnerClass.cross) at an
    imaginary j; at a complex j it is y plus (d/2) gamma^v, gamma^v read
    off the row.  At an imaginary j, alpha_j is noncompact exactly when
    2c plus the row's offset is 0 mod 2d (InnerClass.root_grading), and
    then (nbr, y) is the Cayley transform (InnerClass.cayley).
    """
    orbit = seed_orbit(ic, form, orbit)
    table = ic.table
    x_key = ic.x_key
    d = ic.denom
    h = d // 2
    n = len(table.simple)

    reps: dict[tuple, StrongX] = {}
    # the keys of each element's cross images, filled in from both ends
    crosses: dict[tuple, list] = {}
    edges: dict[tuple, tuple[tuple[str, ...], list]] = {}
    # the step row of each twisted involution met
    steps: dict[int, list[tuple]] = {}
    queue: deque[tuple] = deque()

    def record(y: StrongX) -> tuple:
        key = x_key(y)
        if key not in reps:
            reps[key] = y
            crosses[key] = [None] * n
            queue.append(key)
        return key

    for x in ic.fundamental_orbits[orbit].members:
        record(x)

    while queue:
        key = queue.popleft()
        inv, t = reps[key]
        row = steps.get(inv)
        if row is None:
            row = steps[inv] = _step_row(ic, inv)
        cross = crosses[key]
        statuses, cayley = [], []
        for j, (letter, nbr, a, av, gamma, offset) in enumerate(row):
            todo = cross[j] is None
            noncompact = False
            if letter == "r":
                # the key rows pair to 0 with a real coroot: s_j x = x
                cross[j] = key
            elif todo or offset is not None:
                c = sum(map(mul, a, t))
                if gamma is not None:
                    y = tuple([(u - c * v + h * g) % d for u, v, g in zip(t, av, gamma)])
                    cross[j] = k = record((nbr, y))
                    crosses[k][j] = key
                else:
                    # reps are reduced mod d, so y = t when c = 0
                    y = tuple([(u - c * v) % d for u, v in zip(t, av)]) if c else t
                    if todo:
                        cross[j] = k = key if y == t else record((inv, y))
                        crosses[k][j] = key
                    noncompact = (2 * c + offset) % (2 * d) == 0
            statuses.append("n" if noncompact else letter)
            if noncompact:
                # the partner, when processed already, keyed the pair's image
                done = edges.get(cross[j])
                cayley.append(record((nbr, y)) if done is None else done[1][j])
            else:
                cayley.append(None)
        edges[key] = (tuple(statuses), cayley)

    lengths, class_of = table.lengths, table.class_of
    order = sorted(reps, key=lambda key: (lengths[key[0]], class_of[key[0]], key))
    ids = {key: i for i, key in enumerate(order)}
    elements = tuple(
        KGBElement(
            i,
            lengths[key[0]],
            class_of[key[0]],
            edges[key][0],
            tuple([ids[k] for k in crosses[key]]),
            tuple([None if k is None else ids[k] for k in edges[key][1]]),
            reps[key],
        )
        for i, key in enumerate(order)
    )
    return KGB(form=form, orbit=orbit, elements=elements, table=table)


def _step_row(ic: InnerClass, inv: int) -> list[tuple]:
    """What generate_kgb needs of each simple root j at the involution inv:
    (status letter, neighbour, alpha_j, alpha_j^v, gamma^v, offset).

    The coroot gamma^v (InnerClass._complex_shift) is present exactly
    when j is complex, and the grading offset (InnerClass._grading_offset),
    denom, exactly when j is imaginary; the letter is "c" there, and "n"
    replaces it at a noncompact element.
    """
    table, rd = ic.table, ic.rd
    row = []
    for j, (kind, nbr) in enumerate(table.status_row(inv)):
        gamma = offset = None
        if kind == IMAGINARY:
            offset = ic._grading_offset(inv, table.simple[j])
        elif kind != REAL:
            gamma = ic._complex_shift(inv, j, kind)
        row.append((_LETTER[kind], nbr, rd.simple_roots[j], rd.simple_coroots[j], gamma, offset))
    return row


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
