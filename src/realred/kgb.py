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
(InnerClass.lattice).  W acts on
KGB, so s_j is an involution: the discovery pass computes each unordered
cross edge once and fills it back at its far end, and leaves fixed
points unkeyed (a cross image equal to its source, as at every compact
imaginary root, takes the source's key).  It computes each Cayley
transform once and records the edges by key; the ids only relabel them.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .involution import InnerClass, StrongX
from .rootdata import InputError
from .weyl import COMPLEX_DOWN, COMPLEX_UP, IMAGINARY, REAL

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
    word: tuple[int, ...]
    rep: StrongX


class KGB(NamedTuple):
    """The orbit set of one real form, as a cross/Cayley graph."""

    form: int
    orbit: int
    elements: tuple[KGBElement, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


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
    cross edge is computed once; fixed points are unkeyed.  W acts on
    KGB, so s_j is an involution: y = cross_j(x) has x as its j-th cross
    image, recorded when y is met and not recomputed when y is processed.
    """
    orbit = seed_orbit(ic, form, orbit)
    table = ic.table
    js = range(len(table.simple))

    reps: dict[tuple, StrongX] = {}
    # the keys of each element's cross images, filled in from both ends
    crosses: dict[tuple, list] = {}
    edges: dict[tuple, tuple[tuple[str, ...], list]] = {}
    queue: deque[tuple] = deque()

    def record(y: StrongX) -> tuple:
        key = ic.x_key(y)
        if key not in reps:
            reps[key] = y
            crosses[key] = [None] * len(js)
            queue.append(key)
        return key

    for x in ic.fundamental_orbits[orbit].members:
        record(x)

    while queue:
        key = queue.popleft()
        x = reps[key]
        cross = crosses[key]
        statuses, cayley = [], []
        for j in js:
            kind = table.status(x[0], j)[0]
            if cross[j] is None:
                y = ic.cross(j, x)
                if y == x:
                    cross[j] = key
                else:
                    cross[j] = k = record(y)
                    crosses[k][j] = key
            noncompact = kind == IMAGINARY and ic.grading(x, j)
            statuses.append("n" if noncompact else _LETTER[kind])
            cayley.append(record(ic.cayley(j, x)) if noncompact else None)
        edges[key] = (tuple(statuses), cayley)

    order = sorted(
        reps,
        key=lambda key: (table.lengths[key[0]], table.class_of[key[0]], key),
    )
    ids = {key: i for i, key in enumerate(order)}
    elements = tuple(
        KGBElement(
            id=i,
            length=table.lengths[key[0]],
            cartan=table.class_of[key[0]],
            statuses=edges[key][0],
            cross=tuple(ids[k] for k in crosses[key]),
            cayley=tuple(None if k is None else ids[k] for k in edges[key][1]),
            word=table.word(key[0]),
            rep=reps[key],
        )
        for i, key in enumerate(order)
    )
    return KGB(form=form, orbit=orbit, elements=elements)


def format_kgb(kgb: KGB) -> list[str]:
    """One line per element, in the fixed column layout.

    Columns: id, length, Cartan class, status letters, cross images,
    Cayley images ("*" where absent), and the reduced word of the
    twisted involution (1-based, empty for the identity).
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
        row += "  " + ",".join(str(j + 1) for j in e.word)
        lines.append(row.rstrip())
    return lines
