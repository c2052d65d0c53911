"""Root data, inner-class involutions and contexts for the tests.

Each builder reads a type string such as "B2.A3" and a kernel: None or
"sc" for the simply connected group, "ad" for the adjoint group, and
otherwise ";"-separated kernel generator lines in the fractions that
parse_kernel_generator reads.
"""

from __future__ import annotations

import copy

from realred import lin
from realred.delta import inner_class_involution
from realred.involution import inner_class
from realred.lattice import InvolutionLattice
from realred.rootdata import (
    adjoint_generators,
    build_root_datum,
    center_structure,
    parse_kernel_generator,
    parse_lie_type,
)
from realred.weyl import REAL, InvolutionTable, involution_table

# groups whose every Cartan class the fiber-orbit tests walk
RECORD_GROUPS = [
    ("A3", "c", None), ("C2", "s", None), ("A5", "s", None), ("B3", "s", None),
    ("D4", "s", None), ("G2", "s", None), ("A3", "c", "ad"),
]

# the simple types that the hypothesis tests draw from
SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
               "D4", "F4", "G2"]


def _datum(text, kernel):
    """(root datum, Lie type) of a type string and a kernel."""
    lt = parse_lie_type(text)
    if kernel is None or kernel == "sc":
        gens = ()
    elif kernel == "ad":
        gens = tuple(adjoint_generators(center_structure(lt)))
    else:
        cs = center_structure(lt)
        gens = tuple(parse_kernel_generator(line, cs) for line in kernel.split(";"))
    return build_root_datum(lt, gens), lt


def root_datum(text, kernel=None):
    return _datum(text, kernel)[0]


def involution(text, letters, kernel=None):
    """The based involution of the letters, with the datum as its rd and lt."""
    return inner_class_involution(letters, *_datum(text, kernel))


def context(text, letters, kernel=None):
    """A new InnerClass on every call: some tests corrupt theirs or count calls on it."""
    return inner_class(letters, *_datum(text, kernel))


def quasisplit(ic):
    return len(ic.real_forms) - 1


def walk_from_corrupted_row():
    """Walks on a copy of the D5 s table whose status row reports as real
    the simple root the walk's first move needs."""
    d = involution("D5", "s")
    table = involution_table(d)
    for i in range(len(table)):
        lam = table._two_rho_pairings(table.real_roots(i))
        j = next((j for j, x in enumerate(lam) if x < 0), None)
        if j is not None:
            break
    bad = copy.copy(table)
    p = i * len(table.simple) + j
    bad._kinds = table._kinds[:p] + REAL + table._kinds[p + 1:]
    return bad._walk_canonical(i)


def classes_from_walk_to_base():
    """The classes of a new A3 c table whose canonical walk names the base
    involution from every start."""
    d = involution("A3", "c")
    table = InvolutionTable(d.rd, d.perm)
    table._walk_canonical = lambda i: 0
    return table.classes


def descent_from_a_point_off_every_fiber():
    """real_form_of at (1, (1,)) in adjoint A1 s, over the split Cartan:
    alpha pairs with t to 1 and denom is 4, so r = 2 + 1 is odd at the one
    real root, and the point, on no fiber, has no descent."""
    return context("A1", "s", "ad").real_form_of((1, (1,)))


def descent_through_a_compact_candidate():
    """real_form_of at (1, (0,)) in A1 s, over the split Cartan, on a
    context whose grading calls every imaginary simple root compact: the
    first inverse Cayley candidate is noncompact by its choice, so only
    a wrong grading can make the descent's check fail."""
    ic = context("A1", "s")
    ic.grading = lambda x, j: False
    return ic.real_form_of((1, (0,)))


def fiber_from_corrupted_plus():
    """The fiber over involution 1 of A3 c, of the first square class, from
    a record whose Smith form of 1 + theta* has the divisor-2 column
    (0, 1, 1) in vinv, not (0, 0, 1).  1 + theta* sends it to (1, 2, 2),
    which is odd, so its generator (d/2)(0, 1, 1) moves the square off
    the class.  t0 and the generator count do not change and the keys
    stay distinct, so only the per-generator square check can see it."""
    ic = context("A3", "c")
    lat = ic.lattice(1)
    vinv = [list(row) for row in lat.plus.vinv]
    vinv[1][1] += 1
    bad = InvolutionLattice(lat.theta_star, lat.theta, ic.rd)
    object.__setattr__(bad, "plus", lat.plus._replace(vinv=tuple(map(tuple, vinv))))
    ic._lattices[1] = bad
    return ic.fiber_elements(1, ic.square_classes[0].key)


def smith_form_with_a_pivot_of_two():
    """lin.smith_form of the row (2, 1) with a pivot scan that settles for
    an entry of absolute value 2: it picks the 2 on every pass, and the
    column step leaves 1 % 2 = 1 behind, so the loop never ends unless
    smith_form checks its progress.  The scan raises TimeoutError on its
    100th call, so that a missing check fails a test and does not hang it."""
    calls = []

    def pivot_of_two(mm, t):
        calls.append(t)
        if len(calls) == 100:
            raise TimeoutError("smith_form chose 100 pivots for a 1 x 2 matrix")
        for i in range(t, len(mm)):
            for j in range(t, len(mm[i])):
                if 0 < abs(mm[i][j]) <= 2:
                    return abs(mm[i][j]), i, j
        return 0, 0, 0

    right = lin._pivot
    lin._pivot = pivot_of_two
    try:
        return lin.smith_form(((2, 1),))
    finally:
        lin._pivot = right
