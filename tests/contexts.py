"""Root data, inner-class involutions and contexts for the tests.

Each builder reads a type string such as "B2.A3" and a kernel: None or
"sc" for the simply connected group, "ad" for the adjoint group, and
otherwise ";"-separated kernel generator lines in the fractions that
parse_kernel_generator reads.
"""

from __future__ import annotations

import copy

from realred.involution import inner_class
from realred.rootdata import (
    adjoint_generators,
    build_root_datum,
    center_structure,
    parse_kernel_generator,
    parse_lie_type,
)
from realred.weyl import REAL, inner_class_involution, involution_table

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
