"""Tests for strong real forms, square classes, and real form naming."""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realred import lin
from realred.cartan import cartan_class, cartan_hasse, format_cartan_report, real_weyl
from realred.delta import parse_units
from realred.forms import _split_product, format_real_form_menu, format_strong_real
from realred.involution import InnerClass
from realred.kgb import generate_kgb
from realred.lattice import InvolutionLattice
from realred.rootdata import InputError, build_root_datum, dual_lie_type, parse_lie_type
from realred.weyl import COMPLEX_DOWN, IMAGINARY, REAL

from contexts import (
    RECORD_GROUPS, SMALL_TYPES, context, descent_from_a_point_off_every_fiber,
    descent_through_a_compact_candidate, fiber_from_corrupted_plus,
)
from digest_outputs import CONTEXTS
from oracles import (
    classical_real_forms, coreflections, cross_word, first_inverse_cayley, inverse_cayley,
    kac_weak_form_count, rank_decomposition, reference_adjoint_context,
    reference_central_translates, reference_component_rank, reference_fiber_elements,
    reference_inverse_cayley, reference_key_rows, reference_normal_form_word,
    reference_orbit_partition, reference_real_form_of, reference_rho_check_drop,
    reference_grading_offset, reference_root_grading, reference_theta_star,
    reference_theta_stars, reference_to_ad,
    reference_two_offset_inverse_cayley, reference_x_key, reflection_matrix, reflections,
    square_key_if_valid, square_key_reference,
)


def menu(ic):
    return [f.name for f in ic.real_forms]


def report_lines(ic, cartan):
    return format_strong_real(ic.strong_real_forms_at(cartan))


# -- real form menus ---------------------------------------------------


MENUS = {
    ("A1", "s", None): ["su(2)", "sl(2,R)"],
    ("A2", "s", None): ["sl(3,R)"],
    ("A2", "c", None): ["su(3)", "su(2,1)"],
    ("A3", "c", None): ["su(4)", "su(3,1)", "su(2,2)"],
    ("A4", "c", None): ["su(5)", "su(4,1)", "su(3,2)"],
    ("A5", "s", None): ["sl(3,H)", "sl(6,R)"],
    ("C2", "s", None): ["sp(2)", "sp(1,1)", "sp(4,R)"],
    ("E6", "s", None): ["e6(f4)", "e6(R)"],
    ("A2.A2", "C", None): ["sl(3,C)"],
    ("A2.A2", "cs", None): ["su(3).sl(3,R)", "su(2,1).sl(3,R)"],
    ("A1.T1", "ss", "1/2,1/2"): ["su(2).gl(1,R)", "sl(2,R).gl(1,R)"],
    ("A1.T1", "cc", "1/2,1/2"): ["su(2).u(1)", "sl(2,R).u(1)"],
    ("D5", "c", "2/4"): ["so(10)", "so(8,2)", "so*(10)", "so(6,4)"],
    ("D6", "e", "1/2,1/2"): [
        "so(12)", "so(10,2)", "so*(12)[1,0]", "so*(12)[0,1]",
        "so(8,4)", "so(6,6)",
    ],
    ("D6", "s", None): [
        "so(12)", "so(10,2)", "so*(12)[1,0]", "so*(12)[0,1]",
        "so(8,4)", "so(6,6)",
    ],
    ("D6", "c", "1/2,0/2"): [
        "so(12)", "so(10,2)", "so*(12)[1,0]", "so*(12)[0,1]",
        "so(8,4)", "so(6,6)",
    ],
    ("D6", "u", None): ["so(11,1)", "so(9,3)", "so(7,5)"],
    ("T1", "s", None): ["gl(1,R)"],
    ("T1", "c", None): ["u(1)"],
    # torus factors between, before and after simple factors
    ("A1.T1.A1", "scs", None): [
        "su(2).u(1).su(2)", "su(2).u(1).sl(2,R)", "sl(2,R).u(1).su(2)",
        "sl(2,R).u(1).sl(2,R)",
    ],
    ("T1.A2", "cs", None): ["u(1).sl(3,R)"],
    ("T2.A3", "Cu", None): ["gl(1,C).sl(2,H)", "gl(1,C).sl(4,R)"],
    ("D4.T1", "us", None): ["so(7,1).gl(1,R)", "so(5,3).gl(1,R)"],
    ("T3", "Cs", None): ["gl(1,C).gl(1,R)"],
    # complex pairs of every simple type
    **{
        (text, "C", kernel): [name]
        for text, name in [
            ("B2.B2", "so(5,C)"), ("B3.B3", "so(7,C)"), ("C3.C3", "sp(6,C)"),
            ("D4.D4", "so(8,C)"), ("G2.G2", "g2(C)"), ("F4.F4", "f4(C)"),
        ]
        for kernel in ("sc", "ad")
    },
}


@pytest.mark.parametrize("key", sorted(MENUS), ids=lambda k: "-".join(filter(None, k)))
def test_real_form_menu(key):
    text, letters, kernel = key
    assert menu(context(text, letters, kernel)) == MENUS[key]


@pytest.mark.parametrize("text", [f"A{n}" for n in range(1, 9)] + [
    f"{letter}{n}" for letter in "BC" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)])
def test_classical_real_forms(text):
    letter, rank = text[0], int(text[1:])
    lt = parse_lie_type(text)
    # -w0 = 1 exactly for A1, B, C and D of even rank
    trivial_w0 = letter in "BC" or (letter, rank) == ("A", 1) or (letter == "D" and rank % 2 == 0)
    for letters in "cesuC":
        try:
            parse_units(letters, lt)
        except InputError:
            continue
        equal_rank = letters in "ce" or (letters == "s" and trivial_w0)
        expected = classical_real_forms(letter, rank, equal_rank)
        for kernel in ("sc", "ad"):
            names = sorted(f.name for f in context(text, letters, kernel).real_forms)
            assert names == expected, (letters, kernel)


@pytest.mark.parametrize("kernel", ["sc", "ad"])
@pytest.mark.parametrize("text,letters,equal_rank", [
    ("G2", "s", True), ("F4", "s", True), ("E6", "c", True), ("E6", "s", False),
    ("E6", "u", False), ("E7", "s", True),
])
def test_exceptional_menus_match_kac_counts(text, letters, equal_rank, kernel):
    ic = context(text, letters, kernel)
    assert len(ic.real_forms) == kac_weak_form_count(text[0], int(text[1:]), equal_rank)


def test_menu_lines():
    ic = context("A3", "c")
    assert format_real_form_menu(ic) == [
        "(weak) real forms are:",
        "0: su(4)",
        "1: su(3,1)",
        "2: su(2,2)",
    ]


def test_split_product_rejects_a_negative_discriminant():
    assert _split_product(6, 5) == (3, 2)
    # p + q = 2 and p q = 10 has the discriminant 4 - 40 < 0
    with pytest.raises(RuntimeError):
        _split_product(10, 2)


def test_quasisplit_form_is_unique_and_last():
    for text, letters, kernel in MENUS:
        forms = context(text, letters, kernel).real_forms
        flags = [f.quasisplit for f in forms]
        assert flags.count(True) == 1
        assert flags[-1]


# -- square classes ----------------------------------------------------


def test_square_class_counts():
    assert len(context("A1", "s").square_classes) == 2
    assert len(context("A3", "c").square_classes) == 2
    assert len(context("A4", "c").square_classes) == 1
    assert len(context("A5", "s").square_classes) == 2
    assert len(context("A1", "s", "ad").square_classes) == 1
    assert len(context("T1", "s").square_classes) == 1
    assert len(context("A1.A1", "C").square_classes) == 1


def test_square_class_count_is_power_of_two():
    for text, letters, kernel in MENUS:
        n = len(context(text, letters, kernel).square_classes)
        assert n & (n - 1) == 0


def test_square_class_assignment():
    # The quasisplit form always defines class 0.
    ic = context("A1", "s")
    assert ic.real_forms[1].square_class == 0
    assert ic.real_forms[0].square_class == 1
    ic = context("A5", "s")
    assert ic.real_forms[1].square_class == 0
    assert ic.real_forms[0].square_class == 1
    ic = context("A3", "c")
    assert [f.square_class for f in ic.real_forms] == [0, 1, 0]


# -- strong real form reports ------------------------------------------


def test_strong_real_su22_fundamental():
    assert report_lines(context("A3", "c"), 0) == [
        "there are 2 real form classes:",
        "",
        "class #0:",
        "real form #2: [0,1,2,3,4,5] (6)",
        "real form #0: [6] (1)",
        "real form #0: [7] (1)",
        "",
        "class #1:",
        "real form #1: [0,1,2,3] (4)",
        "real form #1: [4,5,6,7] (4)",
    ]


def test_strong_real_su22_middle_cartan():
    assert report_lines(context("A3", "c"), 1) == [
        "there are 2 real form classes:",
        "",
        "class #0:",
        "real form #2: [0,1] (2)",
        "",
        "class #1:",
        "real form #1: [0] (1)",
        "real form #1: [1] (1)",
    ]


def test_strong_real_su22_most_split_cartan():
    assert report_lines(context("A3", "c"), 2) == ["real form #2: [0] (1)"]


def test_strong_real_su32():
    assert report_lines(context("A4", "c"), 0) == [
        "real form #2: [0,1,2,3,4,5,6,7,8,9] (10)",
        "real form #1: [10,11,12,13,14] (5)",
        "real form #0: [15] (1)",
    ]


def test_strong_real_sl3h():
    assert report_lines(context("A5", "s"), 0) == [
        "there are 2 real form classes:",
        "",
        "class #0:",
        "real form #1: [0,1] (2)",
        "",
        "class #1:",
        "real form #0: [0] (1)",
        "real form #0: [1] (1)",
    ]


def test_strong_real_psu4():
    assert report_lines(context("A3", "c", "ad"), 0) == [
        "real form #2: [0,1,2] (3)",
        "real form #1: [3,4,5,6] (4)",
        "real form #0: [7] (1)",
    ]


def test_strong_real_sp4():
    ic = context("C2", "s")
    assert report_lines(ic, 0) == [
        "there are 2 real form classes:",
        "",
        "class #0:",
        "real form #2: [0,1,2,3] (4)",
        "",
        "class #1:",
        "real form #1: [0,1] (2)",
        "real form #0: [2] (1)",
        "real form #0: [3] (1)",
    ]
    assert report_lines(ic, 3) == ["real form #2: [0] (1)"]
    # Totals per square class recover the orbit counts of the forms:
    # 4*1 + 1*2 + 2*2 + 1*1 = 11 for sp(4,R), 4 + 2 = 6 for the rest.
    assert [ic.strong_count_at(c) for c in range(4)] == [8, 4, 4, 1]


def test_strong_real_e6():
    assert report_lines(context("E6", "s"), 0) == [
        "real form #1: [0,1,2] (3)",
        "real form #0: [3] (1)",
    ]


# -- counting ----------------------------------------------------------


def test_strong_involution_counts():
    assert context("A3", "c").strong_count() == 43
    assert context("A3", "c", "ad").strong_count() == 23
    assert context("A1", "s").strong_count() == 5
    assert context("A1", "s", "ad").strong_count() == 3


def test_strong_count_by_cartan():
    ic = context("A3", "c")
    assert [ic.strong_count_at(c) for c in range(3)] == [16, 24, 3]
    ic = context("A3", "c", "ad")
    assert [ic.strong_count_at(c) for c in range(3)] == [8, 12, 3]


@pytest.mark.parametrize(
    "method", ["strong_real_forms_at", "cartan_orbits", "cartan_ranks", "strong_count_at"]
)
@pytest.mark.parametrize("past_end", [False, True])
def test_cartan_index_out_of_range_is_an_input_error(method, past_end):
    ic = context("B2", "s")
    cartan = len(ic.table.classes) if past_end else -1
    with pytest.raises(InputError):
        getattr(ic, method)(cartan)
    assert cartan not in ic._orbits_at


def test_equal_rank_fundamental_fiber_sizes():
    for text, letters in [("A3", "c"), ("C2", "s"), ("A2", "c")]:
        ic = context(text, letters)
        rank = ic.rd.rank
        for sq in ic.square_classes:
            assert len(ic.fiber_elements(0, sq.key)) == 2 ** rank


def test_adjoint_strong_forms_match_weak_forms():
    for text, letters in [("A1", "s"), ("A3", "c"), ("A2", "c")]:
        ic = context(text, letters, "ad")
        report = ic.strong_real_forms_at(0)
        assert len(report) == 1
        entries = report[0][1]
        assert sorted(e.form for e in entries) == list(range(len(ic.real_forms)))


# -- cross actions and Cayley transforms --------------------------------


def all_strong_involutions(ic):
    out = []
    for cartan in range(len(ic.table.classes)):
        inv = ic.table.canonical_member(cartan)
        for sq in ic.square_classes:
            for t in ic.fiber_elements(inv, sq.key):
                out.append(((inv, t), sq.key))
    return out


@pytest.mark.parametrize(
    "text,letters", [("A3", "c"), ("C2", "s"), ("A2", "s"), ("A3", "c;ad")]
)
def test_cross_and_cayley_preserve_squares(text, letters):
    kernel = None
    if ";" in letters:
        letters, kernel = letters.split(";")
    ic = context(text, letters, kernel)
    for x, key in all_strong_involutions(ic):
        inv, _ = x
        assert square_key_if_valid(ic, x) == key
        row = ic.table.status_row(inv)
        for j, (kind, _) in enumerate(row):
            x2 = ic.cross(j, x)
            assert square_key_if_valid(ic, x2) == key
            assert ic.x_key(ic.cross(j, x2)) == ic.x_key(x)
            if kind in (IMAGINARY, REAL):
                assert x2[0] == inv
            if kind == IMAGINARY and ic.grading(x, j):
                up = ic.cayley(j, x)
                assert square_key_if_valid(ic, up) == key
                back = inverse_cayley(ic, j, up)
                assert ic.x_key(x) in {ic.x_key(y) for y in back}
            if kind == REAL:
                for y in inverse_cayley(ic, j, x):
                    assert square_key_if_valid(ic, y) == key
                    assert ic.grading(y, j)
                    assert ic.x_key(ic.cayley(j, y)) == ic.x_key(x)


@pytest.mark.parametrize(
    "text,letters,kernel",
    [("A3", "c", None), ("C2", "s", None), ("D4", "s", None), ("A3", "c", "ad"),
     ("A3", "c", "1/2"), ("D4", "s", "1/2,1/2"), ("A5", "s", "1/3"),
     ("A5", "c", "1/2"), ("A2.A2", "C", None), ("A5", "c", None)],
)
def test_square_key_integer_check_matches_fractions(text, letters, kernel):
    ic = context(text, letters, kernel)
    d = ic.denom
    translates = reference_central_translates(ic)
    assert [tuple(Fraction(v, ic.cd) for v in g) for g in ic._central_translates] \
        == list(translates)
    # canonical members may have no real simple root, so take every involution
    points = [
        (inv, t) for inv in range(len(ic.table)) for sq in ic.square_classes
        for t in ic.fiber_elements(inv, sq.key)
    ]
    # every offset on the lines inverse_cayley keys, and on each simple
    # coroot line through the first base point, for contexts with no real
    # root (a complex pair)
    lines = [
        (nbr, lin.mat_vec(coreflections(ic.rd)[j], t), ic.rd.simple_coroots[j])
        for inv, t in points
        for j, (kind, nbr) in enumerate(ic.table.status_row(inv)) if kind == REAL
    ]
    lines.extend((0, points[0][1], av) for av in ic.rd.simple_coroots)
    valid = invalid = 0
    for inv, base, av in lines:
        for c in range(d):
            cand = (inv, lin.vec_mod(lin.vec_add(base, lin.vec_scale(av, c)), d))
            key = square_key_if_valid(ic, cand)
            ref = square_key_reference(ic, cand, translates)
            if key is None:
                assert ref is None
            else:
                assert tuple(Fraction(v, ic.cd) for v in key) == ref
            valid += key is not None
            invalid += key is None
    assert valid and invalid


@pytest.mark.parametrize("text,letters,kernel,cd,denom", [
    ("A3", "c", None, 4, 8), ("D4", "s", None, 2, 4), ("A4", "c", None, 5, 4),
    ("A5", "c", "1/2", 3, 4), ("A2.A2", "C", None, 3, 4),
])
def test_central_and_cocharacter_denominators(text, letters, kernel, cd, denom):
    # denom comes from the realized classes only, so it can be prime to cd
    ic = context(text, letters, kernel)
    assert (ic.cd, ic.denom) == (cd, denom)


def test_cayley_rejects_roots_of_the_wrong_kind():
    ic = context("A1", "s")
    base = [(0, t) for sq in ic.square_classes for t in ic.fiber_elements(0, sq.key)]
    compact = [x for x in base if not ic.grading(x, 0)]
    noncompact = [x for x in base if ic.grading(x, 0)]
    assert compact and noncompact
    split = ic.cayley(0, noncompact[0])
    assert ic.table.status_row(split[0])[0][0] == REAL
    with pytest.raises(ValueError):
        ic.cayley(0, compact[0])
    with pytest.raises(ValueError):
        ic.cayley(0, split)
    with pytest.raises(ValueError):
        inverse_cayley(ic, 0, noncompact[0])
    assert inverse_cayley(ic, 0, split)


# -- gradings ---------------------------------------------------------


GRADING_GROUPS = [
    (text, letter, kernel)
    for text, letters in [
        ("A1", "s c"), ("A2", "s c u"), ("A3", "s c u"), ("A4", "s c u"),
        ("B2", "s c"), ("B3", "s c"), ("B4", "s c"), ("C2", "s c"), ("C3", "s c"),
        ("C4", "s c"), ("D4", "s c u"), ("G2", "s"), ("F4", "s"), ("A1.T1", "ss sc"),
        ("A2.T1", "sc"), ("T2", "C"), ("A1.A1", "ss C"),
    ]
    for letter in letters.split()
    for kernel in (None, "ad")
] + [("D4", "s", "1/2,0"), ("A5", "s", "1/3")]


@pytest.mark.parametrize("text,letters,kernel", GRADING_GROUPS)
def test_closed_form_grading_matches_transport(text, letters, kernel):
    ic = context(text, letters, kernel)
    bits = {}
    for inv in range(len(ic.table)):
        imaginary = ic.table.imaginary_roots(inv)
        for sq in ic.square_classes:
            for t in ic.fiber_elements(inv, sq.key):
                for k in imaginary:
                    assert ic.root_grading((inv, t), k) == \
                        reference_root_grading(ic, (inv, t), ic.rd.positive_roots[k], bits)
                for j, (kind, _) in enumerate(ic.table.status_row(inv)):
                    if kind == IMAGINARY:
                        simple = ic.rd.positive_roots[ic.rd.root_index[ic.rd.simple_roots[j]]]
                        assert ic.grading((inv, t), j) == \
                            reference_root_grading(ic, (inv, t), simple, bits)


def test_grading_rejects_roots_that_are_not_imaginary():
    ic = context("B2", "s")
    for inv in range(len(ic.table)):
        x = (inv, lin.zero_vector(ic.rd.rank))
        imaginary = set(ic.table.imaginary_roots(inv))
        for k in range(len(ic.rd.positive_roots)):
            if k not in imaginary:
                with pytest.raises(RuntimeError, match="not imaginary"):
                    ic.root_grading(x, k)
        for j, (kind, _) in enumerate(ic.table.status_row(inv)):
            if kind != IMAGINARY:
                with pytest.raises(RuntimeError, match="not imaginary"):
                    ic.grading(x, j)


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_cartan_record_forms_match_descent(text, letters, kernel):
    ic = context(text, letters, kernel)
    for c in range(len(ic.table.classes)):
        inv = ic.table.canonical_member(c)
        fibers = {
            sq.index: [(inv, t) for t in ic.fiber_elements(inv, sq.key)]
            for sq in ic.square_classes
        }
        form_of = {x: o.form for o in ic.cartan_orbits(c) for x in o.members}
        for x in (x for fiber in fibers.values() for x in fiber):
            assert ic.real_form_of(x) == form_of[x]
        # the orbits partition each fiber, members and orbits in fiber order
        for sq, fiber in fibers.items():
            orbits = [o.members for o in ic.cartan_orbits(c) if o.square_class == sq]
            assert sorted(x for o in orbits for x in o) == sorted(fiber)
            positions = [[fiber.index(x) for x in o] for o in orbits]
            assert all(p == sorted(p) for p in positions)
            assert [p[0] for p in positions] == sorted(p[0] for p in positions)


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_orbit_partition_runs_once_per_involution(monkeypatch, text, letters, kernel):
    # the base fiber's partition serves the real forms and the Cartan record
    calls = Counter()
    partition = InnerClass._orbit_partition

    def counted(ic, inv, *args):
        calls[(id(ic), inv)] += 1
        return partition(ic, inv, *args)

    monkeypatch.setattr(InnerClass, "_orbit_partition", counted)
    ic = context(text, letters, kernel)
    for c in range(len(ic.table.classes)):
        ic.cartan_orbits(c)
    canonical = {ic.table.canonical_member(c) for c in range(len(ic.table.classes))}
    assert 0 in canonical
    assert set(calls.values()) == {1}
    assert {inv for key, inv in calls if key == id(ic)} == canonical


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_base_cartan_orbits_descend_nothing(text, letters, kernel):
    # the class of involution 0 takes its forms from fundamental_orbits
    ic = context(text, letters, kernel)
    calls = []
    real_form_of = ic.real_form_of
    ic.real_form_of = lambda x: calls.append(x) or real_form_of(x)
    orbits = ic.cartan_orbits(ic.table.class_of[0])
    assert calls == []
    assert sorted(orbits) == sorted(ic.fundamental_orbits)


def test_adjoint_orbits_refuse_an_orbit_meeting_two():
    T, F = True, False
    assert InnerClass._adjoint_orbits([((T,), (F,)), ((F,),)])[0] == (0, 0)
    with pytest.raises(RuntimeError, match="two adjoint orbits"):
        InnerClass._adjoint_orbits([((T, F), (F, F)), ((T, T), (F, F))])


@pytest.mark.parametrize(
    "text,letters,kernel",
    RECORD_GROUPS + [("B4", "s", None), ("F4", "s", None), ("D5", "s", None)],
)
def test_cartan_record_moves_are_cross_actions(text, letters, kernel):
    # the closed form at every imaginary root, not only the imaginary
    # basis: a compact reflection fixes x, so in particular the simple
    # compact reflections of W_ic fix the base point of real_weyl
    ic = context(text, letters, kernel)
    d = ic.denom
    for c in range(len(ic.table.classes)):
        inv = ic.table.canonical_member(c)
        basis = ic.table.imaginary_basis(inv)
        for o in ic.cartan_orbits(c):
            assert len(o.moves) == len(basis)
            for m, x in enumerate(o.members):
                assert o.points[m] == tuple(ic.root_grading(x, k) for k in basis)
                moved = {}
                for k in ic.table.imaginary_roots(inv):
                    image = x
                    if ic.root_grading(x, k):
                        covec = ic.rd.positive_roots[k].covec
                        image = (inv, lin.vec_add(x[1], lin.vec_scale(covec, d // 2)))
                    moved[k] = ic.x_key(cross_word(ic, ic.table.reflection_word(k), x))
                    assert moved[k] == ic.x_key(image)
                for k, row in zip(basis, o.moves):
                    assert moved[k] == ic.x_key(o.members[row[m]])


def descend_last(ic, x):
    # descent that takes the last valid step of each status row
    inv = x[0]
    while ic.table.lengths[inv] > 0:
        steps = []
        for j, (kind, _) in enumerate(ic.table.status_row(inv)):
            if kind == COMPLEX_DOWN:
                steps.append(ic.cross(j, x))
            elif kind == REAL:
                steps.extend(inverse_cayley(ic, j, x))
        x = steps[-1]
        inv = x[0]
    # the fundamental orbit of the base point reached, found by key
    return next(o.form for o in ic.fundamental_orbits if ic.x_key(x) in map(ic.x_key, o.members))


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_descent_is_path_independent(text, letters, kernel):
    ic = context(text, letters, kernel)
    for x, _ in all_strong_involutions(ic):
        assert descend_last(ic, x) == ic.real_form_of(x)


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_descent_keys_only_the_base_point(text, letters, kernel):
    # each step takes the first inverse Cayley candidate, which needs no
    # key, and the base point reached is looked up by its gradings
    ic = context(text, letters, kernel)
    ic.fundamental_orbits  # keys every base fiber
    points = all_strong_involutions(ic)
    keyed = []
    x_key = ic.x_key
    ic.x_key = lambda x: keyed.append(x) or x_key(x)
    for x, _ in points:
        ic.real_form_of(x)
        assert keyed == []


def test_every_strong_involution_descends():
    for text, letters, kernel in [("A3", "c", None), ("C2", "s", None),
                                  ("A5", "s", None), ("A3", "c", "ad")]:
        ic = context(text, letters, kernel)
        nforms = len(ic.real_forms)
        for x, _ in all_strong_involutions(ic):
            assert 0 <= ic.real_form_of(x) < nforms


@pytest.mark.parametrize("kernel", [None, "ad"])
@pytest.mark.parametrize("letter", ["c", "s"])
@pytest.mark.parametrize("text", SMALL_TYPES)
def test_real_form_of_and_gradings_match_reference_on_the_grid(text, letter, kernel):
    # every fiber point over every canonical involution: the fused descent
    # against the step-by-step one, and the grading row against root_grading
    ic = context(text, letter, kernel)
    canonical = {ic.table.canonical_member(c) for c in range(len(ic.table.classes))}
    points = 0
    for inv in sorted(canonical):
        imaginary = ic.table.imaginary_roots(inv)
        for sq in ic.square_classes:
            for t in ic.fiber_elements(inv, sq.key):
                x = (inv, t)
                assert ic.real_form_of(x) == reference_real_form_of(ic, x)
                gradings = ic.gradings(x)
                assert tuple(gradings) == imaginary
                assert gradings == {k: ic.root_grading(x, k) for k in imaginary}
                points += 1
    assert points
    # one grading row per canonical involution at most, the base's included
    assert 0 in ic._grading_rows and set(ic._grading_rows) <= canonical


def test_kgb_search_fills_no_grading_row():
    # the search reads the offsets of its simple roots from its step rows;
    # only the base fiber, which numbers the seeds, is graded by rows
    ic = context("D4", "s")
    for form in range(len(ic.real_forms)):
        generate_kgb(ic, form)
    assert set(ic._grading_rows) == {0}


def test_descent_refuses_a_point_with_no_step():
    with pytest.raises(RuntimeError, match="strong involution admits no descent"):
        descent_from_a_point_off_every_fiber()


def test_descent_refuses_a_compact_candidate(monkeypatch):
    with pytest.raises(RuntimeError, match="an inverse Cayley candidate is compact"):
        descent_through_a_compact_candidate()
    # the same through the class, at every point outside the base's class:
    # complex steps keep the class, so its descent takes a real step
    monkeypatch.setattr(InnerClass, "grading", lambda self, x, j: False)
    ic = context("A3", "c")
    steps = 0
    for x, _ in all_strong_involutions(ic):
        if ic.table.class_of[x[0]] != ic.table.class_of[0]:
            with pytest.raises(RuntimeError, match="an inverse Cayley candidate is compact"):
                ic.real_form_of(x)
            steps += 1
    assert steps


@pytest.mark.parametrize("x", [(10, (4, 0, 0)), (-1, (4, 0, 0)), (True, (4, 0, 0))])
def test_strong_involution_with_an_id_off_the_table_is_an_input_error(x):
    # A3 c has 10 twisted involutions; a negative id would index from the end
    ic = context("A3", "c")
    assert len(ic.table) == 10
    for read in (ic.real_form_of, ic.gradings, lambda x: ic.root_grading(x, 0),
                 lambda x: ic.cross(0, x), lambda x: ic.cayley(0, x)):
        with pytest.raises(InputError, match="there are 10 involutions"):
            read(x)


@pytest.mark.parametrize("inv", [10, -1, "a", None])
def test_x_key_and_lattice_of_an_id_off_the_table_are_input_errors(inv):
    # a miss in lattice checks the id: -1 would index the table's rows from
    # the end, and "a" would fail to compare with an int
    ic = context("A3", "c")
    for read in (lambda: ic.x_key((inv, (4, 0, 0))), lambda: ic.lattice(inv)):
        with pytest.raises(InputError, match=f"no involution {inv!r}: there are 10 involutions"):
            read()
    assert set(ic._lattices) == {0}


@pytest.mark.parametrize("inv", [True, False])
def test_x_key_and_lattice_refuse_a_bool_id_with_or_without_a_record(inv):
    # True == 1 and False == 0 as dict keys, so a bool id would read the
    # record of the int it equals once that is built: refused on every call
    ic = context("A3", "c")
    for fresh in (True, False):
        if not fresh:
            ic.lattice(1)
            assert ic.x_key((int(inv), (4, 0, 0)))[0] == int(inv)
        for read in (lambda: ic.x_key((inv, (4, 0, 0))), lambda: ic.lattice(inv)):
            with pytest.raises(InputError, match=f"no involution {inv!r}: there are 10"):
                read()


@pytest.mark.parametrize("t", [(4, 0), (4, 0, 0, 1), ()])
def test_strong_involution_with_a_torus_part_of_another_rank_is_an_input_error(t):
    # zip and map would truncate (4, 0, 0, 1) to (4, 0, 0), or read (4, 0)
    # as if a zero followed
    ic = context("A3", "c")
    assert ic.real_form_of((0, (4, 0, 0))) == 2
    for read in (ic.real_form_of, ic.gradings, lambda x: ic.root_grading(x, 0),
                 lambda x: ic.cross(0, x), lambda x: ic.cayley(0, x), ic.x_key):
        with pytest.raises(InputError, match="torus parts have 3 entries"):
            read((0, t))


# -- rank decompositions ------------------------------------------------


@pytest.mark.parametrize("text,letters,kernel", [
    ("C2", "s", None), ("D4", "u", None), ("A3", "c", "ad"), ("A2.A2", "C", None),
    # complex pairs from torus factors and from quotients
    ("T2", "C", None), ("A1.T1", "sc", None), ("D4.T1", "us", None),
    ("A3", "s", "1/2"), ("D4", "s", "1/2,1/2"),
])
def test_cached_ranks_match_reference(text, letters, kernel):
    ic = context(text, letters, kernel)
    for inv in range(len(ic.table)):
        assert ic.lattice(inv).ranks == rank_decomposition(ic.lattice(inv).theta_star)


def test_rank_decomposition_values():
    ic = context("C2", "s")
    triples = []
    for c in range(len(ic.table.classes)):
        dec = ic.cartan_ranks(c)
        triples.append((dec.split, dec.compact, dec.complex_pairs))
    assert triples == [(0, 2, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]


def test_ranks_refuse_a_divisor_above_two():
    ic = context("A1.T1", "sc")
    ic._lattices[0] = InvolutionLattice(((-3, 0), (0, 1)), ic.lattice(0).theta, ic.rd)
    with pytest.raises(RuntimeError, match="divisor above 2"):
        ic.lattice(0).ranks


def test_fiber_squares_are_checked_per_generator():
    with pytest.raises(RuntimeError, match="squares outside its square class"):
        fiber_from_corrupted_plus()


# -- most split Cartans and component groups -----------------------------


def test_most_split_cartan():
    ic = context("A1", "s")
    assert ic.most_split_cartan(0) == 0
    assert ic.most_split_cartan(1) == 1
    ic = context("D6", "c", "1/2,0/2")
    assert ic.most_split_cartan(2) == 5
    assert ic.most_split_cartan(3) == 6
    assert ic.most_split_cartan(5) == 10


def test_component_ranks():
    assert context("A1", "s").component_rank(1) == 0
    assert context("A1", "s").component_rank(0) == 0
    assert context("A1", "s", "ad").component_rank(1) == 1
    ic = context("D6", "c", "1/2,0/2")
    assert ic.component_rank(2) == 1
    assert ic.component_rank(3) == 0


@pytest.mark.parametrize("theta,message", [
    # su(2): the most split Cartan is the base one, where theta* = 1 and
    # there is no real root
    ({0: ((-3,),)}, "not an elementary abelian 2-group"),
    # sl(2,R): alpha is real at the split Cartan, but this theta* fixes
    # alpha^v, so the table's real coroot is not in ker(1 + theta*)
    ({1: ((1,),)}, "is not in ker\\(1 \\+ theta"),
])
def test_component_rank_refuses_corrupted_data(theta, message):
    ic = context("A1", "s")
    (form, corrupt), = theta.items()
    cartan = ic.most_split_cartan(form)
    assert cartan == form
    inv = ic.table.canonical_member(cartan)
    ic._lattices[inv] = InvolutionLattice(corrupt, ic.lattice(inv).theta, ic.rd)
    with pytest.raises(RuntimeError, match=message):
        ic.component_rank(form)


def test_half_spin_pair_cartans():
    # The two half-spin forms share every Cartan except a mirror pair.
    ic = context("D6", "s")
    a = set(ic.form_cartans(2))
    b = set(ic.form_cartans(3))
    assert a != b
    assert len(a ^ b) == 2
    sizes = [len(c) for c in ic.table.classes]
    assert sizes == [1, 30, 15, 180, 180, 60, 60, 15, 180, 30, 1]


# -- the shared involution table ------------------------------------------


@pytest.mark.parametrize("text", ["B3", "D4", "G2"])
@pytest.mark.parametrize("kernel", [None, "ad"])
def test_reflection_words_are_normal_forms(text, kernel):
    ic = context(text, "s", kernel)
    rd = ic.rd
    for k, root in enumerate(rd.positive_roots):
        m = reflection_matrix(rd, root)
        assert ic.table.reflection_word(k) == reference_normal_form_word(rd, m, m)


@pytest.mark.parametrize("text,letters,kernel", [
    ("A3", "s", None), ("A1.T1", "sc", None), ("D4", "s", "1/2,1/2"),
])
def test_reports_build_no_second_context(monkeypatch, text, letters, kernel):
    # the weak forms and the Cartan partitions come from this context's own fibers
    ic = context(text, letters, kernel)
    calls = Counter()
    init, build = InnerClass.__init__, build_root_datum

    def counted_init(self, *args):
        calls["InnerClass"] += 1
        init(self, *args)

    def counted_build(*args):
        calls["build_root_datum"] += 1
        return build(*args)

    monkeypatch.setattr(InnerClass, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "realred" and hasattr(module, "build_root_datum"):
            monkeypatch.setattr(module, "build_root_datum", counted_build)
    format_real_form_menu(ic)
    for c in range(len(ic.table.classes)):
        cartan_class(ic, c)
    for f in range(len(ic.real_forms)):
        format_cartan_report(ic, f)
        cartan_hasse(ic, f)
        for c in ic.form_cartans(f):
            real_weyl(ic, f, c)
        generate_kgb(ic, f)
    assert calls == Counter()


# -- weak forms and Cartan partitions against the adjoint context ----------


ADJOINT_GROUPS = [
    (text, letters, kernel) for text, letters, kernel in CONTEXTS
    if parse_lie_type(text).semisimple_rank
] + [
    (text, letters, "sc") for text, letters in [
        ("B5", "s"), ("C5", "s"), ("A7", "c"), ("B3.C3", "ss"), ("A1.A1.A1", "sss"),
        ("D4.A1", "ss"), ("A1.T1.A1", "scs"), ("T1.A2", "cs"), ("T2.A3", "Cu"),
        ("D4.T1", "us"),
    ]
]


@pytest.mark.parametrize("text,letters,kernel", ADJOINT_GROUPS)
def test_weak_forms_and_partitions_match_the_adjoint_context(text, letters, kernel):
    ic = context(text, letters, kernel)
    ad = reference_adjoint_context(ic)
    assert [o.form for o in ic.fundamental_orbits] == [
        ad.real_form_of((0, reference_to_ad(ic, ad, o.members[0][1])))
        for o in ic.fundamental_orbits
    ]
    assert [f.quasisplit for f in ic.real_forms] == [f.quasisplit for f in ad.real_forms]
    assert ad.table is ic.table
    for c in range(len(ic.table.classes)):
        (_, entries), = ad.strong_real_forms_at(c)
        assert cartan_class(ic, c).partition == entries
        # the gradings of the imaginary simple roots tell the points of
        # the adjoint fiber apart
        basis = ad.table.imaginary_basis(ad.table.canonical_member(c))
        xs = [x for o in ad.cartan_orbits(c) for x in o.members]
        assert len({tuple(ad.root_grading(x, k) for k in basis) for x in xs}) == len(xs)


@pytest.mark.parametrize("text,letters,kernel", ADJOINT_GROUPS)
def test_component_rank_matches_kernel_reference(text, letters, kernel):
    ic = context(text, letters, kernel)
    for form in range(len(ic.real_forms)):
        assert ic.component_rank(form) == reference_component_rank(ic, form)


@pytest.mark.parametrize("text,letters,kernel", [
    ("A1.T1", "sc", None), ("T2", "C", None), ("D4", "u", "1/2,1/2"),
    ("B2", "s", None), ("B2", "s", "ad"),
])
def test_theta_matrix_matches_word_and_permutation(text, letters, kernel):
    ic = context(text, letters, kernel)
    rd, table = ic.rd, ic.table
    for i in range(len(table)):
        theta = lin.transpose(ic.lattice(i).theta_star)
        w = lin.identity(rd.rank)
        for j in table.word(i):
            w = lin.mat_mul(w, reflections(rd)[j])
        assert theta == lin.mat_mul(w, ic.delta.matrix)
        for j, a in enumerate(rd.simple_roots):
            assert lin.mat_vec(theta, a) == rd.roots[table.thetas[i][table.simple[j]]]


# -- fiber coordinates against the matrix references -----------------------

# every twisted involution of these, sc and ad, is checked
THETA_GROUPS = [
    (text, letters, kernel)
    for text, letters in [
        ("A1", "s"), ("A3", "c"), ("A4", "s"), ("A5", "s"), ("B3", "s"),
        ("C4", "s"), ("D4", "s"), ("D4", "u"), ("D5", "s"), ("G2", "s"),
        ("F4", "s"), ("E6", "s"), ("E6", "c"), ("A1.T1", "sc"),
        ("A3.T1", "ss"), ("A2.A2", "C"), ("T2", "C"),
    ]
    for kernel in (None, "ad")
]


@pytest.mark.parametrize("text,letters,kernel", THETA_GROUPS)
def test_theta_star_and_rho_drop_match_weyl_matrix(text, letters, kernel):
    ic = context(text, letters, kernel)
    n = ic.rd.rank
    ident = lin.identity(n)
    theta_stars = reference_theta_stars(ic)
    # from the top down, so most walks pass several uncached ancestors
    for inv in reversed(range(len(ic.table))):
        lat = ic.lattice(inv)
        theta = theta_stars[inv]
        assert lat.theta_star == theta
        assert lat.drop == reference_rho_check_drop(ic, theta)
        heights = ic.rd.two_rho_check
        for r in ic.rd.positive_roots:
            if lin.mat_vec(theta, r.covec) == r.covec:
                heights = lin.vec_add(heights, r.covec)
        assert lat.heights == heights
        minus = lin.smith_form(lin.mat_sub(ident, theta), ncols=n)
        rank, rows, twos, ones = lat.minus
        transposed = lin.transpose(theta)
        assert (rank, twos, ones) == (minus.rank, minus.diag.count(2), minus.diag.count(1))
        # a basis of the theta-fixed characters: fixed, and spanning the Smith rows' lattice
        assert all(lin.mat_vec(transposed, r) == r for r in rows)
        assert lin.row_hnf(rows) == lin.row_hnf(minus.uinv[minus.rank:])
        plus = lin.smith_form(lin.mat_add(ident, theta), ncols=n)
        # 1 - theta and 1 + theta, just reduced, have the ranks of theta -/+ 1
        assert lat.ranks == rank_decomposition(theta, (minus.rank, plus.rank))
        assert lat.plus == plus
    # no record depends on which ancestors were cached when it was built
    fresh = context(text, letters, kernel)
    for inv in range(len(fresh.table)):
        assert fresh.lattice(inv) == ic.lattice(inv)


CLOSED_FORM_GROUPS = [
    (text, letters, kernel) for text in SMALL_TYPES for letters in "cs" for kernel in (None, "ad")
] + [
    ("A3", "s", "2/4"), ("D4", "u", "1/2,1/2"), ("A1.T1", "ss", None), ("A1.T1", "sc", "ad"),
    ("A3.T1", "ss", "ad"), ("A2.T1", "sc", None), ("T2", "C", None), ("A1.A1", "C", None),
    ("A2.A2", "C", "ad"), ("E6", "s", None), ("E6", "c", "ad"),
]


def test_closed_form_theta_star_matches_chain_reference():
    # tori, complex pairs, unequal rank, a kernel of order 2 in Z/4 and a
    # half-spin kernel: frames B = 1, permutations of 1, and dense B^-1
    dens = set()
    for text, letters, kernel in CLOSED_FORM_GROUPS:
        ic = context(text, letters, kernel)
        thetas = ic.table.thetas
        for inv, theta_star in enumerate(reference_theta_star(ic)):
            assert ic.rd.cocharacter_action(thetas[inv], ic._dstar) == theta_star
        dens.add(ic.rd._coroot_frame[2])
    assert {1, 2, 3, 4} <= dens


@pytest.mark.parametrize("kernel", [None, "ad"])
@pytest.mark.parametrize("letter", ["c", "s"])
@pytest.mark.parametrize("text", SMALL_TYPES)
def test_simple_grading_offsets_match_heights_reference(text, letter, kernel):
    # a simple root imaginary at inv is simple among the imaginary roots,
    # so its offset is denom without heights; the other roots read them
    ic = context(text, letter, kernel)
    table = ic.table
    for inv in range(len(table)):
        for j, kind in enumerate(table.kinds(inv)):
            if kind == IMAGINARY:
                k = table.simple[j]
                assert ic._grading_offset(inv, k) == reference_grading_offset(ic, inv, k)
    # denom reads the base record alone, and the simple offsets none
    assert set(ic._lattices) == {0}
    for inv in map(table.canonical_member, range(len(table.classes))):
        for k in table.imaginary_roots(inv):
            assert ic._grading_offset(inv, k) == reference_grading_offset(ic, inv, k)


@pytest.mark.parametrize(
    "text,letters,limits", [("D6", "s", (45, 45, 50)), ("F4", "s", (27, 27, 27))]
)
def test_smith_form_counts_do_not_grow(monkeypatch, text, letters, limits):
    """Smith forms from the root datum on stay within the recorded counts.

    The stages, in order: strong_count with the Cartan report and Hasse
    diagram of every form; real_weyl at every Cartan of every form; the
    KGB of every form.  Key rows and 1 + theta* are built lazily, and key
    rows are transported along complex descents, so the counts stay far
    below one per involution the parent walk meets: 31, 31 and 46 in
    split D6 (752 involutions), 19, 19 and 23 in split F4 (140).
    """
    calls = []
    smith_form = lin.smith_form
    monkeypatch.setattr(lin, "smith_form", lambda *a, **k: calls.append(1) or smith_form(*a, **k))
    ic = context(text, letters)
    forms = range(len(ic.real_forms))

    def reports():
        ic.strong_count()
        for f in forms:
            format_cartan_report(ic, f)
            cartan_hasse(ic, f)

    def real_weyls():
        for f in forms:
            for c in ic.form_cartans(f):
                real_weyl(ic, f, c)

    def kgbs():
        for f in forms:
            generate_kgb(ic, f)

    for stage, limit in zip((reports, real_weyls, kgbs), limits):
        stage()
        assert len(calls) <= limit


FIBER_GROUPS = [
    ("A3", "c", None), ("C2", "s", None), ("A5", "s", None), ("B3", "s", None),
    ("D4", "s", None), ("G2", "s", None), ("A3", "c", "ad"), ("A3", "s", "2/4"),
    ("D4", "u", "1/2,1/2"), ("A1.T1", "sc", None), ("A5", "c", None),
]


@pytest.mark.parametrize("text,letters,kernel", FIBER_GROUPS)
def test_fiber_keys_and_inverse_cayley_match_references(text, letters, kernel):
    ic = context(text, letters, kernel)
    n = ic.rd.rank
    points = cayleys = 0
    for inv in range(len(ic.table)):
        rows = reference_key_rows(ic, inv)
        moves = (lin.zero_vector(n), *lin.transpose(
            lin.mat_sub(lin.identity(n), ic.lattice(inv).theta_star)
        ))
        for sq in ic.square_classes:
            fiber = ic.fiber_elements(inv, sq.key)
            # subset sums in the closure's order, keyed by sums of keys: the
            # key of element i less element 0's is d/2 times its key mask
            keys = tuple(ic.x_key((inv, t))[1] for t in fiber)
            record, masks = ic._fibers[(inv, sq.key)], []
            if record is not None:
                rank = len(record.gens)
                masks = [sum(1 << g for g in c) for size in range(rank + 1)
                         for c in combinations(range(rank), size)]
                assert len(record.keys) == len(masks)
            assert len(fiber) == len(masks)
            half = ic.denom // 2
            for k, b in zip(keys, masks):
                bits = tuple(half * (record.keys[b] >> r & 1) for r in range(len(k)))
                assert lin.vec_mod(lin.vec_sub(k, keys[0]), ic.denom) == bits
            assert fiber == reference_fiber_elements(ic, inv, sq.key)[0]
            # the key rows may be another basis than the Smith rows, so
            # compare partitions: t + (1 - theta*) e is the element of t
            xs = [(inv, lin.vec_add(t, m)) for t in fiber for m in moves]
            got = [ic.x_key(x) for x in xs]
            refs = [reference_x_key(ic, x, rows) for x in xs]
            assert [got.index(k) for k in got] == [refs.index(r) for r in refs]
            for t in fiber:
                x = (inv, t)
                for j, (kind, nbr) in enumerate(ic.table.status_row(inv)):
                    if kind == REAL:
                        got = inverse_cayley(ic, j, x)
                        assert got == reference_inverse_cayley(ic, j, x)
                        assert got == reference_two_offset_inverse_cayley(ic, j, x)
                        # the one candidate real_form_of takes
                        assert first_inverse_cayley(ic, j, nbr, t) == (got[0] if got else None)
                        cayleys += bool(got)
                points += 1
    assert points and cayleys


def point_counts(ic, inv, parts):
    """Fiber sizes over inv by square class: the library's key masks, and
    the reference partition's members."""
    return [
        (0 if (f := ic._fibers[(inv, sq.key)]) is None else len(f.keys),
         sum(len(members) for key, members, *_ in parts if key == sq.key))
        for sq in ic.square_classes
    ]


@pytest.mark.parametrize("text,letters,kernel", FIBER_GROUPS)
def test_orbit_partition_matches_point_by_point_reference(text, letters, kernel):
    ic = context(text, letters, kernel)
    for inv in range(len(ic.table)):
        parts = reference_orbit_partition(ic, inv)
        # key, members, moves, points and the order of the orbits
        assert ic._orbit_partition(inv) == parts
        counts = point_counts(ic, inv, parts)
        assert [got for got, _ in counts] == [want for _, want in counts]


@pytest.mark.parametrize("kernel", [None, "ad"])
@pytest.mark.parametrize("letter", ["c", "s"])
@pytest.mark.parametrize("text", SMALL_TYPES)
def test_orbit_partition_and_strong_counts_match_reference_on_the_grid(text, letter, kernel):
    ic = context(text, letter, kernel)
    for c in range(len(ic.table.classes)):
        inv = ic.table.canonical_member(c)
        parts = reference_orbit_partition(ic, inv)
        assert ic._orbit_partition(inv) == parts
        counts = point_counts(ic, inv, parts)
        assert [got for got, _ in counts] == [want for _, want in counts]
        # strong_count_at reads the key masks; it builds no point
        assert ic.strong_count_at(c) == sum(want for _, want in counts) * len(ic.table.classes[c])


def test_fiber_refuses_a_key_entry_other_than_zero_or_half(monkeypatch):
    x_key = InnerClass.x_key

    def off_by_one(self, x):
        return x[0], tuple(v + 1 for v in x_key(self, x)[1])

    # at a generator key
    ic = context("A1", "s")
    monkeypatch.setattr(InnerClass, "x_key", off_by_one)
    with pytest.raises(RuntimeError, match="entry other than 0 or denom/2"):
        ic.strong_count()
    # at a shift key, once the fibers are built
    monkeypatch.setattr(InnerClass, "x_key", x_key)
    ic = context("A1", "s")
    ic.strong_count()
    monkeypatch.setattr(InnerClass, "x_key", off_by_one)
    with pytest.raises(RuntimeError, match="entry other than 0 or denom/2"):
        ic._orbit_partition(0)


def test_fiber_refuses_a_reflection_image_outside_it(monkeypatch):
    # A1 s at involution 0: one generator, key masks (0, 1), and the
    # noncompact reflection's shift has the mask 1; with the key masks
    # doubled it names no point of the fiber
    fiber = InnerClass._fiber

    def doubled_masks(self, inv, key):
        f = fiber(self, inv, key)
        return f and f._replace(keys=tuple(2 * k for k in f.keys))

    ic = context("A1", "s")
    monkeypatch.setattr(InnerClass, "_fiber", doubled_masks)
    with pytest.raises(RuntimeError, match="leaves the fiber"):
        ic._orbit_partition(0)


def test_fiber_refuses_dependent_generator_keys(monkeypatch):
    # every key 0: the 2^k key masks of a fiber of rank k > 0 coincide
    x_key = InnerClass.x_key
    monkeypatch.setattr(InnerClass, "x_key", lambda self, x: (x[0], (0,) * len(x_key(self, x)[1])))
    with pytest.raises(RuntimeError, match="fiber size is not 2\\^\\(fiber rank\\)"):
        context("A3", "c").strong_count()


@pytest.mark.parametrize("text,letters,kernel", FIBER_GROUPS)
def test_inverse_cayley_candidates_square_like_x(text, letters, kernel):
    # why inverse_cayley keys no square class: every noncompact point of
    # the coroot line through s_j t has the square numerators of x mod d
    ic = context(text, letters, kernel)
    d = ic.denom
    checked = 0
    for inv in range(len(ic.table)):
        for sq in ic.square_classes:
            for t in ic.fiber_elements(inv, sq.key):
                x = (inv, t)
                square = lin.vec_mod(ic._square_numerators(x), d)
                for j, (kind, nbr) in enumerate(ic.table.status_row(inv)):
                    if kind != REAL:
                        continue
                    base = ic._reflect(j, t)
                    av = ic.rd.simple_coroots[j]
                    cands = [
                        (nbr, lin.vec_mod(lin.vec_add(base, lin.vec_scale(av, c)), d))
                        for c in range(d)
                    ]
                    noncompact = [y for y in cands if ic.grading(y, j)]
                    assert set(inverse_cayley(ic, j, x)) <= set(noncompact)
                    for y in noncompact:
                        assert lin.vec_mod(ic._square_numerators(y), d) == square
                        checked += 1
    assert checked


def rank_triples(ic, swap=False):
    out = []
    for c in range(len(ic.table.classes)):
        dec = ic.cartan_ranks(c)
        split, compact = (dec.compact, dec.split) if swap else (dec.split, dec.compact)
        out.append((split, compact, dec.complex_pairs))
    return sorted(out)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    text=st.sampled_from(SMALL_TYPES),
    letter=st.sampled_from("cs"),
    kernel=st.sampled_from([None, "ad"]),
)
def test_dual_inner_class_has_dual_classes(text, letter, kernel):
    # the dual of (type, kernel, c|s) is (dual type, opposite kernel, s|c)
    ic = context(text, letter, kernel)
    dual = context(
        str(dual_lie_type(parse_lie_type(text))),
        "s" if letter == "c" else "c",
        None if kernel else "ad",
    )
    assert len(ic.table) == len(dual.table)
    assert sorted(map(len, ic.table.classes)) == sorted(map(len, dual.table.classes))
    assert rank_triples(ic) == rank_triples(dual, swap=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    text=st.sampled_from(SMALL_TYPES),
    letter=st.sampled_from("cs"),
    kernel=st.sampled_from([None, "ad"]),
)
def test_strong_involutions_fill_kgb_and_fibers(text, letter, kernel):
    ic = context(text, letter, kernel)
    # every strong involution lies in the KGB of exactly one base-fiber orbit
    forms = [o.form for o in ic.fundamental_orbits]
    assert sum(generate_kgb(ic, forms[o], o).size for o in range(len(forms))) \
        == ic.strong_count()
    # a fiber over a Cartan class is empty or has 2^(fiber rank) points
    for c in range(len(ic.table.classes)):
        inv = ic.table.canonical_member(c)
        sizes = {len(ic.fiber_elements(inv, sq.key)) for sq in ic.square_classes}
        assert sizes - {0} == {2 ** ic.cartan_ranks(c).compact}
