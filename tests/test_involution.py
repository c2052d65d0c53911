"""Tests for strong real forms, square classes, and real form naming."""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realred import lin
from realred.cartan import cartan_class, cartan_hasse, format_cartan_report, real_weyl
from realred.involution import (
    InnerClass,
    InvolutionLattice,
    _split_product,
    format_real_form_menu,
    format_strong_real,
)
from realred.kgb import generate_kgb
from realred.rootdata import InputError, build_root_datum, dual_lie_type, parse_lie_type
from realred.weyl import COMPLEX_DOWN, IMAGINARY, REAL, parse_units

from contexts import RECORD_GROUPS, SMALL_TYPES, context
from digest_outputs import CONTEXTS
from oracles import (
    classical_real_forms, coreflections, cross_word, rank_decomposition, reference_adjoint_context,
    reference_central_translates, reference_component_rank, reference_fiber_elements,
    reference_inverse_cayley, reference_normal_form_word, reference_rho_check_drop,
    reference_root_grading, reference_theta_star, reference_to_ad,
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
                back = ic.inverse_cayley(j, up)
                assert ic.x_key(x) in {ic.x_key(y) for y in back}
            if kind == REAL:
                for y in ic.inverse_cayley(j, x):
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
        ic.inverse_cayley(0, noncompact[0])
    assert ic.inverse_cayley(0, split)


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
                steps.extend(ic.inverse_cayley(j, x))
        x = steps[-1]
        inv = x[0]
    return ic._base_form_by_key[ic.x_key(x)]


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_descent_is_path_independent(text, letters, kernel):
    ic = context(text, letters, kernel)
    for x, _ in all_strong_involutions(ic):
        assert descend_last(ic, x) == ic.real_form_of(x)


def test_every_strong_involution_descends():
    for text, letters, kernel in [("A3", "c", None), ("C2", "s", None),
                                  ("A5", "s", None), ("A3", "c", "ad")]:
        ic = context(text, letters, kernel)
        nforms = len(ic.real_forms)
        for x, _ in all_strong_involutions(ic):
            assert 0 <= ic.real_form_of(x) < nforms


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
    assert ic._orbit_form_indices == tuple(
        ad.real_form_of((0, reference_to_ad(ic, ad, members[0])))
        for _, members, *_ in ic._fundamental_orbits
    )
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
    # from the top down, so most walks pass several uncached ancestors
    for inv in reversed(range(len(ic.table))):
        lat = ic.lattice(inv)
        theta = reference_theta_star(ic, inv)
        assert lat.theta_star == theta
        assert lat.drop == reference_rho_check_drop(ic, theta)
        heights = ic.rd.two_rho_check
        for r in ic.rd.positive_roots:
            if lin.mat_vec(theta, r.covec) == r.covec:
                heights = lin.vec_add(heights, r.covec)
        assert lat.heights == heights
        minus = lin.smith_form(lin.mat_sub(ident, theta), ncols=n)
        assert lat.minus == (
            minus.rank, minus.uinv[minus.rank:], minus.diag.count(2), minus.diag.count(1)
        )
        plus = lin.smith_form(lin.mat_add(ident, theta), ncols=n)
        # 1 - theta and 1 + theta, just reduced, have the ranks of theta -/+ 1
        assert lat.ranks == rank_decomposition(theta, (minus.rank, plus.rank))
        assert lat.plus == plus
    # no record depends on which ancestors were cached when it was built
    fresh = context(text, letters, kernel)
    for inv in range(len(fresh.table)):
        assert fresh.lattice(inv) == ic.lattice(inv)


@pytest.mark.parametrize("text,letters,limits", [("D6", "s", (45,)), ("F4", "s", (27, 27, 154))])
def test_smith_form_counts_do_not_grow(monkeypatch, text, letters, limits):
    """Smith forms from the root datum on stay within the recorded counts.

    The stages, in order: strong_count with the Cartan report and Hasse
    diagram of every form; real_weyl at every Cartan of every form; the
    KGB of every form.  Key rows and 1 + theta* are built lazily, so the
    counts stay far below one per involution the parent walk meets.
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
    points = cayleys = 0
    for inv in range(len(ic.table)):
        for sq in ic.square_classes:
            fiber = ic.fiber_elements(inv, sq.key)
            # subset sums in the closure's order, keyed by sums of keys
            assert ic._fibers[(inv, sq.key)] == reference_fiber_elements(ic, inv, sq.key)
            for t in fiber:
                x = (inv, t)
                assert ic.x_key(x) == reference_x_key(ic, x)
                for j, (kind, _) in enumerate(ic.table.status_row(inv)):
                    if kind == REAL:
                        got = ic.inverse_cayley(j, x)
                        assert got == reference_inverse_cayley(ic, j, x)
                        assert got == reference_two_offset_inverse_cayley(ic, j, x)
                        cayleys += bool(got)
                points += 1
    assert points and cayleys


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
                    assert set(ic.inverse_cayley(j, x)) <= set(noncompact)
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
    forms = ic._orbit_form_indices
    assert sum(generate_kgb(ic, forms[o], o).size for o in range(len(forms))) \
        == ic.strong_count()
    # a fiber over a Cartan class is empty or has 2^(fiber rank) points
    for c in range(len(ic.table.classes)):
        inv = ic.table.canonical_member(c)
        sizes = {len(ic.fiber_elements(inv, sq.key)) for sq in ic.square_classes}
        assert sizes - {0} == {2 ** ic.cartan_ranks(c).compact}
