"""Tests for Cartan classes, real Weyl groups, and the Cartan ordering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realred import cartan as cartan_module
from realred import weyl
from realred.cartan import (
    _complex_factor,
    cartan_class,
    cartan_classes,
    class_facts,
    cartan_hasse,
    format_cartan_block,
    format_cartan_report,
    format_real_weyl,
    real_weyl,
    system_type,
    weyl_order,
)
from realred.kgb import generate_kgb
from realred.rootdata import InputError

from contexts import RECORD_GROUPS, SMALL_TYPES, context, quasisplit
from digest_outputs import GROUPS
from oracles import brute_force_hasse, reference_real_weyl


def decompositions(ic):
    out = {}
    for cc in cartan_classes(ic, quasisplit(ic)):
        d = cc.decomposition
        out[cc.index] = (d.split, d.compact, d.complex_pairs)
    return out


# -- type recognition ------------------------------------------------------


def test_system_type_rank_two_double_bond_is_b2():
    table = context("C2", "s").table
    assert system_type(table, range(len(table.reflections))) == "B2"


def test_system_type_orthogonal_pair_is_a1_a1():
    # the long roots of C2, of the shape of the rank-two even orthogonal system
    table = context("C2", "s").table
    long = [k for k, r in enumerate(table.rd.positive_roots) if r.coeffs in ((0, 1), (2, 1))]
    assert system_type(table, long) == "A1.A1"


def test_system_type_empty():
    assert system_type(context("C2", "s").table, []) == ""


def test_weyl_order():
    assert weyl_order("") == 1
    assert weyl_order("A1") == 2
    assert weyl_order("A2.B3") == 6 * 48
    assert weyl_order("C4") == 384
    assert weyl_order("D4") == 192
    assert weyl_order("E6") == 51840
    assert weyl_order("G2.F4") == 12 * 1152


# -- Cartan class reports --------------------------------------------------


def test_cartan_report_sl2r():
    ic = context("A1", "s")
    assert format_cartan_report(ic, 1) == [
        "Cartan #0:",
        "split: 0; compact: 1; complex: 0",
        "canonical twisted involution:",
        "twisted involution orbit size: 1;  fiber rank: 1;  #X_r: 2",
        "imaginary root system: A1",
        "real root system is empty",
        "complex factor is empty",
        "real form #1: [0] (1)",
        "real form #0: [1] (1)",
        "",
        "Cartan #1:",
        "split: 1; compact: 0; complex: 0",
        "canonical twisted involution: 1",
        "twisted involution orbit size: 1;  fiber rank: 0;  #X_r: 1",
        "imaginary root system is empty",
        "real root system: A1",
        "complex factor is empty",
        "real form #1: [0] (1)",
    ]


def test_cartan_report_su2():
    ic = context("A1", "s")
    assert format_cartan_report(ic, 0) == [
        "Cartan #0:",
        "split: 0; compact: 1; complex: 0",
        "canonical twisted involution:",
        "twisted involution orbit size: 1;  fiber rank: 1;  #X_r: 2",
        "imaginary root system: A1",
        "real root system is empty",
        "complex factor is empty",
        "real form #1: [0] (1)",
        "real form #0: [1] (1)",
    ]


def test_cartan_report_sl2c():
    ic = context("A1.A1", "C")
    assert format_cartan_report(ic, 0) == [
        "Cartan #0:",
        "split: 0; compact: 0; complex: 1",
        "canonical twisted involution:",
        "twisted involution orbit size: 2;  fiber rank: 0;  #X_r: 2",
        "imaginary root system is empty",
        "real root system is empty",
        "complex factor: A1",
        "real form #0: [0] (1)",
    ]


@pytest.mark.parametrize("text,letters,ranks,fiber", [
    ("T2", "C", "split: 0; compact: 0; complex: 1", "fiber rank: 0;  #X_r: 1"),
    ("T1", "s", "split: 1; compact: 0; complex: 0", "fiber rank: 0;  #X_r: 1"),
    ("T1", "c", "split: 0; compact: 1; complex: 0", "fiber rank: 1;  #X_r: 2"),
], ids=["T2-C", "T1-s", "T1-c"])
def test_cartan_report_pure_torus(text, letters, ranks, fiber):
    ic = context(text, letters)
    assert format_cartan_report(ic, 0) == [
        "Cartan #0:",
        ranks,
        "canonical twisted involution:",
        f"twisted involution orbit size: 1;  {fiber}",
        "imaginary root system is empty",
        "real root system is empty",
        "complex factor is empty",
        "real form #0: [0] (1)",
    ]


def test_cartan_report_sp4r():
    ic = context("C2", "s")
    assert format_cartan_report(ic, 2) == [
        "Cartan #0:",
        "split: 0; compact: 2; complex: 0",
        "canonical twisted involution:",
        "twisted involution orbit size: 1;  fiber rank: 2;  #X_r: 4",
        "imaginary root system: B2",
        "real root system is empty",
        "complex factor is empty",
        "real form #2: [0,1] (2)",
        "real form #1: [2] (1)",
        "real form #0: [3] (1)",
        "",
        "Cartan #1:",
        "split: 0; compact: 0; complex: 1",
        "canonical twisted involution: 2,1,2",
        "twisted involution orbit size: 2;  fiber rank: 0;  #X_r: 2",
        "imaginary root system: A1",
        "real root system: A1",
        "complex factor is empty",
        "real form #2: [0] (1)",
        "real form #1: [1] (1)",
        "",
        "Cartan #2:",
        "split: 1; compact: 1; complex: 0",
        "canonical twisted involution: 1,2,1",
        "twisted involution orbit size: 2;  fiber rank: 1;  #X_r: 4",
        "imaginary root system: A1",
        "real root system: A1",
        "complex factor is empty",
        "real form #2: [0] (1)",
        "",
        "Cartan #3:",
        "split: 2; compact: 0; complex: 0",
        "canonical twisted involution: 1,2,1,2",
        "twisted involution orbit size: 1;  fiber rank: 0;  #X_r: 1",
        "imaginary root system is empty",
        "real root system: B2",
        "complex factor is empty",
        "real form #2: [0] (1)",
    ]


def test_cartan_block_e6_f4():
    ic = context("E6", "s")
    block = format_cartan_block(cartan_classes(ic, 0)[0])
    assert block == [
        "Cartan #0:",
        "split: 0; compact: 2; complex: 2",
        "canonical twisted involution:",
        "twisted involution orbit size: 45;  fiber rank: 2;  #X_r: 180",
        "imaginary root system: D4",
        "real root system is empty",
        "complex factor: A2",
        "real form #1: [0,1,2] (3)",
        "real form #0: [3] (1)",
    ]


def test_cartan_blocks_spin66_middle():
    ic = context("D6", "s")
    blocks = {
        cc.index: format_cartan_block(cc)
        for cc in cartan_classes(ic, 5)
        if cc.index in (4, 5, 6)
    }
    assert blocks[4] == [
        "Cartan #4:",
        "split: 1; compact: 1; complex: 2",
        "canonical twisted involution:"
        " 3,4,5,6,4,3,2,3,4,5,6,4,3,1,2,3,4,5,6,4,3,2,1",
        "twisted involution orbit size: 180;  fiber rank: 1;  #X_r: 360",
        "imaginary root system: A1.A1.A1",
        "real root system: A1.A1.A1",
        "complex factor: A1",
        "real form #5: [0] (1)",
        "real form #4: [1] (1)",
    ]
    # the two mirror classes agree except for the involution and the
    # mirror-image form met in the fiber
    assert blocks[5] == [
        "Cartan #5:",
        "split: 1; compact: 1; complex: 2",
        "canonical twisted involution: 5,4,6,3,4,5,2,3,4,6,1,2,3,4,5",
        "twisted involution orbit size: 60;  fiber rank: 1;  #X_r: 120",
        "imaginary root system: A1.A1.A1",
        "real root system: A1.A1.A1",
        "complex factor: A2",
        "real form #5: [0] (1)",
        "real form #2: [1] (1)",
    ]
    assert blocks[6] == [
        "Cartan #6:",
        "split: 1; compact: 1; complex: 2",
        "canonical twisted involution: 6,4,5,3,4,6,2,3,4,5,1,2,3,4,6",
        "twisted involution orbit size: 60;  fiber rank: 1;  #X_r: 120",
        "imaginary root system: A1.A1.A1",
        "real root system: A1.A1.A1",
        "complex factor: A2",
        "real form #5: [0] (1)",
        "real form #3: [1] (1)",
    ]


def test_cartan_block_spin88_three_pair_class():
    ic = context("D8", "s")
    hits = [
        cc
        for cc in cartan_classes(ic, quasisplit(ic))
        if (cc.decomposition.split, cc.decomposition.compact,
            cc.decomposition.complex_pairs) == (0, 2, 3)
    ]
    assert len(hits) == 1
    cc = hits[0]
    assert cc.orbit_size == 3360
    assert cc.fiber_rank == 2
    assert cc.xr_count == 13440
    assert cc.imaginary_type == "A1.A1.A1.A1.A1"
    assert cc.real_type == "A1.A1.A1"
    assert cc.complex_type == "A2"


# -- class decompositions --------------------------------------------------


@pytest.mark.parametrize(
    "text,letters,kernel",
    [("B3", "s", "ad"), ("C3", "s", None), ("C2", "s", None)],
)
def test_rank_pairs_enumerate_classes(text, letters, kernel):
    # for the odd orthogonal and symplectic families every admissible
    # (split, complex) pair occurs exactly once, on a lattice where the
    # eigenlattices of each involution split off integrally
    ic = context(text, letters, kernel)
    n = ic.rd.semisimple_rank
    expected = {
        (a, n - a - 2 * c, c)
        for a in range(n + 1)
        for c in range((n - a) // 2 + 1)
    }
    found = list(decompositions(ic).values())
    assert len(found) == len(expected)
    assert set(found) == expected


def test_decomposition_depends_on_lattice():
    # on the spin weight lattice two involutions lose an integral
    # eigenvector pair and pick up a complex factor instead; the real
    # rank (split + complex) is unchanged
    sc = sorted(decompositions(context("B3", "s")).values())
    ad = sorted(decompositions(context("B3", "s", "ad")).values())
    assert ad == [
        (0, 1, 1), (0, 3, 0), (1, 0, 1), (1, 2, 0), (2, 1, 0), (3, 0, 0),
    ]
    assert sc == [
        (0, 1, 1), (0, 1, 1), (0, 3, 0), (1, 0, 1), (1, 0, 1), (3, 0, 0),
    ]
    assert sorted(a + c for a, _, c in sc) == sorted(a + c for a, _, c in ad)


def test_decomposition_ranks_add_up():
    for text, letters in [("A3", "c"), ("D6", "s"), ("E6", "s"), ("G2", "s")]:
        ic = context(text, letters)
        for d in decompositions(ic).values():
            assert d[0] + d[1] + 2 * d[2] == ic.rd.semisimple_rank


def counted_complex_factor(monkeypatch):
    """Fresh shared tables, and the list of the class of every
    _complex_factor call, to which each call appends."""
    monkeypatch.setattr(weyl, "_TABLES", {})
    built = []
    complex_factor = cartan_module._complex_factor

    def counted(table, inv):
        built.append(table.class_of[inv])
        return complex_factor(table, inv)

    monkeypatch.setattr(cartan_module, "_complex_factor", counted)
    return built


def test_cartan_reports_build_each_class_once(monkeypatch):
    # each build of a class record takes the complex factor of its class once
    built = counted_complex_factor(monkeypatch)
    ic = context("B4", "s")
    reports = [format_cartan_report(ic, f) for f in range(len(ic.real_forms))]
    # the five forms meet the nine classes 22 times
    assert sum(len(ic.form_cartans(f)) for f in range(len(ic.real_forms))) == 22
    assert sorted(built) == list(range(len(ic.table.classes))) == list(range(9))
    assert cartan_class(ic, 3) is cartan_class(ic, 3)
    assert reports == [format_cartan_report(ic, f) for f in range(len(ic.real_forms))]
    assert len(built) == 9


@pytest.mark.parametrize("text,letters", [("B4", "s"), ("A3.A3", "C"), ("D4", "s")])
def test_class_facts_are_built_once_per_class(monkeypatch, text, letters):
    # the sc and ad contexts share one table, and the report and the
    # real_weyl of every form of both read one record per class; the
    # report reads only its types and builds no generator word
    built = counted_complex_factor(monkeypatch)
    contexts = [context(text, letters), context(text, letters, "ad")]
    assert contexts[0].table is contexts[1].table
    assert contexts[0].rd != contexts[1].rd
    classes = range(len(contexts[0].table.classes))
    for ic in contexts:
        for f in range(len(ic.real_forms)):
            format_cartan_report(ic, f)
    assert sorted(built) == list(classes)
    assert not any(
        {"complex_generators", "real_generators"} & set(vars(class_facts(contexts[1], c)))
        for c in classes
    )
    for ic in contexts:
        for f in range(len(ic.real_forms)):
            for c in ic.form_cartans(f):
                dec = real_weyl(ic, f, c)
                facts = class_facts(ic, c)
                assert dec.complex_generators is facts.complex_generators
                assert dec.real_generators is facts.real_generators
                assert (dec.complex_type, dec.real_type) == (facts.complex_type, facts.real_type)
    assert sorted(built) == list(classes)
    assert all(class_facts(contexts[0], c) is class_facts(contexts[1], c) for c in classes)
    with pytest.raises(InputError):
        class_facts(contexts[1], len(classes))


def facts_record(ic):
    """Every field of every class's ClassFacts but the table, after a
    read of each lazy one, which keeps it among the fields."""
    out = []
    for c in range(len(ic.table.classes)):
        facts = class_facts(ic, c)
        for name in ("complex_generators", "real_generators", "cayley_targets"):
            getattr(facts, name)
        out.append({k: v for k, v in vars(facts).items() if k != "table"})
    return out


@pytest.mark.parametrize("first,second", [
    (("B4", "s", None), ("B4", "s", "ad")),
    (("D4", "s", None), ("D4", "s", "ad")),
    (("A3", "c", "ad"), ("A3", "c", None)),
    (("A1", "s", None), ("A1.T1", "ss", "ad")),
    (("A3", "s", None), ("A3.T1", "ss", None)),
    (("A2", "s", "ad"), ("A2.T1", "sc", None)),
])
def test_class_facts_do_not_depend_on_the_isogeny_that_builds_the_table(
    monkeypatch, first, second
):
    # tables are keyed by (Cartan matrix, delta's diagram permutation), so
    # a type and its product with a torus can share one too
    records = []
    for order in ((first, second), (second, first)):
        monkeypatch.setattr(weyl, "_TABLES", {})
        builder, reader = (context(*g) for g in order)
        assert builder.table is reader.table and builder.table.rd is builder.rd
        records.append(facts_record(reader))
    assert records[0] == records[1]
    assert len(records[0]) > 1
    assert len(records[0][-1]) == 10


def test_quasisplit_form_meets_every_cartan_class():
    for text, letters in [
        ("A3", "c"),
        ("C2", "s"),
        ("D6", "s"),
        ("E6", "s"),
        ("B3", "s"),
        ("G2", "s"),
    ]:
        ic = context(text, letters)
        indices = [cc.index for cc in cartan_classes(ic, quasisplit(ic))]
        assert indices == list(range(len(ic.table.classes)))


def test_gl_duality_of_cartan_decompositions():
    # the equal-rank and split unitary-style groups built on the same
    # lattice have dual Cartan inventories: split and compact parts swap
    for n in (2, 3, 4):
        kernel = f"1/{n},1/{n}"
        cc = context(f"A{n - 1}.T1", "cc", kernel)
        ss = context(f"A{n - 1}.T1", "ss", kernel)
        cc_triples = set(decompositions(cc).values())
        ss_triples = set(decompositions(ss).values())
        assert cc_triples == {(0, n - 2 * c, c) for c in range(n // 2 + 1)}
        assert ss_triples == {(n - 2 * c, 0, c) for c in range(n // 2 + 1)}
        assert {(b, a, c) for a, b, c in cc_triples} == ss_triples


def assert_orbit_sizes_from_types(ic):
    """Each class has |W| / (|W_i| |W_r| |W_C|) members, read off its
    imaginary, real and complex types (W^theta = (W_i x W_r) x| W_C^theta),
    and the classes fill the table."""
    full = weyl_order(system_type(ic.table, range(len(ic.rd.positive_roots))))
    sizes = []
    for c, ids in enumerate(ic.table.classes):
        cc = cartan_class(ic, c)
        size, rest = divmod(
            full,
            weyl_order(cc.imaginary_type) * weyl_order(cc.real_type) * weyl_order(cc.complex_type),
        )
        assert rest == 0
        assert len(ids) == cc.orbit_size == size
        sizes.append(size)
    assert sum(sizes) == len(ic.table)


def test_group_order_factors_over_every_class():
    for text, letters, kernel in [
        ("A2", "s", None),
        ("C2", "s", None),
        ("C2", "s", "ad"),
        ("A3", "c", None),
        ("A3.A3", "C", None),
        ("D6", "s", None),
        ("D6", "c", "1/2,0/2"),
        ("E6", "s", None),
        ("D5", "c", None),
        ("B3", "s", None),
        ("G2", "s", None),
        ("F4", "s", None),
    ]:
        assert_orbit_sizes_from_types(context(text, letters, kernel))


@pytest.mark.parametrize("text,letters", GROUPS + [("E7", "s"), ("D8", "s")])
def test_orbit_sizes_follow_from_types(text, letters):
    # the digested groups, and the 10,208 and 17,040 involutions of E7 s and D8 s
    assert_orbit_sizes_from_types(context(text, letters))


# -- real Weyl groups ------------------------------------------------------


def test_real_weyl_sl2r():
    ic = context("A1", "s")
    assert format_real_weyl(real_weyl(ic, 1, 0)) == [
        "real weyl group is W^C.((A.W_ic) x W^R), where:",
        "W^C is trivial",
        "A is trivial",
        "W_ic is trivial",
        "W^R is trivial",
    ]
    assert format_real_weyl(real_weyl(ic, 1, 1)) == [
        "real weyl group is W^C.((A.W_ic) x W^R), where:",
        "W^C is trivial",
        "A is trivial",
        "W_ic is trivial",
        "W^R is a Weyl group of type A1",
        "",
        "generators for W^R:",
        "1",
    ]


@pytest.mark.parametrize("text,form,order", [
    ("B4", 3, 48), ("B4", 4, 32), ("C4", 1, 96),
])
def test_real_weyl_compact_type_independent_of_fiber_point(text, form, order):
    # The fiber points of these forms at the fundamental Cartan give
    # compact systems with the same components in different orders,
    # within one orbit and, for C4 form 1, between its two orbits.
    dec = real_weyl(context(text, "s"), form, 0)
    assert (dec.order, dec.a_rank) == (order, 0)


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_compact_type_is_constant_on_each_orbit(text, letters, kernel):
    # real_weyl grades the first member of each orbit only
    ic = context(text, letters, kernel)
    for c in range(len(ic.table.classes)):
        imaginary = ic.table.imaginary_roots(ic.table.canonical_member(c))
        for o in ic.cartan_orbits(c):
            types = {
                tuple(sorted(system_type(
                    ic.table, [k for k in imaginary if not ic.root_grading(x, k)]
                ).split(".")))
                for x in o.members
            }
            assert len(types) == 1


def test_real_weyl_su2_is_full_weyl_group():
    ic = context("A1", "s")
    dec = real_weyl(ic, 0, 0)
    assert dec.compact_type == "A1"
    assert dec.order == 2


def test_real_weyl_pgl2r_compact_cartan():
    ic = context("A1", "s", "ad")
    assert format_real_weyl(real_weyl(ic, 1, 0)) == [
        "real weyl group is W^C.((A.W_ic) x W^R), where:",
        "W^C is trivial",
        "A is an elementary abelian 2-group of rank 1",
        "W_ic is trivial",
        "W^R is trivial",
        "",
        "generators for A:",
        "1",
    ]


def test_real_weyl_e6_f4():
    ic = context("E6", "s")
    dec = real_weyl(ic, 0, 0)
    assert dec.order == 1152
    assert format_real_weyl(dec) == [
        "real weyl group is W^C.((A.W_ic) x W^R), where:",
        "W^C is isomorphic to a Weyl group of type A2",
        "A is trivial",
        "W_ic is a Weyl group of type D4",
        "W^R is trivial",
        "",
        "generators for W^C:",
        "1,6",
        "3,5",
        "",
        "generators for W_ic:",
        "4",
        "2",
        "3,4,5,4,3",
        "1,3,4,5,6,5,4,3,1",
    ]


def test_real_weyl_e6_split_fundamental_cartan():
    ic = context("E6", "s")
    dec = real_weyl(ic, 1, 0)
    assert dec.complex_type == "A2"
    assert dec.a_rank == 2
    assert dec.compact_type == "A1.A1.A1.A1"
    assert dec.real_type == ""
    assert dec.order == 6 * 4 * 16


def test_real_weyl_sl4c():
    ic = context("A3.A3", "C")
    dec = real_weyl(ic, 0, 0)
    assert dec.complex_type == "A3"
    assert dec.a_rank == 0
    assert dec.compact_type == ""
    assert dec.real_type == ""
    assert dec.order == 24
    assert sorted(dec.complex_generators) == [(0, 3), (1, 4), (2, 5)]
    # the complex factor keeps the component of each theta pair whose
    # basis comes first in the positive-root numbering
    side, pairs = _complex_factor(ic.table, ic.table.canonical_member(0))
    pos = ic.rd.positive_roots
    assert side == [0, 1, 2]
    assert [(pos[a].coeffs.index(1), pos[b].coeffs.index(1)) for a, b in pairs] == \
        [(5, 2), (4, 1), (3, 0)]


def test_real_weyl_spin88_three_pair_class():
    ic = context("D8", "s")
    target = [
        cc.index
        for cc in cartan_classes(ic, quasisplit(ic))
        if (cc.decomposition.split, cc.decomposition.compact,
            cc.decomposition.complex_pairs) == (0, 2, 3)
    ]
    dec = real_weyl(ic, quasisplit(ic), target[0])
    assert dec.complex_type == "A2"
    assert dec.a_rank == 3
    assert dec.compact_type == ""
    assert dec.real_type == "A1.A1.A1"
    assert dec.order == 6 * 8 * 8


def test_real_weyl_compact_form_is_full_weyl_group():
    # at the unique Cartan of the compact form everything is compact
    # imaginary, so the real Weyl group is all of W
    for text, letters in [("C2", "s"), ("A3", "c"), ("G2", "s")]:
        ic = context(text, letters)
        dec = real_weyl(ic, 0, 0)
        assert dec.a_rank == 0
        assert dec.complex_type == "" and dec.real_type == ""
        assert dec.order == weyl_order(system_type(ic.table, range(len(ic.rd.positive_roots))))


def test_real_weyl_compact_e6_every_cartan():
    # (form, Cartan, order, A rank) of every decomposition, as computed by
    # listing W_i (|W_i| = 51840 at the compact Cartan)
    ic = context("E6", "c")
    got = []
    for form in range(len(ic.real_forms)):
        for c in ic.form_cartans(form):
            dec = real_weyl(ic, form, c)
            got.append((form, c, dec.order, dec.a_rank))
    assert got == [
        (0, 0, 51840, 0), (1, 0, 1920, 0), (1, 1, 240, 0), (1, 2, 192, 0),
        (2, 0, 1440, 0), (2, 1, 144, 1), (2, 2, 64, 1), (2, 3, 96, 1),
        (2, 4, 1152, 0),
    ]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    text=st.sampled_from(SMALL_TYPES),
    letter=st.sampled_from("cs"),
    kernel=st.sampled_from([None, "ad"]),
)
def test_kgb_over_each_cartan_is_w_over_real_weyl(text, letter, kernel):
    # K-orbits of pairs (H, B) with H in one Cartan class c number
    # |W| / |W(K,H_c)| (Matsuki, Richardson-Springer)
    ic = context(text, letter, kernel)
    full = weyl_order(system_type(ic.table, range(len(ic.rd.positive_roots))))
    for form in range(len(ic.real_forms)):
        elements = generate_kgb(ic, form).elements
        cartans = ic.form_cartans(form)
        assert {e.cartan for e in elements} == set(cartans)
        for c in cartans:
            count = sum(e.cartan == c for e in elements)
            assert count * real_weyl(ic, form, c).order == full


# -- real Weyl groups by listing W_i: the reference ------------------------


@pytest.mark.parametrize("text,letters,kernel", [
    ("B3", "s", None), ("C3", "s", None), ("G2", "s", None), ("A3", "c", "ad"),
    ("D4", "s", "ad"), ("B4", "s", "ad"),
])
def test_real_weyl_matches_enumeration_reference(text, letters, kernel):
    ic = context(text, letters, kernel)
    for form in range(len(ic.real_forms)):
        for c in ic.form_cartans(form):
            assert real_weyl(ic, form, c) == reference_real_weyl(ic, form, c)


# -- ordering of Cartan classes --------------------------------------------


def test_hasse_sl2r():
    ic = context("A1", "s")
    h = cartan_hasse(ic, 1)
    assert h.nodes == (0, 1)
    assert h.edges == ((0, 1),)
    assert h.most_split == (0, 1)


def test_hasse_sp4r():
    ic = context("C2", "s")
    h = cartan_hasse(ic, 2)
    assert h.nodes == (0, 1, 2, 3)
    assert h.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert h.most_split == (0, 1, 3)


def real_rank_rows(ic, h):
    dec = decompositions(ic)
    rows = {}
    for node in h.nodes:
        a, _, c = dec[node]
        rows.setdefault(a + c, []).append(node)
    return rows


@pytest.mark.parametrize(
    "text,letters,sizes,flag_rows",
    [
        ("B6", "s", [1, 2, 3, 4, 3, 2, 1], [0, 1, 2, 3, 4, 5, 6]),
        ("C6", "s", [1, 2, 3, 4, 3, 2, 1], [0, 1, 2, 3, 6]),
        ("D6", "s", [1, 1, 2, 3, 2, 1, 1], [0, 2, 3, 3, 4, 6]),
        ("D6", "u", [1, 1, 2, 1, 1], [1, 3, 5]),
    ],
)
def test_hasse_shape_rank_six(text, letters, sizes, flag_rows):
    ic = context(text, letters)
    h = cartan_hasse(ic, quasisplit(ic))
    rows = real_rank_rows(ic, h)
    low = min(rows)
    assert [len(rows[r]) for r in sorted(rows)] == sizes
    assert sorted(rows) == list(range(low, low + len(sizes)))
    dec = decompositions(ic)
    flagged = sorted(dec[n][0] + dec[n][2] for n in h.most_split)
    assert flagged == flag_rows
    # each covering relation increases the real rank by one
    for a, b in h.edges:
        assert (dec[b][0] + dec[b][2]) - (dec[a][0] + dec[a][2]) == 1


def test_hasse_most_split_count_matches_forms():
    # one flagged class per real form, except that forms can share one
    for text, letters, nflags in [
        ("B6", "s", 7),
        ("C6", "s", 5),
        ("D6", "s", 6),
        ("D6", "u", 3),
    ]:
        ic = context(text, letters)
        h = cartan_hasse(ic, quasisplit(ic))
        assert len(h.most_split) == nflags
        assert len(ic.real_forms) == nflags


def test_hasse_of_smaller_form_is_lower_set():
    # each real form's diagram sits inside the quasisplit one
    ic = context("D6", "s")
    full = cartan_hasse(ic, quasisplit(ic))
    for form in range(len(ic.real_forms)):
        h = cartan_hasse(ic, form)
        assert set(h.nodes) <= set(full.nodes)
        assert set(h.edges) <= set(full.edges)
        assert set(h.most_split) <= set(h.nodes)


@pytest.mark.parametrize("text,letters,kernel", [
    ("B3", "s", None), ("C3", "s", None), ("D4", "s", None), ("G2", "s", None),
    ("A3", "c", "ad"),
])
def test_hasse_matches_brute_force(text, letters, kernel):
    ic = context(text, letters, kernel)
    for form in range(len(ic.real_forms)):
        h = cartan_hasse(ic, form)
        assert (h.nodes, h.edges) == brute_force_hasse(ic, form)


# -- input checks ---------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda ic: generate_kgb(ic, 7),
    lambda ic: generate_kgb(ic, 0, 7),
    lambda ic: generate_kgb(ic, 0, -1),
    lambda ic: format_cartan_report(ic, 7),
    lambda ic: cartan_hasse(ic, 7),
    lambda ic: real_weyl(ic, 7, 0),
    lambda ic: real_weyl(ic, 0, 5),
    lambda ic: cartan_class(ic, 9),
    lambda ic: cartan_class(ic, -1),
], ids=["kgb_form", "kgb_orbit", "kgb_orbit_negative", "report_form", "hasse_form", "real_weyl_form",
        "real_weyl_cartan", "cartan_class", "cartan_class_negative"])
def test_out_of_range_index_raises_input_error(call):
    ic = context("A2", "s")  # one real form, two Cartan classes
    with pytest.raises(InputError):
        call(ic)


def test_real_weyl_refuses_a_cartan_class_the_form_does_not_meet():
    ic = context("A1", "s")  # su(2) meets the compact Cartan class only
    assert ic.form_cartans(0) == (0,)
    with pytest.raises(InputError, match="Cartan class #1 does not meet real form #0"):
        real_weyl(ic, 0, 1)


# public entry points, each given one index by the test
INDEX_CALLS = {
    "kgb_form": lambda ic, i: generate_kgb(ic, i),
    "kgb_orbit": lambda ic, i: generate_kgb(ic, 0, i),
    "report_form": lambda ic, i: format_cartan_report(ic, i),
    "hasse_form": lambda ic, i: cartan_hasse(ic, i),
    "real_weyl_form": lambda ic, i: real_weyl(ic, i, 0),
    "real_weyl_cartan": lambda ic, i: real_weyl(ic, 0, i),
    "cartan_class": lambda ic, i: cartan_class(ic, i),
    "cartan_classes": lambda ic, i: cartan_classes(ic, i),
    "check_form": lambda ic, i: ic.check(form=i),
    "check_cartan": lambda ic, i: ic.check(cartan=i),
    "form_cartans": lambda ic, i: ic.form_cartans(i),
    "most_split_cartan": lambda ic, i: ic.most_split_cartan(i),
    "component_rank": lambda ic, i: ic.component_rank(i),
    "cartan_ranks": lambda ic, i: ic.cartan_ranks(i),
    "cartan_orbits": lambda ic, i: ic.cartan_orbits(i),
    "strong_real_forms_at": lambda ic, i: ic.strong_real_forms_at(i),
    "strong_count_at": lambda ic, i: ic.strong_count_at(i),
}


@pytest.mark.parametrize("name,value", [
    (name, value) for name in INDEX_CALLS for value in (None, "0", 1.5, True)
    # no orbit (None) asks for the first orbit of the form
    if not (name == "kgb_orbit" and value is None)
])
def test_non_integer_index_raises_input_error(name, value):
    ic = context("A1", "s")
    with pytest.raises(InputError):
        INDEX_CALLS[name](ic, value)
