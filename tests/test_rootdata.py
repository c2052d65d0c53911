"""Tests for Lie type parsing, centers, quotients, and root data."""

from __future__ import annotations

import pytest

from realred import group, lin, rootdata
from realred.cartan import system_type, weyl_order
from realred.involution import inner_class
from realred.rootdata import (
    Factor,
    InputError,
    build_root_datum,
    center_structure,
    dual_lie_type,
    dual_root_datum,
    parse_kernel_generator,
    parse_lie_type,
)
from realred.weyl import InvolutionTable

from contexts import root_datum
from oracles import coreflections, det, reflections


def simple_positions(lt: rootdata.LieType) -> tuple[int, ...]:
    """Lattice coordinate of each simple root, in global numbering."""
    out = []
    for f, off in zip(lt.factors, lt.coord_offsets):
        if f.letter != "T":
            out.extend(range(off, off + f.rank))
    return tuple(out)


def test_parse_simple() -> None:
    lt = parse_lie_type("A1")
    assert lt.factors == (Factor("A", 1),)
    assert lt.rank == 1
    assert str(lt) == "A1"


def test_parse_product_expands_torus() -> None:
    lt = parse_lie_type("A1.T1.B2.C2.T1.C3.T2.A1")
    assert lt.factors == (
        Factor("A", 1), Factor("T", 1), Factor("B", 2), Factor("C", 2),
        Factor("T", 1), Factor("C", 3), Factor("T", 1), Factor("T", 1),
        Factor("A", 1),
    )
    assert lt.rank == 13
    assert lt.semisimple_rank == 9
    assert str(lt) == "A1.T1.B2.C2.T1.C3.T2.A1"
    assert simple_positions(lt) == (0, 2, 3, 4, 5, 7, 8, 9, 12)


@pytest.mark.parametrize("bad", ["", "H3", "A0", "B1", "C1", "D1", "E5",
                                 "E9", "F3", "G3", "T0", "A", "A1..A1", "1A"])
def test_parse_rejects(bad: str) -> None:
    with pytest.raises(InputError):
        parse_lie_type(bad)


@pytest.mark.parametrize("text,display", [
    ("A1", "Z/2"),
    ("A4", "Z/5"),
    ("B3", "Z/2"),
    ("C4", "Z/2"),
    ("D5", "Z/4"),
    ("D4", "Z/2.Z/2"),
    ("D6", "Z/2.Z/2"),
    ("E6", "Z/3"),
    ("E7", "Z/2"),
    ("E8", "Z/1"),
    ("F4", "Z/1"),
    ("G2", "Z/1"),
    ("A1.T1", "Z/2.Q/Z"),
    ("T2", "Q/Z.Q/Z"),
    # the rest of rank <= 8: P^v/Q^v, the center of the simply connected
    # group (Bourbaki, Lie Groups and Lie Algebras VI, Plates I-IX), is
    # Z/(n+1) for A_n, Z/2 for B_n and C_n, Z/2 x Z/2 for D_n with n even
    # and Z/4 for n odd; D2 = A1.A1 and D3 = A3
    ("A2", "Z/3"), ("A3", "Z/4"), ("A5", "Z/6"), ("A6", "Z/7"), ("A7", "Z/8"), ("A8", "Z/9"),
    ("B2", "Z/2"), ("B4", "Z/2"), ("B5", "Z/2"), ("B6", "Z/2"), ("B7", "Z/2"), ("B8", "Z/2"),
    ("C2", "Z/2"), ("C3", "Z/2"), ("C5", "Z/2"), ("C6", "Z/2"), ("C7", "Z/2"), ("C8", "Z/2"),
    ("D2", "Z/2.Z/2"), ("D3", "Z/4"), ("D7", "Z/4"), ("D8", "Z/2.Z/2"),
])
def test_center_structure(text: str, display: str) -> None:
    assert str(center_structure(parse_lie_type(text))) == display


def test_kernel_generator_validation() -> None:
    cs = center_structure(parse_lie_type("A1"))
    assert parse_kernel_generator("1/2", cs).fractions == ((1, 2),)
    with pytest.raises(InputError):
        parse_kernel_generator("1/3", cs)
    with pytest.raises(InputError):
        parse_kernel_generator("1/2,0/2", cs)
    cs5 = center_structure(parse_lie_type("D5"))
    assert parse_kernel_generator("2/4", cs5).fractions == ((1, 2),)
    cst = center_structure(parse_lie_type("T1"))
    assert parse_kernel_generator("5/7", cst).fractions == ((5, 7),)


@pytest.mark.parametrize("args", [
    (3, "s"), (None, "s"), ("", "s"), ("H3", "s"), ("E9", "s"),
    ("A3", "c", "xy"), ("A3", "c", None), ("A3", "c", "1/3"), ("A3", "c", "1/2,1/2"),
    ("A3", "c", "1/2;"), ("A3", None), ("A3", "x"),
])
def test_group_refuses_every_bad_argument_with_an_input_error(args):
    # a type that is no str, empty, of an unknown letter or out of bounds; a
    # kernel that is no str, no fraction line, outside the center or of the
    # wrong length; letters that are no str or unknown
    with pytest.raises(InputError):
        group(*args)


def test_group_matches_the_explicit_pipeline():
    lt = parse_lie_type("A3")
    rd = build_root_datum(lt, [parse_kernel_generator("1/2", center_structure(lt))])
    ic = group("A3", "c", "1/2")
    assert ic.rd == rd and ic.rd.basis == rd.basis and ic.lt == lt
    assert ic.real_forms == inner_class("c", rd, lt).real_forms


@pytest.mark.parametrize("bad", ["x", "1/0", "1/2/3", ""])
def test_malformed_fraction_rejected(bad: str) -> None:
    with pytest.raises(InputError, match="malformed fraction"):
        parse_kernel_generator(bad, center_structure(parse_lie_type("A1")))


def test_kernel_generator_of_wrong_length_rejected() -> None:
    with pytest.raises(InputError, match="wrong length"):
        build_root_datum(parse_lie_type("A1"), [rootdata.KernelGenerator(((1, 2), (0, 1)))])


def test_simply_connected_basis_is_identity() -> None:
    rd = root_datum("A2")
    assert rd.basis == lin.identity(2)
    assert rd.simple_roots == ((2, -1), (-1, 2))
    assert rd.simple_coroots == ((1, 0), (0, 1))


def test_adjoint_a1() -> None:
    rd = root_datum("A1", "ad")
    assert rd.simple_roots == ((1,),)
    assert rd.simple_coroots == ((2,),)
    assert rd == dual_root_datum(root_datum("A1"))


@pytest.mark.parametrize("text,kernel,index", [
    ("A2", "ad", 3),
    ("A3", "2/4", 2),
    ("D4", "1/2,1/2", 2),
    ("D4", "ad", 4),
    ("D5", "2/4", 2),
    ("D5", "1/4", 4),
    ("E6", "ad", 3),
])
def test_quotient_lattice_index(text: str, kernel: str, index: int) -> None:
    rd = root_datum(text, kernel)
    assert abs(det(rd.basis)) == index


def test_bad_kernel_rejected() -> None:
    lt = parse_lie_type("A1")
    cs = center_structure(lt)
    with pytest.raises(InputError):
        build_root_datum(lt, [rootdata.KernelGenerator(((1, 3),))])


@pytest.mark.parametrize("text,kernel", [
    ("A1", None), ("A3", None), ("A3", "ad"), ("B3", None), ("C3", "ad"),
    ("D4", "1/2,0/2"), ("D5", "2/4"), ("G2", None), ("F4", None),
    ("A1.T1", "1/2,1/2"), ("A2.A2", None), ("E6", None),
])
def test_cartan_pairing(text: str, kernel: str | None) -> None:
    rd = root_datum(text, kernel)
    for i, a in enumerate(rd.simple_roots):
        for j, bv in enumerate(rd.simple_coroots):
            assert lin.vec_dot(a, bv) == rd.cartan[i][j]


@pytest.mark.parametrize("text,count", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("C3", 9), ("G2", 6),
    ("D4", 12), ("B4", 16), ("F4", 24), ("E6", 36), ("A1.A1", 2),
    ("A2.T1", 3), ("D2", 2),
])
def test_positive_root_count(text: str, count: int) -> None:
    assert len(root_datum(text).positive_roots) == count


def test_root_lattice_index_matches_center_order() -> None:
    for text, order in [("A3", 4), ("B3", 2), ("C4", 2), ("D4", 4),
                        ("D5", 4), ("E6", 3), ("G2", 1)]:
        rd = root_datum(text)
        assert abs(det(lin.freeze(rd.simple_roots))) == order


def test_two_rho() -> None:
    rd = root_datum("A2")
    two_rho = lin.zero_vector(rd.rank)
    for r in rd.positive_roots:
        two_rho = lin.vec_add(two_rho, r.vec)
    for av in rd.simple_coroots:
        assert lin.vec_dot(two_rho, av) == 2
    for a in rd.simple_roots:
        assert lin.vec_dot(a, rd.two_rho_check) == 2


def test_reflections() -> None:
    rd = root_datum("B2")
    for j, s in enumerate(reflections(rd)):
        assert lin.mat_mul(s, s) == lin.identity(2)
        assert lin.mat_vec(s, rd.simple_roots[j]) == lin.vec_neg(
            rd.simple_roots[j]
        )
    for j, s in enumerate(coreflections(rd)):
        assert lin.mat_vec(s, rd.simple_coroots[j]) == lin.vec_neg(
            rd.simple_coroots[j]
        )


def test_root_index_signs() -> None:
    rd = root_datum("A2")
    for i, r in enumerate(rd.positive_roots):
        assert rd.root_index[r.vec] == i
        assert rd.root_index[lin.vec_neg(r.vec)] == len(rd.positive_roots) + i


@pytest.mark.parametrize("text,expected", [
    ("A1", "A1"), ("A3", "A3"), ("B3", "B3"), ("C3", "C3"), ("B2", "B2"),
    ("C2", "B2"), ("G2", "G2"), ("F4", "F4"), ("D4", "D4"), ("D5", "D5"),
    ("E6", "E6"), ("E7", "E7"), ("A1.A1", "A1.A1"), ("D2", "A1.A1"),
    ("B2.A3", "A3.B2"),
])
def test_subsystem_classifier_full_systems(text: str, expected: str) -> None:
    rd = root_datum(text)
    table = InvolutionTable(rd, tuple(range(rd.semisimple_rank)))
    assert system_type(table, range(len(rd.positive_roots))) == expected


def test_dual_is_involutive() -> None:
    for text, kernel in [("A1", None), ("D5", "2/4"), ("C3", "ad"),
                         ("A1.T1", "1/2,1/2")]:
        rd = root_datum(text, kernel)
        assert dual_root_datum(dual_root_datum(rd)) == rd


def test_dual_of_sc_is_adjoint_of_dual_type() -> None:
    rd = dual_root_datum(root_datum("C6"))
    assert rd.cartan == root_datum("B6").cartan
    # Adjoint: the roots span the full character lattice.
    assert lin.row_hnf(lin.freeze(rd.simple_roots)) == lin.identity(6)


def test_dual_lie_type() -> None:
    assert str(dual_lie_type(parse_lie_type("B3.C2.A4.T1"))) == "C3.B2.A4.T1"
    assert str(dual_lie_type(parse_lie_type("G2.F4"))) == "G2.F4"


def test_weyl_type_order() -> None:
    assert weyl_order("A2") == 6
    assert weyl_order("B2") == 8
    assert weyl_order("C6") == 2**6 * 720
    assert weyl_order("D4") == 192
    assert weyl_order("G2") == 12
    assert weyl_order("F4") == 1152
    assert weyl_order("E6") == 51840
