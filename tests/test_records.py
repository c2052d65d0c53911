"""Record types: immutable, with the equality, hash and repr the outputs rely on."""

from __future__ import annotations

from functools import cache

import pytest

from realred import lin
from realred.cartan import cartan_class, cartan_hasse, real_weyl
from realred.lattice import InvolutionLattice
from realred.kgb import generate_kgb
from realred.rootdata import (
    RootDatum,
    adjoint_generators,
    center_structure,
    parse_lie_type,
)

from contexts import context

# record type -> a field to assign to
FIELDS = {
    "SmithForm": "diag",
    "Factor": "rank",
    "LieType": "factors",
    "CenterStructure": "components",
    "KernelGenerator": "fractions",
    "RootDatum": "rank",
    "InnerClassInvolution": "matrix",
    "RankDecomposition": "split",
    "SquareClass": "key",
    "RealFormLabel": "name",
    "StrongOrbit": "members",
    "FiberOrbit": "points",
    "InvolutionLattice": "theta_star",
    "KGBElement": "cross",
    "KGB": "elements",
    "CartanClass": "partition",
    "RealWeylDecomposition": "a_rank",
    "CartanHasse": "edges",
}


@cache
def instances():
    """One record of each type, from B3 s adjoint."""
    ic = context("B3", "s", "ad")
    lt = parse_lie_type("B3")
    form = len(ic.real_forms) - 1
    c = ic.most_split_cartan(form)
    kgb = generate_kgb(ic, form)
    out = [
        lin.smith_form(((2, 4), (6, 8))), lt.factors[0], lt, center_structure(lt),
        adjoint_generators(center_structure(lt))[0], ic.rd, ic.delta,
        ic.cartan_ranks(c), ic.square_classes[0], ic.real_forms[form],
        ic.strong_real_forms_at(c)[0][1][0], ic.cartan_orbits(c)[0],
        ic.lattice(len(ic.table) - 1), kgb.elements[-1], kgb,
        cartan_class(ic, c), real_weyl(ic, form, c), cartan_hasse(ic, form),
    ]
    return {type(r).__name__: r for r in out}


def test_every_record_type_has_an_instance():
    assert sorted(instances()) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_refuse_assignment(name):
    record = instances()[name]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name], None)
    assert repr(record) == before


def test_lattice_refuses_assignment_to_a_lazy_field():
    ic = context("A3", "c")
    lattice = ic.lattice(len(ic.table) - 1)
    with pytest.raises(AttributeError):
        lattice.minus = None
    # the refused assignment left the field to be computed on first read
    assert lattice.minus is not None


def test_lattice_fields_are_computed_once():
    ic = context("D4", "s")
    for i in range(len(ic.table)):
        lattice = ic.lattice(i)
        assert lattice.theta_star is lattice.theta_star
        assert lattice.minus is lattice.minus
        assert lattice.plus is lattice.plus
        assert lattice.cbits is lattice.cbits
        assert lattice.heights is lattice.heights
        assert ic.lattice(i) is lattice


def test_separately_built_lattices_are_equal():
    a, b = context("C3", "s"), context("C3", "s")
    assert a.rd is not b.rd
    moved = 0
    for i in range(len(a.table)):
        la, lb = a.lattice(i), b.lattice(i)
        assert la is not lb
        assert la == lb
        assert hash(la) == hash(lb)
        linked = InvolutionLattice(la.theta_star, la.theta, a.rd, la.parent, la.j)
        assert linked == la and hash(linked) == hash(la)
        # without its parent a record keys by its own Smith rows, which the
        # rows transported along a complex descent need not be
        rebuilt = InvolutionLattice(la.theta_star, la.theta, a.rd)
        assert hash(rebuilt) == hash(la)
        if la.parent is None:
            assert rebuilt == la
            continue
        for f in InvolutionLattice._COMPARED:
            if f != "minus":
                assert getattr(rebuilt, f) == getattr(la, f)
        (rank, rows, twos, ones), (srank, srows, stwos, sones) = la.minus, rebuilt.minus
        assert (rank, twos, ones) == (srank, stwos, sones)
        assert lin.row_hnf(rows) == lin.row_hnf(srows)
        moved += rows != srows
    assert moved
    assert a.lattice(0) != a.lattice(1)
    assert a.lattice(0) != a.lattice(0).theta_star


def test_fiber_orbit_repr_leaves_out_points():
    ic = context("B3", "s", "ad")
    for c in range(len(ic.table.classes)):
        for orbit in ic.cartan_orbits(c):
            text = repr(orbit)
            assert "points" not in text
            assert text == (
                f"FiberOrbit(square_class={orbit.square_class!r}, form={orbit.form!r}, "
                f"members={orbit.members!r}, moves={orbit.moves!r})"
            )


def test_root_datum_equality_ignores_basis():
    rd = context("A3", "c", "ad").rd
    assert rd.basis != lin.identity(rd.rank)
    other = RootDatum(
        rd.rank, lin.identity(rd.rank), rd.simple_roots, rd.simple_coroots, rd.cartan
    )
    assert other == rd and hash(other) == hash(rd)
    assert other.basis != rd.basis
    assert rd != context("A3", "c").rd
