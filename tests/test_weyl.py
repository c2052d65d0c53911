"""Tests for Weyl words, inner-class involutions, and twisted involutions."""

from __future__ import annotations

import copy
import random
import time
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realred import lin, weyl
from realred.involution import InnerClass
from realred.rootdata import InputError, build_root_datum, parse_lie_type
from realred.delta import INCOMPATIBLE, parse_units
from realred.weyl import (
    COMPLEX_DOWN,
    COMPLEX_UP,
    IMAGINARY,
    REAL,
    InvolutionTable,
    compose,
    involution_table,
    normal_form_word,
    word_from_matrix,
)

from contexts import (
    RECORD_GROUPS, SMALL_TYPES, classes_from_walk_to_base, context, involution,
    walk_from_corrupted_row,
)
from oracles import (
    as_permutation, reference_canonical_member, reference_classes, reference_imaginary_basis,
    reference_simple_basis, richardson_class_count, reference_strip_normal_form_word,
    reference_strip_word_from_matrix, reference_table, reflections, vector_reflections,
    weyl_closure,
)


# -- words ------------------------------------------------------------


@cache
def simple_table(rd):
    """The untwisted table of rd, for its simple indices and reflections."""
    return InvolutionTable(rd, tuple(range(rd.semisimple_rank)))


def weyl_element(rd, word):
    """(normal-form word, matrix, root permutation) of a product of simple reflections."""
    table = simple_table(rd)
    m = lin.identity(rd.rank)
    w = tuple(range(len(rd.roots)))
    for j in word:
        m = lin.mat_mul(m, reflections(rd)[j])
        w = tuple(map(w.__getitem__, table.reflections[table.simple[j]]))
    assert as_permutation(rd, m) == w
    return normal_form_word(table, w), m, w


@pytest.mark.parametrize("text,letters", [
    ("E6", "c"), ("D6", "s"), ("F4", "s"), ("D4", "u"), ("A5", "c"), ("B2.A3", "sc"),
])
def test_table_words_match_stripping_reference(text, letters):
    d = involution(text, letters)
    table = involution_table(d)
    delta = table.thetas[0]
    for i, theta in enumerate(table.thetas):
        w = tuple(theta[x] for x in delta)
        assert table.word(i) == reference_strip_normal_form_word(table, w, text)
    for k, refl in enumerate(table.reflections):
        assert table.reflection_word(k) == reference_strip_normal_form_word(table, refl, text)


def test_word_normal_form():
    rd = involution("A2", "c").rd
    assert weyl_element(rd, ())[0] == ()
    assert weyl_element(rd, (0, 0))[0] == ()
    assert weyl_element(rd, (0, 1, 1, 0))[0] == ()
    assert weyl_element(rd, (1, 0, 1))[0] == (0, 1, 0)
    assert weyl_element(rd, (1, 0, 1))[1] == weyl_element(rd, (0, 1, 0))[1]
    assert weyl_element(rd, (1, 0))[0] == (1, 0)
    assert weyl_element(rd, ())[1] == lin.identity(2)
    assert weyl_element(rd, ())[2] == tuple(range(6))


def test_word_lengths_cover_group():
    rd = involution("B2", "c").rd
    words = {weyl_element(rd, w)[0] for w in _all_words(2, 6)}
    assert len(words) == 8
    assert max(len(w) for w in words) == 4


def _all_words(ngens, upto):
    out = [()]
    frontier = [()]
    for _ in range(upto):
        frontier = [w + (j,) for w in frontier for j in range(ngens)]
        out.extend(frontier)
    return out


def test_weyl_act():
    rd = involution("A2", "c").rd
    _, w0, _ = weyl_element(rd, (0, 1, 0))
    a1, a2 = rd.simple_roots
    assert lin.mat_vec(w0, a1) == lin.vec_neg(a2)
    assert lin.mat_vec(w0, a2) == lin.vec_neg(a1)
    _, s1, _ = weyl_element(rd, (0,))
    assert lin.mat_vec(s1, a1) == lin.vec_neg(a1)


@pytest.mark.parametrize("text,i,j,m", [
    ("A2", 0, 1, 3),
    ("B2", 0, 1, 4),
    ("G2", 0, 1, 6),
    ("A1.A1", 0, 1, 2),
])
def test_braid_relations(text, i, j, m):
    rd = involution(text, "c" * text.count(".") + "c").rd
    left = tuple(i if k % 2 == 0 else j for k in range(m))
    right = tuple(j if k % 2 == 0 else i for k in range(m))
    assert weyl_element(rd, left) == weyl_element(rd, right)


@pytest.mark.parametrize("text", ["A3", "B3", "G2", "D4"])
def test_normal_form_matches_matrix_reference(text):
    rd = involution(text, "c").rd
    table = simple_table(rd)
    # every element as (root permutation, matrix)
    seen = {tuple(range(len(rd.roots))): lin.identity(rd.rank)}
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for w, m in frontier:
            for j, s in enumerate(reflections(rd)):
                w2 = tuple(map(w.__getitem__, table.reflections[table.simple[j]]))
                if w2 not in seen:
                    seen[w2] = lin.mat_mul(m, s)
                    nxt.append((w2, seen[w2]))
        frontier = nxt
    assert len(seen) == {"A3": 24, "B3": 48, "G2": 12, "D4": 192}[text]
    for w, m in seen.items():
        assert as_permutation(rd, m) == w
        assert normal_form_word(table, w) == reference_strip_normal_form_word(table, w, text)
        assert word_from_matrix(table, w) == reference_strip_word_from_matrix(table, w)


def test_normal_form_refuses_pairings_off_the_orbit_of_two_rho():
    # 3 w(2 rho) walks to the word of w, which gives back w(2 rho) only
    rd = involution("A3", "c").rd
    bad = copy.copy(simple_table(rd))
    bad.two_rho = tuple(3 * h for h in bad.two_rho)
    with pytest.raises(RuntimeError, match="do not multiply back"):
        normal_form_word(bad, bad.reflections[0])


@pytest.mark.parametrize("text,letters,kernel", [
    ("B3", "s", None), ("D4", "u", None), ("A3", "c", "ad"),
])
def test_table_words_match_matrix_reference(text, letters, kernel):
    d = involution(text, letters, kernel)
    rd = d.rd
    table = involution_table(d)
    for i, theta in enumerate(table.thetas):
        w = tuple(map(theta.__getitem__, table.thetas[0]))
        word = table.word(i)
        assert word == reference_strip_normal_form_word(table, w, text)
        # the word's product of reflection matrices is w
        m = lin.identity(rd.rank)
        for j in word:
            m = lin.mat_mul(m, reflections(rd)[j])
        assert as_permutation(rd, m) == w


# -- inner class letters ----------------------------------------------


def test_inner_class_matrices():
    d = involution("A1", "s")
    assert d.matrix == lin.identity(1)
    d = involution("A2", "s")
    assert d.matrix == ((0, 1), (1, 0))
    assert d.perm == (1, 0)
    d = involution("A2", "c")
    assert d.matrix == lin.identity(2)
    d = involution("A2.A2", "C")
    rd = d.rd
    assert d.perm == (2, 3, 0, 1)
    assert lin.mat_vec(d.matrix, rd.simple_roots[0]) == rd.simple_roots[2]
    d = involution("A1.T1", "ss")
    assert d.matrix == ((1, 0), (0, -1))
    d = involution("E6", "s")
    assert d.perm == (5, 1, 4, 3, 2, 0)
    d = involution("D5", "s")
    assert d.perm == (0, 1, 2, 4, 3)
    d = involution("D6", "s")
    assert d.perm == tuple(range(6))
    for text in ("B3", "C2", "G2", "F4", "E7"):
        d = involution(text, "s")
        assert d.matrix == lin.identity(int(text[1]))


def test_inner_class_u():
    d = involution("D4", "u")
    assert d.perm == (0, 1, 3, 2)
    d = involution("D2", "u")
    assert d.perm == (1, 0)
    for text in ("A1", "B2", "C2", "G2", "F4", "T1", "E7"):
        with pytest.raises(InputError) as err:
            involution(text, "u")
        assert str(err.value) == f"no unequal-rank involution for type {text}"


def test_letter_bookkeeping():
    lt = parse_lie_type("A2.A2")
    assert parse_units("C", lt) == (("C", (0, 1)),)
    assert parse_units("cs", lt) == (("c", (0,)), ("s", (1,)))
    for bad in ("c", "ccc", "Cc", "x", "cC"):
        with pytest.raises(InputError):
            parse_units(bad, lt)
    with pytest.raises(InputError):
        parse_units("C", parse_lie_type("A2.A1"))


def test_lattice_compatibility():
    with pytest.raises(InputError, match="not compatible"):
        involution("A1.A1", "C", kernel="1/2,0/2")
    with pytest.raises(InputError) as err:
        involution("D4", "u", kernel="1/2,0/2")
    assert str(err.value) == INCOMPATIBLE
    d = involution("A1.A1", "C", kernel="1/2,1/2")
    assert lin.mat_mul(d.matrix, d.matrix) == lin.identity(2)
    d = involution("D4", "u", kernel="1/2,1/2")
    assert lin.mat_mul(d.matrix, d.matrix) == lin.identity(4)


def test_e_letter_same_as_c():
    d1 = involution("E7", "e")
    d2 = involution("E7", "c")
    assert d1.matrix == d2.matrix


# -- twisted involutions ----------------------------------------------


def canonical_words(table):
    """Displayed word of each class's canonical member, in class order."""
    return [
        ",".join(str(j + 1) for j in table.word(table.canonical_member(c)))
        for c in range(len(table.classes))
    ]


def test_classes_a1():
    d = involution("A1", "c")
    table = involution_table(d)
    assert [len(ids) for ids in table.classes] == [1, 1]
    assert table.word(table.canonical_member(0)) == ()
    assert table.word(table.canonical_member(1)) == (0,)


def test_classes_c2():
    d = involution("C2", "c")
    table = involution_table(d)
    assert [len(ids) for ids in table.classes] == [1, 2, 2, 1]
    assert canonical_words(table) == ["", "2,1,2", "1,2,1", "1,2,1,2"]


def test_classes_a3():
    d = involution("A3", "c")
    table = involution_table(d)
    assert [len(ids) for ids in table.classes] == [1, 6, 3]
    assert canonical_words(table) == ["", "1,2,3,2,1", "2,1,3,2"]


def test_classes_e6_unequal():
    d = involution("E6", "s")
    table = involution_table(d)
    assert len(table.classes[0]) == 45
    assert table.word(table.canonical_member(0)) == ()


def test_classes_d6():
    d = involution("D6", "c")
    table = involution_table(d)
    sizes = [len(ids) for ids in table.classes]
    assert sizes == [1, 30, 15, 180, 180, 60, 60, 15, 180, 30, 1]
    words = canonical_words(table)
    assert words[0] == ""
    assert words[4] == "3,4,5,6,4,3,2,3,4,5,6,4,3,1,2,3,4,5,6,4,3,2,1"
    # the two orbits swapped by the tip-exchanging outer automorphism
    assert {words[5], words[6]} == {
        "6,4,5,3,4,6,2,3,4,5,1,2,3,4,6",
        "5,4,6,3,4,5,2,3,4,6,1,2,3,4,5",
    }


# every simple type of rank <= 6 in each of its inner classes
CANONICAL_CONTEXTS = (
    [("A1", "c")]
    + [(f"A{n}", letters) for n in range(2, 7) for letters in "cs"]
    + [(f"{x}{n}", "s") for x in "BC" for n in range(2, 7)]
    + [("D4", "s"), ("D4", "u"), ("D5", "c"), ("D5", "s"), ("D6", "s"), ("D6", "u")]
    + [("E6", "c"), ("E6", "s"), ("F4", "s"), ("G2", "s")]
    + [("D7", "s"), ("A1.A1", "C"), ("A2.A2", "C")]
)


@cache
def table_and_reference(text, letters):
    d = involution(text, letters)
    rd = d.rd
    return involution_table(d), reference_table(rd, d.perm)


@pytest.mark.parametrize("text,letters", CANONICAL_CONTEXTS + [("B2.A3", "ss"), ("A1.T1", "ss")])
def test_table_matches_full_permutation_search(text, letters):
    # the table walks ascents only and keys by the simple-root images
    table, (thetas, lengths, rows) = table_and_reference(text, letters)
    assert [tuple(t) for t in table.thetas] == thetas
    assert table.lengths == lengths
    assert [table.status_row(i) for i in range(len(table))] == rows
    assert [tuple(r) for r in table.reflections] == list(vector_reflections(table.rd))


@pytest.mark.parametrize("text,letters", [
    ("B3", "s"), ("F4", "s"), ("D5", "s"), ("E6", "c"), ("C4", "s"),
    ("E6", "s"), ("A4", "s"), ("D5", "u"), ("B2.A3", "ss"), ("A2.A2", "C"),
])
def test_cayley_matches_full_permutation_search(text, letters):
    # cayley walks the status rows by cross actions, which conjugate by
    # s_j on both sides: delta != 1 (E6 s, A4 s, D5 u) and products too
    table, (thetas, lengths, _) = table_and_reference(text, letters)
    index = {theta: i for i, theta in enumerate(thetas)}
    reflections = vector_reflections(table.rd)
    refused = 0
    for i, theta in enumerate(thetas):
        for k, refl in enumerate(reflections):
            if theta[k] == k:
                tid = index[tuple(refl[x] for x in theta)]
                assert table.cayley(i, k) == tid
                assert lengths[tid] > lengths[i]
                continue
            try:
                table.cayley(i, k)
            except InputError:
                refused += 1
    # every root that is not imaginary is refused
    assert refused == sum(theta[k] != k for theta in thetas for k in range(len(reflections)))


def test_cayley_refuses_a_root_that_is_not_imaginary():
    # at involution 1 of A3 c, s_0, alpha_1 is complex and alpha_0 real:
    # neither has a Cayley transform, and the inverse one of alpha_0, the
    # base, is no answer either
    table = involution_table(involution("A3", "c"))
    assert table.status(0, 0) == (IMAGINARY, 1)
    assert table.status(1, 0) == (REAL, 0)
    assert table.status(1, 1)[0] == COMPLEX_UP
    for k in table.simple[:2]:
        with pytest.raises(InputError, match=f"positive root {k} is not imaginary at involution 1"):
            table.cayley(1, k)


@pytest.mark.parametrize("text,letters", CANONICAL_CONTEXTS)
def test_canonical_member_matches_scan(text, letters):
    d = involution(text, letters)
    table = involution_table(d)
    classes, class_of, canonical = reference_classes(table)
    assert table.classes == classes
    assert table.class_of == class_of
    for c, ids in enumerate(table.classes):
        assert table.canonical_member(c) == canonical[c]
        # canonical_member walks from the class's descent-free members; the
        # walk from its last member ends at the same one
        assert table._walk_canonical(ids[-1]) == canonical[c]


@pytest.mark.parametrize("text,letters", [("D5", "s"), ("E6", "c")])
def test_canonical_walk_is_independent_of_its_start(text, letters):
    d = involution(text, letters)
    table = involution_table(d)
    for i in range(len(table)):
        assert table._walk_canonical(i) == table.canonical_member(table.class_of[i])


def test_canonical_walk_refuses_a_move_that_is_not_complex():
    with pytest.raises(RuntimeError, match="not complex"):
        walk_from_corrupted_row()


def fresh_table(text, letters):
    """A table of its own, with no words or classes built yet."""
    d = involution(text, letters)
    return InvolutionTable(d.rd, d.perm)


@pytest.mark.parametrize("text,letters", [("D6", "s"), ("E6", "c"), ("D7", "s")])
def test_classes_build_no_words(text, letters):
    # the walk compares lengths first, and no least length is tied here
    table = fresh_table(text, letters)
    for c in range(len(table.classes)):
        table.canonical_member(c)
    assert table._words == {}


@pytest.mark.parametrize("text,letters", [("C2", "c"), ("A3", "c"), ("D5", "s"), ("E6", "s")])
def test_word_length_is_the_length_of_the_word(text, letters):
    table = involution_table(involution(text, letters))
    assert [table.word_length(i) for i in range(len(table))] == [
        len(table.word(i)) for i in range(len(table))
    ]


@pytest.mark.parametrize("text,letters", [("C2", "c"), ("A3", "c"), ("D5", "s"), ("F4", "s")])
def test_canonical_walk_breaks_length_ties_by_word(text, letters):
    # no table met has two candidates at the least length, so tie them all
    table = fresh_table(text, letters)
    table.word_length = lambda i: 0
    for ids in involution_table(involution(text, letters)).classes:
        assert table._walk_canonical(ids[-1]) == reference_canonical_member(
            table, ids, key=table.word
        )


def test_classes_refuse_a_descent_that_does_not_go_down():
    table = fresh_table("D5", "s")
    p = table._kinds.index(COMPLEX_DOWN)
    table._nbrs = table._nbrs[:]
    table._nbrs[p] = p // len(table.simple)
    with pytest.raises(RuntimeError, match="does not go down"):
        table.classes


def test_classes_refuse_a_walk_that_leaves_the_class():
    with pytest.raises(RuntimeError, match="leaves its class"):
        classes_from_walk_to_base()


def test_classes_refuse_a_walk_that_is_not_a_class_invariant():
    # each descent-free member is named by the next one of its class
    table = fresh_table("D5", "s")
    class_of = involution_table(involution("D5", "s")).class_of
    roots: dict[int, list[int]] = {}
    for i in range(len(table)):
        if COMPLEX_DOWN not in table.kinds(i):
            roots.setdefault(class_of[i], []).append(i)
    assert max(len(rs) for rs in roots.values()) > 1
    following = {r: rs[(k + 1) % len(rs)] for rs in roots.values() for k, r in enumerate(rs)}
    table._walk_canonical = following.__getitem__
    with pytest.raises(RuntimeError, match="lies in the class of another"):
        table.classes


# the catalog benchmark's types at which delta = 1, and two larger ones
@pytest.mark.parametrize("text,letters", [
    ("A1", "c"), ("A1", "s"), ("A2", "c"), ("A3", "c"), ("A4", "c"),
    ("B2", "s"), ("B3", "s"), ("B4", "s"), ("C3", "s"), ("C4", "s"),
    ("D4", "s"), ("G2", "s"), ("F4", "s"), ("A1.A1", "ss"), ("A1.T1", "ss"),
    ("A1.T1", "sc"), ("T2", "C"), ("E6", "c"), ("D6", "s"),
])
def test_class_count_matches_richardson(text, letters):
    d = involution(text, letters)
    assert d.perm == tuple(range(len(d.perm)))
    assert len(involution_table(d).classes) == richardson_class_count(d.rd)


@pytest.mark.parametrize("text,letters", [
    ("A2", "c"), ("A3", "c"), ("B2", "c"), ("G2", "c"),
    ("A1.A1", "cc"), ("A2", "s"),
])
def test_count_matches_brute_force(text, letters):
    d = involution(text, letters)
    rd = d.rd
    table = involution_table(d)
    count = sum(
        1 for m in weyl_closure(rd)
        if lin.mat_mul(lin.mat_mul(m, d.matrix), lin.mat_mul(m, d.matrix))
        == lin.identity(rd.rank)
    )
    assert len(table) == count
    assert sum(len(ids) for ids in table.classes) == count


def test_complex_pair_matches_first_factor():
    d = involution("A2.A2", "C")
    table = involution_table(d)
    assert len(table) == 6
    assert len(table.classes) == 1


def test_member_invariants():
    d = involution("B2", "s")
    rd = d.rd
    table = involution_table(d)
    npos = len(rd.positive_roots)
    delta = table.thetas[0]
    for i in range(len(table)):
        theta = table.thetas[i]
        assert all(theta[theta[k]] == k for k in range(2 * npos))
        # w = theta.delta; its length counts the positive roots it negates
        assert len(table.word(i)) == sum(
            1 for k in range(npos) if theta[delta[k]] >= npos
        )


def test_status_rows():
    d = involution("C2", "c")
    rd = d.rd
    table = involution_table(d)
    npos = len(rd.positive_roots)
    row = table.status_row(0)
    assert all(kind == IMAGINARY for kind, _ in row)
    for i in range(len(table)):
        for j, (kind, target) in enumerate(table.status_row(i)):
            if kind == IMAGINARY:
                assert table.lengths[target] == table.lengths[i] + 1
            elif kind == REAL:
                assert table.lengths[target] == table.lengths[i] - 1
                assert table.thetas[i][table.simple[j]] == table.simple[j] + npos
            else:
                delta = 1 if kind == COMPLEX_UP else -1
                assert table.lengths[target] == table.lengths[i] + delta
                back = table.status_row(target)[j]
                assert back[1] == i


@pytest.mark.parametrize("text,letters", [("C2", "c"), ("D5", "s"), ("A1.A1", "C"), ("A1.T1", "ss")])
def test_status_reads_the_status_row(text, letters):
    # the per-entry reader and the row view read the same flat rows
    d = involution(text, letters)
    table = involution_table(d)
    n = len(table.simple)
    for i in range(len(table)):
        assert tuple(table.status(i, j) for j in range(n)) == table.status_row(i)
    # an index past the row or the table does not read a neighbouring entry
    with pytest.raises(IndexError):
        table.status(0, n)
    with pytest.raises(IndexError):
        table.status_row(len(table))


def test_table_readers_refuse_an_id_off_the_table():
    # a negative id would read the last involution's row and theta, and a
    # cached reader would keep what it read under that id
    table = involution_table(involution("A3", "c"))
    readers = (table.kinds, lambda i: table.status(i, 0), table.word, table.imaginary_roots,
               table.real_roots, table.imaginary_basis, table.word_length,
               lambda i: table.cayley(i, 0))
    for i in (-1, -len(table), len(table)):
        for read in readers:
            with pytest.raises(IndexError, match=f"no involution {i}"):
                read(i)
    caches = (table._words, table._imaginary, table._real, table._imaginary_bases)
    assert not any(k < 0 or k >= len(table) for cache in caches for k in cache)
    # the root index of cayley and reflection_word, and the class index
    npos, nclasses = len(table.reflections), len(table.classes)
    for what, read, count in [
        ("positive root", lambda k: table.cayley(0, k), npos),
        ("positive root", table.reflection_word, npos),
        ("class", table.canonical_member, nclasses),
    ]:
        for k in (-1, -count, count):
            with pytest.raises(IndexError, match=f"no {what} {k}"):
                read(k)
    assert all(0 <= k < npos for k in table._reflection_words)


def test_table_readers_refuse_a_bool_id():
    # True == 1 and False == 0, so a bool would read a row, or an entry
    # cached under the int, as if it were that int; the cross action reads
    # the simple root through status
    ic = context("A3", "c")
    table = ic.table
    for read in (table.word, table.reflection_word, table.imaginary_basis, table.real_roots):
        read(0), read(1)
    x = (0, ic.fiber_elements(0, ic.square_classes[0].key)[0])
    readers = (table.kinds, lambda i: table.status(i, 0), lambda j: table.status(0, j),
               table.word, table.reflection_word, table.imaginary_roots, table.real_roots,
               table.imaginary_basis, table.word_length, table.canonical_member,
               lambda i: table.cayley(i, 0), lambda k: table.cayley(0, k),
               lambda j: ic.cross(j, x))
    for b in (True, False):
        for read in readers:
            with pytest.raises(IndexError, match=f"^no [a-z ]+ {b}$"):
                read(b)


@pytest.mark.parametrize("text,letters,size", [
    ("T1", "s", 1), ("T1", "c", 1), ("T2", "C", 1), ("A1.T1", "ss", 2),
])
def test_rank_zero_rows_are_kept(text, letters, size):
    # flat rows of n = 0 entries still give every involution its row
    d = involution(text, letters)
    table = involution_table(d)
    assert len(table) == size
    assert len(table.status_row(size - 1)) == len(table.simple)
    if not table.simple:
        assert table.status_row(0) == ()
        assert table.classes == ((0,),)
    else:
        assert table.status_row(0) == ((IMAGINARY, 1),)
        assert table.classes == ((0,), (1,))
    assert table.class_of == tuple(range(size))


def test_table_memory_per_involution():
    # E7 s has 10,208 involutions.  The table keeps 181 B per involution,
    # 126 B of it in the blocks; a bytes object per involution and an
    # index by key would keep about 140 B more.  The search's peak, with
    # its per-length dicts and the bytes of the length it visits, is 190
    # B: a transient copy of the blocks would add 126 B
    d = involution("E7", "s")
    rd = d.rd
    # the root datum's lazy data, outside the trace
    rd.positive_roots, rd.roots, rd.root_index
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = InvolutionTable(rd, d.perm)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(table) == 10208
    assert all(type(theta) is bytes for theta in table.thetas)
    assert retained / len(table) < 200
    assert peak / len(table) < 220


@pytest.mark.parametrize("text,letters", [("D5", "s"), ("A2.A2", "C"), ("A1.T1", "ss"), ("T1", "s")])
def test_thetas_read_as_a_list_of_bytes(text, letters):
    # thetas is a view over one bytes block per twisted length; its readers
    # see a list of the 2N root images per involution
    table, (thetas, lengths, _) = table_and_reference(text, letters)
    expected = [bytes(theta) for theta in thetas]
    view = table.thetas
    assert len(view) == len(table) == len(expected)
    assert list(view) == expected
    assert view == expected and expected == view and not view != expected
    assert view != expected[:-1] and view != tuple(expected)
    assert view[-1] == expected[-1] and view[-len(view)] == expected[0]
    assert all(type(theta) is bytes and len(theta) == 2 * len(table.reflections) for theta in view)
    for i in (len(view), -len(view) - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0] = expected[0]
    with pytest.raises(TypeError):
        hash(view)
    # ids of one length are contiguous, one block per length
    assert [len(block) for block in view.blocks] == [
        lengths.count(length) * view.width for length in range(max(lengths) + 1)
    ]


def test_search_refuses_an_involution_met_at_two_lengths(monkeypatch):
    # a generator that fixes the base meets its key again at length 0; s_0
    # planted as the generator of alpha_2, which s_0 fixes, takes theta_1 =
    # s_0 back to the base, at length 0 from length 1
    d = involution("A3", "c")
    table = involution_table(d)
    identity = bytes(range(2 * len(table.reflections)))
    s_0 = table.reflections[table.simple[0]]
    for j, planted in ((0, identity), (2, s_0)):
        reflections = list(table.reflections)
        reflections[table.simple[j]] = planted
        monkeypatch.setattr(
            InvolutionTable, "_conjugated_reflections",
            lambda self: (tuple(reflections), table._chains),
        )
        with pytest.raises(RuntimeError, match="met at two lengths"):
            InvolutionTable(d.rd, d.perm)


def base_gradings(ic):
    """Grading of the simple root at every base point, by torus part."""
    out = {}
    for sq in ic.square_classes:
        for t in ic.fiber_elements(0, sq.key):
            out[t] = ic.grading((0, t), 0)
            if out[t]:
                # the Cayley transform lands at involution 1, where alpha is real
                up = ic.cayley(0, (0, t))
                assert up[0] == 1
                with pytest.raises(RuntimeError, match="not imaginary"):
                    ic.grading(up, 0)
    return out


def test_grading_shift_sl2():
    d = involution("A1", "c")
    ic = InnerClass(d)
    assert ic.lattice(0).cbits == (0,)
    assert ic.lattice(1).cbits == (1,)
    # the base-point constant is 0: alpha = 2 omega is noncompact at
    # (0, t) exactly when 2 <alpha, t> / denom is odd, denom being 4
    assert ic.denom == 4
    assert base_gradings(ic) == {(0,): False, (1,): True, (2,): False, (3,): True}


def test_grading_shift_isogeny_invariant():
    d = involution("A1", "c", kernel="ad")
    ic = InnerClass(d)
    # the same rule in PGL(2): alpha = omega here
    assert ic.denom == 4
    assert base_gradings(ic) == {(0,): False, (2,): True}


@pytest.mark.parametrize("text,letters", [
    ("A3", "s"), ("D4", "u"), ("E6", "s"), ("A1.T1", "ss"), ("A2.A2", "C"),
])
def test_table_is_the_same_for_every_isogeny(text, letters):
    # the premise of sharing one table per Cartan matrix and diagram permutation
    rds, tables = [], []
    for kernel in (None, "ad"):
        d = involution(text, letters, kernel)
        rd = d.rd
        rds.append(rd)
        tables.append(InvolutionTable(rd, d.perm))
    assert rds[0] != rds[1]
    sc, ad = tables
    assert sc.thetas == ad.thetas
    assert sc.lengths == ad.lengths
    assert all(sc.status_row(i) == ad.status_row(i) for i in range(len(sc)))
    assert sc.classes == ad.classes
    assert canonical_words(sc) == canonical_words(ad)


def test_rank_refusal():
    with pytest.raises(InputError, match="rank"):
        involution("A1.A1.A1.A1.A1.A1.A1.A1.A1", "c" * 9)


@pytest.mark.parametrize("text", ["A1000000000", "T1000000"])
def test_huge_ranks_fail_fast(text):
    # refused before any matrix of size rank squared is built
    start = time.process_time()
    with pytest.raises(InputError, match="rank"):
        build_root_datum(parse_lie_type(text), [])
    assert time.process_time() - start < 0.5


def test_rank_bounds_are_inclusive():
    assert build_root_datum(parse_lie_type("A1.A1.A1.A1.A1.A1.A1.A1.T8"), []).rank == 16


def test_torus_only():
    d = involution("T1", "s")
    table = involution_table(d)
    assert len(table) == 1
    assert table.classes == ((0,),)
    assert table.word(0) == ()


def test_compose_matches_tuple_composition():
    for text, letters, kernel in RECORD_GROUPS:
        table = involution_table(involution(text, letters, kernel))
        npos = len(table.reflections)
        one = bytes(range(2 * npos))
        assert isinstance(table.simple, bytes)
        assert all(isinstance(theta, bytes) for theta in table.thetas)
        for k, r in enumerate(table.reflections):
            assert isinstance(r, bytes)
            assert compose(r, r) == one
            assert r[k] == k + npos

    # permutations a, b of range(2N), 2N <= 240, and c any few indices
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 240), st.integers(0, 2**32))
    def check(size, seed):
        rng = random.Random(seed)
        a, b = (bytes(rng.sample(range(size), size)) for _ in range(2))
        c = bytes(rng.choices(range(size), k=rng.randrange(9)))
        assert tuple(compose(a, b)) == tuple(a[x] for x in b)
        assert tuple(compose(a, c)) == tuple(a[x] for x in c)

    check()


# -- root subsystems --------------------------------------------------------


@pytest.mark.parametrize("text,letters,kernel", RECORD_GROUPS)
def test_simple_basis_matches_vector_reference(text, letters, kernel):
    # the imaginary, real, complex-free and every compact subsystem at
    # every involution; the reference subtracts this context's root vectors
    ic = context(text, letters, kernel)
    table, rd = ic.table, ic.rd
    npos = len(rd.positive_roots)
    for inv in range(len(table)):
        theta = table.thetas[inv]
        imaginary, real = table.imaginary_roots(inv), table.real_roots(inv)
        rho_i, rho_r = rd.coroot_sum(imaginary), rd.coroot_sum(real)
        free = [
            k for k, r in enumerate(rd.positive_roots)
            if theta[k] % npos != k
            and not lin.vec_dot(r.vec, rho_i) and not lin.vec_dot(r.vec, rho_r)
        ]
        systems = {tuple(imaginary), tuple(real), tuple(free)}
        for sq in ic.square_classes:
            for t in ic.fiber_elements(inv, sq.key):
                systems.add(tuple(k for k in imaginary if not ic.root_grading((inv, t), k)))
        for ks in systems:
            expected = reference_simple_basis([rd.positive_roots[k] for k in ks])
            assert table.simple_basis(ks) == [rd.root_index[r.vec] for r in expected]


@pytest.mark.parametrize("letter", "cs")
@pytest.mark.parametrize("text", SMALL_TYPES)
def test_root_subsystems_match_uncached_reference(monkeypatch, text, letter):
    # every involution of a table of its own, read twice: the kept tuples
    # are the scans of theta, and the second read returns the kept ones
    monkeypatch.setattr(weyl, "_TABLES", {})
    table = involution_table(involution(text, letter))
    npos = len(table.reflections)
    for i in range(len(table)):
        theta = table.thetas[i]
        basis = table.imaginary_basis(i)
        assert basis == tuple(reference_imaginary_basis(table, i))
        assert table.imaginary_roots(i) == tuple(k for k in range(npos) if theta[k] == k)
        assert table.real_roots(i) == tuple(k for k in range(npos) if theta[k] == k + npos)
        assert table.imaginary_basis(i) is basis
    assert len(table._imaginary_bases) == len(table._imaginary) == len(table._real) == len(table)
