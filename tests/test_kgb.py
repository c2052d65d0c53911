"""Tests for the orbit graph of a real form on the flag variety."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json

from realred import lin, weyl
from realred.cartan import weyl_order
from realred.kgb import format_kgb, generate_kgb, seed_orbit
from realred.weyl import COMPLEX_DOWN, COMPLEX_UP

from contexts import SMALL_TYPES, context, quasisplit
from digest_outputs import DIGESTS, digest, kgb_lines, label
from oracles import (
    clan_count, involution_count, reference_kgb, reflections, weyl_theta_star,
)


def parse_rows(text):
    """Rows of a printed table as (length, cartan, statuses, cross, cayley, word)."""
    rows = []
    for line in text.strip().splitlines():
        head, rest = line.split("[")
        statuses = tuple(rest.split("]")[0].split(","))
        length, cartan = (int(v) for v in head.split(":")[1].split())
        tail = rest.split("]")[1].split()
        n = len(statuses)
        cross = tuple(int(t) for t in tail[:n])
        cayley = tuple(None if t == "*" else int(t) for t in tail[n:2 * n])
        word = ()
        if len(tail) > 2 * n:
            word = tuple(int(c) - 1 for c in tail[2 * n].split(","))
        rows.append((length, cartan, statuses, cross, cayley, word))
    return rows


def assert_isomorphic(kgb, text):
    """Check for a relabelling carrying the table onto the printed rows.

    The bijection must preserve length, Cartan class, statuses, and the
    twisted involution word, and intertwine cross and Cayley.
    """
    rows = parse_rows(text)
    assert len(rows) == kgb.size
    sig = lambda e: (e.length, e.cartan, e.statuses, kgb.word(e.id))
    candidates = [
        [i for i, r in enumerate(rows) if (r[0], r[1], r[2], r[5]) == sig(e)]
        for e in kgb.elements
    ]

    def extend(par):
        i = len(par)
        if i == kgb.size:
            return par
        for t in candidates[i]:
            if t in par:
                continue
            trial = par + [t]
            ok = True
            for a, ta in enumerate(trial):
                for j in range(len(rows[0][2])):
                    c = kgb.elements[a].cross[j]
                    if c < len(trial) and trial[c] != rows[ta][3][j]:
                        ok = False
                    y = kgb.elements[a].cayley[j]
                    if y is not None and y < len(trial) and trial[y] != rows[ta][4][j]:
                        ok = False
            if ok:
                out = extend(trial)
                if out is not None:
                    return out
        return None

    par = extend([])
    assert par is not None, "no structure-preserving relabelling exists"
    for a, ta in enumerate(par):
        e = kgb.elements[a]
        assert tuple(par[c] for c in e.cross) == rows[ta][3]
        assert tuple(None if y is None else par[y] for y in e.cayley) == rows[ta][4]


# -- printed tables -----------------------------------------------------------


def test_kgb_rank_one_split():
    g = generate_kgb(context("A1", "s"), 1)
    assert g.size == 3
    assert format_kgb(g) == [
        "0:  0  0  [n]   1    2",
        "1:  0  0  [n]   0    2",
        "2:  1  1  [r]   2    *  1",
    ]


def test_kgb_rank_one_adjoint_split():
    ic = context("A1", "s", "ad")
    g = generate_kgb(ic, 1)
    assert g.size == 2
    assert format_kgb(g) == [
        "0:  0  0  [n]   0    1",
        "1:  1  1  [r]   1    *  1",
    ]


def test_kgb_sp4_table():
    g = generate_kgb(context("C2", "s"), 2)
    assert g.size == 11
    assert format_kgb(g) == [
        " 0:  0  0  [n,n]    2   1     4   5",
        " 1:  0  0  [c,n]    1   0     *   5",
        " 2:  0  0  [n,n]    0   3     4   6",
        " 3:  0  0  [c,n]    3   2     *   6",
        " 4:  1  1  [r,C]    4   7     *   *  1",
        " 5:  1  2  [C,r]    9   5     *   *  2",
        " 6:  1  2  [C,r]    8   6     *   *  2",
        " 7:  2  1  [n,C]    7   4    10   *  2,1,2",
        " 8:  2  2  [C,n]    6   9     *  10  1,2,1",
        " 9:  2  2  [C,n]    5   8     *  10  1,2,1",
        "10:  3  3  [r,r]   10  10     *   *  1,2,1,2",
    ]


def test_kgb_sl3r_relabelling():
    g = generate_kgb(context("A2", "s"), 0)
    assert_isomorphic(g, """
0:  0  0  [C,C]   2  1    *  *
1:  1  0  [n,C]   1  0    3  *  2,1
2:  1  0  [C,n]   0  2    *  3  1,2
3:  2  1  [r,r]   3  3    *  *  1,2,1
""")


def test_kgb_sp4_relabelling():
    g = generate_kgb(context("C2", "s"), 2)
    assert_isomorphic(g, """
 0:  0  0  [n,n]    1   2     6   4
 1:  0  0  [n,n]    0   3     6   5
 2:  0  0  [c,n]    2   0     *   4
 3:  0  0  [c,n]    3   1     *   5
 4:  1  2  [C,r]    8   4     *   *  2
 5:  1  2  [C,r]    9   5     *   *  2
 6:  1  1  [r,C]    6   7     *   *  1
 7:  2  1  [n,C]    7   6    10   *  2,1,2
 8:  2  2  [C,n]    4   9     *  10  1,2,1
 9:  2  2  [C,n]    5   8     *  10  1,2,1
10:  3  3  [r,r]   10  10     *   *  1,2,1,2
""")


def test_kgb_psp4_relabelling():
    g = generate_kgb(context("C2", "s", "ad"), 2)
    assert_isomorphic(g, """
0:  0  0  [n,n]   0  1    3  2
1:  0  0  [c,n]   1  0    *  2
2:  1  2  [C,r]   5  2    *  *  2
3:  1  1  [r,C]   3  4    *  *  1
4:  2  1  [n,C]   4  3    6  *  2,1,2
5:  2  2  [C,n]   2  5    *  6  1,2,1
6:  3  3  [r,r]   6  6    *  *  1,2,1,2
""")


def test_kgb_complex_rank_two_relabelling():
    g = generate_kgb(context("A2.A2", "C"), 0)
    assert_isomorphic(g, """
0:  0  0  [C,C,C,C]   2  1  2  1    *  *  *  *
1:  1  0  [C,C,C,C]   4  0  3  0    *  *  *  *  2,4
2:  1  0  [C,C,C,C]   0  3  0  4    *  *  *  *  1,3
3:  2  0  [C,C,C,C]   5  2  1  5    *  *  *  *  2,1,3,4
4:  2  0  [C,C,C,C]   1  5  5  2    *  *  *  *  1,2,4,3
5:  3  0  [C,C,C,C]   3  4  4  3    *  *  *  *  1,2,1,3,4,3
""")


# -- sizes --------------------------------------------------------------------


@pytest.mark.parametrize("kernel, sizes", [
    (None, (1, 10, 21)),
    ("ad", (1, 10, 12)),
])
def test_kgb_sizes_equal_rank_rank_three(kernel, sizes):
    ic = context("A3", "c", kernel)
    assert tuple(generate_kgb(ic, f).size for f in range(3)) == sizes


@pytest.mark.parametrize("text, letters, kernel, sizes", [
    ("C2", "s", None, (1, 4, 11)),
    ("C2", "s", "ad", (1, 3, 7)),
    ("G2", "s", None, (1, 10)),
    ("D4", "s", None, (1, 38, 38, 38, 109)),
])
def test_kgb_sizes(text, letters, kernel, sizes):
    ic = context(text, letters, kernel)
    assert len(ic.real_forms) == len(sizes)
    assert tuple(
        generate_kgb(ic, f).size for f in range(len(sizes))
    ) == sizes


def seed_sizes(ic, form):
    """The KGB size of the form from each base-fiber orbit it seeds."""
    return [
        generate_kgb(ic, form, orbit=o).size
        for o, orbit in enumerate(ic.fundamental_orbits) if orbit.form == form
    ]


def test_kgb_sizes_of_su_pq_count_clans():
    # simply connected only: adjoint K is disconnected for p = q, and
    # orbits fuse there (su(2,2) ad has 12, not 21)
    noncompact = []
    for n in range(1, 6):
        ic = context(f"A{n}", "c")
        for f in ic.real_forms:
            p, _, q = f.name[3:-1].partition(",")
            p, q = (1, 1) if f.name == "sl(2,R)" else (int(p), int(q or 0))
            sizes = seed_sizes(ic, f.index)
            assert sizes and set(sizes) == {clan_count(p, q)}, f.name
            if q:
                noncompact.append(sizes[0])
    assert noncompact == [3, 6, 10, 21, 15, 55, 21, 120, 215]


def test_kgb_sizes_of_sl_n_r_count_involutions():
    for n, size in ((3, 4), (5, 26)):
        ic = context(f"A{n - 1}", "s")
        assert [f.name for f in ic.real_forms] == [f"sl({n},R)"]
        assert set(seed_sizes(ic, 0)) == {involution_count(n)} == {size}


@pytest.mark.parametrize("text, letters, kernel", [
    ("A3", "c", None),
    ("A3", "c", "ad"),
    ("A1", "s", None),
    ("C2", "s", None),
    ("G2", "s", None),
])
def test_kgb_sizes_over_strong_forms_count_strong_involutions(
        text, letters, kernel):
    ic = context(text, letters, kernel)
    forms = [o.form for o in ic.fundamental_orbits]
    total = sum(
        generate_kgb(ic, forms[o], orbit=o).size for o in range(len(forms))
    )
    assert total == ic.strong_count()


def test_kgb_of_compact_form_is_a_point():
    for ic in (context("A3", "c"), context("G2", "s")):
        g = generate_kgb(ic, 0)
        assert g.size == 1
        e = g.elements[0]
        assert set(e.statuses) == {"c"}
        assert e.cross == tuple(0 for _ in e.cross)
        assert g.word(e.id) == ()


def test_kgb_of_complex_group_enumerates_weyl_group():
    for text, factor in [("A1.A1", "A1"), ("A2.A2", "A2"), ("A3.A3", "A3"),
                         ("B2.B2", "B2"), ("G2.G2", "G2")]:
        ic = context(text, "C")
        g = generate_kgb(ic, 0)
        assert g.size == weyl_order(factor)
        assert all(set(e.statuses) == {"C"} for e in g.elements)
        assert all(t is None for e in g.elements for t in e.cayley)
        n1 = len(g.elements[0].statuses) // 2
        halves = set()
        for e in g.elements:
            word = g.word(e.id)
            m = lin.identity(ic.rd.rank)
            for c in word:
                if c < n1:
                    m = lin.mat_mul(m, reflections(ic.rd)[c])
            halves.add(m)
            assert len(tuple(c for c in word if c < n1)) * 2 == len(word)
        assert len(halves) == g.size


# -- seeds --------------------------------------------------------------------


def test_kgb_seed_choice():
    ic = context("A3", "c")
    forms = tuple(o.form for o in ic.fundamental_orbits)
    assert forms == (0, 2, 0, 1, 1)
    assert seed_orbit(ic, 1) == 3
    assert generate_kgb(ic, 1, orbit=4).size == generate_kgb(ic, 1).size
    with pytest.raises(ValueError):
        seed_orbit(ic, 1, orbit=0)


def test_kgb_closed_orbits_fill_the_seed_fiber_orbit():
    ic = context("A3", "c")
    g = generate_kgb(ic, 2)
    closed = [e for e in g.elements if e.length == 0]
    assert len(closed) == len(ic.fundamental_orbits[g.orbit].members)
    assert [e.id for e in closed] == list(range(len(closed)))


# -- graph laws ---------------------------------------------------------------


GRAPH_CASES = [
    ("A1", "s", None, 1),
    ("A2", "s", None, 0),
    ("C2", "s", None, 2),
    ("C2", "s", "ad", 2),
    ("A3", "c", None, 2),
    ("G2", "s", None, 1),
    ("A2.A2", "C", None, 0),
]


@pytest.mark.parametrize("text, letters, kernel, form", GRAPH_CASES)
def test_kgb_cross_actions_are_involutions(text, letters, kernel, form):
    # generate_kgb fills each edge back from its far end, so the graph is
    # involutive by construction; recomputing every directed edge checks it
    ic = context(text, letters, kernel)
    g = generate_kgb(ic, form)
    ids = {ic.x_key(e.rep): e.id for e in g.elements}
    for e in g.elements:
        for j, c in enumerate(e.cross):
            assert g.elements[c].cross[j] == e.id
            assert ids[ic.x_key(ic.cross(j, e.rep))] == c


@pytest.mark.parametrize("text, letters, kernel, form", GRAPH_CASES)
def test_kgb_cross_actions_satisfy_braid_relations(text, letters, kernel, form):
    ic = context(text, letters, kernel)
    g = generate_kgb(ic, form)
    n = ic.rd.semisimple_rank
    for j in range(n):
        for k in range(j + 1, n):
            p = lin.vec_dot(ic.rd.simple_roots[j], ic.rd.simple_coroots[k])
            q = lin.vec_dot(ic.rd.simple_roots[k], ic.rd.simple_coroots[j])
            m = {0: 2, 1: 3, 2: 4, 3: 6}[p * q]
            for e in g.elements:
                a = b = e.id
                for step in range(m):
                    a = g.elements[a].cross[j if step % 2 == 0 else k]
                    b = g.elements[b].cross[k if step % 2 == 0 else j]
                assert a == b == e.id or a == b


@pytest.mark.parametrize("text, letters, kernel, form", GRAPH_CASES)
def test_kgb_cayley_raises_length_and_makes_root_real(
        text, letters, kernel, form):
    ic = context(text, letters, kernel)
    g = generate_kgb(ic, form)
    # a complex cross action moves the length by one, any other keeps it
    step = {COMPLEX_UP: 1, COMPLEX_DOWN: -1}
    for e in g.elements:
        for j, (kind, _) in enumerate(ic.table.status_row(e.rep[0])):
            assert g.elements[e.cross[j]].length == e.length + step.get(kind, 0)
        for j, t in enumerate(e.cayley):
            assert (t is not None) == (e.statuses[j] == "n")
            if t is not None:
                assert g.elements[t].length == e.length + 1
                assert g.elements[t].statuses[j] == "r"


@pytest.mark.parametrize("text, letters, kernel, form", GRAPH_CASES)
def test_kgb_has_unique_open_orbit(text, letters, kernel, form):
    g = generate_kgb(context(text, letters, kernel), form)
    top = max(e.length for e in g.elements)
    assert sum(1 for e in g.elements if e.length == top) == 1


@pytest.mark.parametrize("text, letters, kernel, form", GRAPH_CASES)
def test_kgb_ids_sorted_by_length_then_cartan(text, letters, kernel, form):
    g = generate_kgb(context(text, letters, kernel), form)
    keys = [(e.length, e.cartan) for e in g.elements]
    assert keys == sorted(keys)
    assert [e.id for e in g.elements] == list(range(g.size))


# -- one pass -----------------------------------------------------------------


@pytest.mark.parametrize("text, letters, kernel", [
    ("A3", "c", None),
    ("A3", "s", "ad"),
    ("B3", "s", None),
    ("B3", "s", "ad"),
    ("C3", "s", "ad"),
    ("G2", "s", None),
    ("D4", "s", "ad"),
    ("D4", "u", None),
    ("A2.A2", "C", None),
    ("A1.T1", "sc", None),
    ("A3.T1", "ss", "ad"),
])
def test_kgb_matches_two_pass_reference(text, letters, kernel):
    ic = context(text, letters, kernel)
    for form in range(len(ic.real_forms)):
        assert generate_kgb(ic, form) == reference_kgb(ic, form)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    text=st.sampled_from(SMALL_TYPES),
    letter=st.sampled_from("cs"),
    kernel=st.sampled_from([None, "ad"]),
)
def test_kgb_of_compact_and_quasisplit_forms_match_two_pass_reference(text, letter, kernel):
    ic = context(text, letter, kernel)
    for form in {0, quasisplit(ic)}:
        assert generate_kgb(ic, form) == reference_kgb(ic, form)


def test_kgb_matches_two_pass_reference_at_every_seed_orbit():
    ic = context("B3", "s")
    forms = [o.form for o in ic.fundamental_orbits]
    assert len(set(forms)) < len(forms)
    for o, form in enumerate(forms):
        assert generate_kgb(ic, form, orbit=o) == reference_kgb(ic, form, orbit=o)


@pytest.mark.parametrize("text, letters, kernel, form", [GRAPH_CASES[2], GRAPH_CASES[5]])
def test_kgb_computes_each_edge_once(text, letters, kernel, form):
    ic = context(text, letters, kernel)
    ic.real_forms  # the seed fibers are keyed too; build them first
    keyed = []
    x_key = ic.x_key
    ic.x_key = lambda x: keyed.append(x) or x_key(x)
    g = generate_kgb(ic, form)
    del ic.x_key
    # keys: the seeds, each cross image that moves t at a root that is not
    # real, once per unordered edge: a pair {x, s_j x} once, a fixed point
    # not at all; and each Cayley image, once per type-I pair {x, s_j x}
    # (one image for both) and once per type-II element (s_j x = x).  A
    # real root fixes the key, so a real loop is not keyed even where s_j
    # moves t
    n = ic.rd.semisimple_rank
    seeds = len(ic.fundamental_orbits[g.orbit].members)
    loops = [[e for e in g.elements if e.cross[j] == e.id] for j in range(n)]
    assert all((g.size - len(loops[j])) % 2 == 0 for j in range(n))
    pairs = sum(g.size - len(loops[j]) for j in range(n)) // 2
    moves = [(j, e, ic.cross(j, e.rep)) for j in range(n) for e in loops[j]]
    moved = sum(y != e.rep for j, e, y in moves if e.statuses[j] != "r")
    real = [y for j, e, y in moves if e.statuses[j] == "r" and y != e.rep]
    assert real and not set(real) & set(keyed)
    noncompact = [(e, j) for e in g.elements for j in range(n) if e.statuses[j] == "n"]
    type_one = [(e, j) for e, j in noncompact if e.cross[j] != e.id]
    assert type_one and len(type_one) < len(noncompact) and len(type_one) % 2 == 0
    assert all(g.elements[e.cross[j]].cayley[j] == e.cayley[j] for e, j in type_one)
    cayleys = len(noncompact) - len(type_one) // 2
    assert len(keyed) == seeds + pairs + moved + cayleys
    # at most one key per cross action and Cayley edge; a compact imaginary
    # root fixes t mod denom, so its loop is not keyed
    crosses = sum(g.size + len(loops[j]) for j in range(n)) // 2
    compact = sum(e.statuses.count("c") for e in g.elements)
    assert compact > 0
    assert len(keyed) <= seeds + crosses - compact + cayleys


# -- what the search builds -------------------------------------------------


def is_set(record, name):
    """Whether a lazy field of a lattice record is set, without computing it."""
    try:
        object.__getattribute__(record, name)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("text, letters, kernel", [
    ("B3", "s", "sc"), ("D4", "s", "ad"), ("A3.T1", "ss", "ad"), ("G2", "s", "sc"),
])
def test_kgb_search_builds_no_words(monkeypatch, text, letters, kernel):
    built = []
    normal_form_word = weyl.normal_form_word
    monkeypatch.setattr(
        weyl, "normal_form_word", lambda table, w: built.append(w) or normal_form_word(table, w)
    )
    # a table of its own: tables are shared by the contexts of one type
    monkeypatch.setattr(weyl, "_TABLES", {})
    ic = context(text, letters, kernel)
    kgbs = [generate_kgb(ic, f) for f in range(len(ic.real_forms))]
    assert built == [] and ic.table._words == {}
    # the listings are the recorded ones, and build each word once
    recorded = json.loads(DIGESTS.read_text())[label(text, letters, kernel)]["kgb"]
    assert digest(kgb_lines(kgbs)) == recorded
    shown = {e.rep[0] for g in kgbs for e in g.elements}
    assert sorted(ic.table._words) == sorted(shown)
    assert len(built) == len(shown)
    format_kgb(kgbs[-1])
    assert len(built) == len(shown)


@pytest.mark.parametrize("text, letters, kernel", [
    ("D4", "s", "sc"), ("B3", "s", "ad"), ("F4", "s", "sc"), ("A3.T1", "ss", "ad"),
])
def test_kgb_search_keeps_no_root_subsystem(monkeypatch, text, letters, kernel):
    # tables stay in weyl._TABLES for the whole process, so the search
    # keeps nothing per involution it meets: the root subsystems kept are
    # the imaginary ones that the class record and the base fiber read,
    # at canonical involutions, and the search adds none
    monkeypatch.setattr(weyl, "_TABLES", {})
    ic = context(text, letters, kernel)
    table = ic.table
    canonical = {table.canonical_member(c) for c in range(len(table.classes))}
    assert ic.real_forms
    kept = (table._imaginary, table._real, table._imaginary_bases, table._class_facts)
    before = [dict(cache) for cache in kept]
    met = {e.rep[0] for f in range(len(ic.real_forms)) for e in generate_kgb(ic, f).elements}
    assert [dict(cache) for cache in kept] == before
    assert set(table._imaginary) == set(table._imaginary_bases) == canonical
    assert table._real == table._class_facts == {}
    assert len(met - canonical) > len(canonical)


@pytest.mark.parametrize("text, letters", [("B3", "s"), ("D4", "s"), ("F4", "s"), ("E6", "c")])
def test_kgb_search_builds_theta_star_only_where_a_smith_form_needs_it(text, letters):
    ic = context(text, letters)
    generate_kgb(ic, quasisplit(ic))
    records, table = ic._lattices, ic.table
    # a record links to a parent exactly when its involution has a complex
    # descent: none reached by a real step has one
    assert all((lat.parent is None) == (COMPLEX_DOWN not in table.kinds(i))
               for i, lat in records.items())
    # the key rows of a record without a parent are Smith rows of 1 - theta*,
    # and theta* is read off its own root permutation; a record with a
    # parent moves the parent's rows, and reads no theta*
    smith = {i for i, lat in records.items() if lat.parent is None and is_set(lat, "minus")}
    built = {i for i, lat in records.items() if is_set(lat, "theta_star")}
    assert 0 in smith and built == smith
    assert 0 < len(built) < len(records)


@pytest.mark.parametrize("text, letters, kernel", [
    ("B3", "s", None), ("D4", "s", "ad"), ("F4", "s", None), ("A3.T1", "ss", "ad"),
])
def test_kgb_search_computes_no_heights(text, letters, kernel):
    # the search grades simple roots alone, whose offset is denom
    # (InnerClass._grading_offset), so it reads the heights of no record
    ic = context(text, letters, kernel)
    assert ic.real_forms
    before = {i for i, lat in ic._lattices.items() if is_set(lat, "heights")}
    for form in range(len(ic.real_forms)):
        generate_kgb(ic, form)
    assert {i for i, lat in ic._lattices.items() if is_set(lat, "heights")} == before
    assert len(ic._lattices) > len(before)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    text=st.sampled_from(SMALL_TYPES),
    letter=st.sampled_from("cs"),
    kernel=st.sampled_from([None, "ad"]),
)
def test_theta_star_read_after_a_kgb_search_matches_weyl_matrix(text, letter, kernel):
    ic = context(text, letter, kernel)
    generate_kgb(ic, quasisplit(ic))
    # from the top down, so most reads walk several records without theta*
    for inv in sorted(ic._lattices, reverse=True):
        assert ic.lattice(inv).theta_star == weyl_theta_star(ic, inv)
