"""Tests for Weyl words, inner-class involutions, and twisted involutions."""

from __future__ import annotations

import copy
import time
import tracemalloc
from collections import deque
from functools import cache

import pytest

from realred import lin
from realred.involution import InnerClass
from realred.rootdata import InputError, build_root_datum, parse_lie_type
from realred.weyl import (
    COMPLEX_DOWN,
    COMPLEX_UP,
    IMAGINARY,
    INCOMPATIBLE,
    REAL,
    InvolutionTable,
    inner_class_involution,
    involution_table,
    normal_form_word,
    parse_units,
    piece_chain,
    word_from_matrix,
)

from test_rootdata import reflections


@cache
def _cartan_inverse(cartan: lin.Matrix) -> tuple[lin.Matrix, int]:
    return lin.mat_inverse_rational(cartan)


def weyl_matrix(rd, images: tuple[int, ...]) -> lin.Matrix:
    """Matrix on characters of the w sending simple root j to root images[j].

    w(x) = x + sum_k <x, coroot_k> u_k, where u_k = w(omega_k) - omega_k
    for the fundamental weights omega_k.  Writing row j of E for the
    simple-root coordinates of w(alpha_j), the u_k have simple-root
    coordinates C^-1 (E - 1), with C the Cartan matrix.
    """
    n = rd.rank
    if not images:
        return lin.identity(n)
    npos = len(rd.positive_roots)
    e_minus_1 = [
        [(c if k < npos else -c) - (1 if l == j else 0)
         for l, c in enumerate(rd.positive_roots[k % npos].coeffs)]
        for j, k in enumerate(images)
    ]
    num, den = _cartan_inverse(rd.cartan)
    f = lin.mat_mul(num, lin.freeze(e_minus_1))
    assert not any(x % den for row in f for x in row)
    u = lin.mat_mul(lin.freeze([[x // den for x in row] for row in f]), rd.simple_roots)
    return lin.mat_add(lin.identity(n), lin.mat_mul(lin.transpose(u), rd.simple_coroots))


def weyl_images(table, i: int) -> tuple[int, ...]:
    """Root indices of w(alpha_j), for theta_i = w.delta."""
    theta, delta = table.thetas[i], table.thetas[0]
    return tuple(theta[delta[s]] for s in table.simple)


def reference_theta_star(ic, inv: int) -> lin.Matrix:
    """theta* at inv from the Weyl matrix of w, theta_inv = w.delta."""
    w = weyl_matrix(ic.rd, weyl_images(ic.table, inv))
    return lin.transpose(lin.mat_mul(w, ic.delta.matrix))


def context(text, letters, kernel=None):
    from realred.rootdata import (
        adjoint_generators, center_structure, parse_kernel_generator,
    )
    lt = parse_lie_type(text)
    if kernel is None:
        gens = ()
    elif kernel == "ad":
        gens = tuple(adjoint_generators(center_structure(lt)))
    else:
        cs = center_structure(lt)
        gens = tuple(parse_kernel_generator(line, cs) for line in kernel.split(";"))
    rd = build_root_datum(lt, gens)
    return rd, lt, inner_class_involution(letters, rd, lt)


def weyl_closure(rd):
    ident = lin.identity(rd.rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for s in reflections(rd):
                m2 = lin.mat_mul(m, s)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return seen


# -- words ------------------------------------------------------------


@cache
def simple_table(rd):
    """The untwisted table of rd, for its simple indices and reflections."""
    return InvolutionTable(rd, tuple(range(rd.semisimple_rank)))


def as_permutation(rd, m):
    """The permutation of root indices induced by a lattice matrix."""
    return tuple(rd.root_index[lin.mat_vec(m, v)] for v in rd.roots)


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


# The matrix algorithm that computed words before they were read off root
# permutations: strip simple reflections from a (matrix, inverse) pair.


def reference_word_from_matrix(rd, m, minv):
    """Lexicographically least reduced word, by greedy least left descent."""
    ident = lin.identity(rd.rank)
    npos = len(rd.positive_roots)
    word = []
    while m != ident:
        j = next(
            j for j in range(rd.semisimple_rank)
            if rd.root_index[lin.mat_vec(minv, rd.simple_roots[j])] >= npos
        )
        word.append(j)
        s = reflections(rd)[j]
        m = lin.mat_mul(s, m)
        minv = lin.mat_mul(minv, s)
    return tuple(word)


def reference_normal_form_word(rd, m, minv):
    """Reduced word as a product of minimal parabolic-coset pieces."""
    chain = piece_chain(rd)
    npos = len(rd.positive_roots)
    pieces = []
    for pos in range(len(chain) - 1, -1, -1):
        allowed = chain[:pos]
        xm, xminv = m, minv
        stripped = True
        while stripped:
            stripped = False
            for s in allowed:
                if rd.root_index[lin.mat_vec(xminv, rd.simple_roots[s])] >= npos:
                    refl = reflections(rd)[s]
                    xm = lin.mat_mul(refl, xm)
                    xminv = lin.mat_mul(xminv, refl)
                    stripped = True
                    break
        pieces.append(reference_word_from_matrix(rd, xm, xminv))
        m = lin.mat_mul(m, xminv)
        minv = lin.mat_mul(xm, minv)
    assert m == lin.identity(rd.rank)
    out = []
    for w in reversed(pieces):
        out.extend(w)
    return tuple(out)


# The permutation algorithm that computed words before the walk on the
# pairings of w(2 rho): strip left descents one at a time, composing a
# 2N-entry permutation per letter.


def reference_strip(table, winv, order):
    """Strips left descents of w (given by its inverse) in order, the
    first one each time; returns the letters and the inverse of the rest."""
    npos = len(table.reflections)
    word = []
    while True:
        j = next((j for j in order if winv[table.simple[j]] >= npos), None)
        if j is None:
            return word, winv
        word.append(j)
        winv = tuple(winv[x] for x in table.reflections[table.simple[j]])


def _permutation_inverse(w):
    return tuple(sorted(range(len(w)), key=w.__getitem__))


def reference_strip_word_from_matrix(table, w):
    """Lexicographically least reduced word, by greedy least left descent."""
    return tuple(reference_strip(table, _permutation_inverse(w), range(len(table.simple)))[0])


def reference_strip_normal_form_word(table, w):
    """Reduced word as a product of minimal parabolic-coset pieces."""
    chain = piece_chain(table.rd)
    winv = _permutation_inverse(w)
    pieces = []
    for pos in range(len(chain) - 1, -1, -1):
        x = _permutation_inverse(reference_strip(table, winv, chain[:pos])[1])
        pieces.append(reference_strip_word_from_matrix(table, x))
        winv = tuple(x[y] for y in winv)
    assert winv == tuple(range(len(winv)))
    return tuple(j for piece in reversed(pieces) for j in piece)


@pytest.mark.parametrize("text,letters", [
    ("E6", "c"), ("D6", "s"), ("F4", "s"), ("D4", "u"), ("A5", "c"), ("B2.A3", "sc"),
])
def test_table_words_match_stripping_reference(text, letters):
    _, _, d = context(text, letters)
    table = involution_table(d)
    delta = table.thetas[0]
    for i, theta in enumerate(table.thetas):
        w = tuple(theta[x] for x in delta)
        assert table.word(i) == reference_strip_normal_form_word(table, w)
    for k, refl in enumerate(table.reflections):
        assert table.reflection_word(k) == reference_strip_normal_form_word(table, refl)


def test_word_normal_form():
    rd, _, _ = context("A2", "c")
    assert weyl_element(rd, ())[0] == ()
    assert weyl_element(rd, (0, 0))[0] == ()
    assert weyl_element(rd, (0, 1, 1, 0))[0] == ()
    assert weyl_element(rd, (1, 0, 1))[0] == (0, 1, 0)
    assert weyl_element(rd, (1, 0, 1))[1] == weyl_element(rd, (0, 1, 0))[1]
    assert weyl_element(rd, (1, 0))[0] == (1, 0)
    assert weyl_element(rd, ())[1] == lin.identity(2)
    assert weyl_element(rd, ())[2] == tuple(range(6))


def test_word_lengths_cover_group():
    rd, _, _ = context("B2", "c")
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
    rd, _, _ = context("A2", "c")
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
    rd, _, _ = context(text, "c" * text.count(".") + "c")
    left = tuple(i if k % 2 == 0 else j for k in range(m))
    right = tuple(j if k % 2 == 0 else i for k in range(m))
    assert weyl_element(rd, left) == weyl_element(rd, right)


@pytest.mark.parametrize("text", ["A3", "B3", "G2", "D4"])
def test_normal_form_matches_matrix_reference(text):
    rd, _, _ = context(text, "c")
    table = simple_table(rd)
    ident = lin.identity(rd.rank)
    # every element as (matrix, inverse matrix, root permutation)
    seen = {tuple(range(len(rd.roots))): (ident, ident)}
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for w, (m, minv) in frontier:
            for j, s in enumerate(reflections(rd)):
                w2 = tuple(map(w.__getitem__, table.reflections[table.simple[j]]))
                if w2 not in seen:
                    seen[w2] = (lin.mat_mul(m, s), lin.mat_mul(s, minv))
                    nxt.append((w2, seen[w2]))
        frontier = nxt
    assert len(seen) == {"A3": 24, "B3": 48, "G2": 12, "D4": 192}[text]
    for w, (m, minv) in seen.items():
        assert as_permutation(rd, m) == w
        assert normal_form_word(table, w) == reference_normal_form_word(rd, m, minv)
        assert word_from_matrix(table, w) == reference_word_from_matrix(rd, m, minv)


def test_normal_form_refuses_pairings_off_the_orbit_of_two_rho():
    # 3 w(2 rho) walks to the word of w, which gives back w(2 rho) only
    rd, _, _ = context("A3", "c")
    bad = copy.copy(simple_table(rd))
    bad.two_rho = tuple(3 * h for h in bad.two_rho)
    with pytest.raises(RuntimeError, match="do not multiply back"):
        normal_form_word(bad, bad.reflections[0])


@pytest.mark.parametrize("text,letters,kernel", [
    ("B3", "s", None), ("D4", "u", None), ("A3", "c", "ad"),
])
def test_table_words_match_matrix_reference(text, letters, kernel):
    rd, _, d = context(text, letters, kernel)
    table = involution_table(d)
    for i, theta in enumerate(table.thetas):
        w = tuple(map(theta.__getitem__, table.thetas[0]))
        winv = tuple(sorted(range(len(w)), key=w.__getitem__))
        m = weyl_matrix(rd, weyl_images(table, i))
        minv = weyl_matrix(rd, tuple(winv[s] for s in table.simple))
        assert lin.mat_mul(m, minv) == lin.identity(rd.rank)
        assert table.word(i) == reference_normal_form_word(rd, m, minv)


# -- inner class letters ----------------------------------------------


def test_inner_class_matrices():
    rd, _, d = context("A1", "s")
    assert d.matrix == lin.identity(1)
    rd, _, d = context("A2", "s")
    assert d.matrix == ((0, 1), (1, 0))
    assert d.perm == (1, 0)
    rd, _, d = context("A2", "c")
    assert d.matrix == lin.identity(2)
    rd, _, d = context("A2.A2", "C")
    assert d.perm == (2, 3, 0, 1)
    assert lin.mat_vec(d.matrix, rd.simple_roots[0]) == rd.simple_roots[2]
    rd, _, d = context("A1.T1", "ss")
    assert d.matrix == ((1, 0), (0, -1))
    rd, _, d = context("E6", "s")
    assert d.perm == (5, 1, 4, 3, 2, 0)
    rd, _, d = context("D5", "s")
    assert d.perm == (0, 1, 2, 4, 3)
    rd, _, d = context("D6", "s")
    assert d.perm == tuple(range(6))
    for text in ("B3", "C2", "G2", "F4", "E7"):
        _, _, d = context(text, "s")
        assert d.matrix == lin.identity(int(text[1]))


def test_inner_class_u():
    _, _, d = context("D4", "u")
    assert d.perm == (0, 1, 3, 2)
    _, _, d = context("D2", "u")
    assert d.perm == (1, 0)
    for text in ("A1", "B2", "C2", "G2", "F4", "T1", "E7"):
        with pytest.raises(InputError) as err:
            context(text, "u")
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
        context("A1.A1", "C", kernel="1/2,0/2")
    with pytest.raises(InputError) as err:
        context("D4", "u", kernel="1/2,0/2")
    assert str(err.value) == INCOMPATIBLE
    rd, _, d = context("A1.A1", "C", kernel="1/2,1/2")
    assert lin.mat_mul(d.matrix, d.matrix) == lin.identity(2)
    rd, _, d = context("D4", "u", kernel="1/2,1/2")
    assert lin.mat_mul(d.matrix, d.matrix) == lin.identity(4)


def test_e_letter_same_as_c():
    _, _, d1 = context("E7", "e")
    _, _, d2 = context("E7", "c")
    assert d1.matrix == d2.matrix


# -- twisted involutions ----------------------------------------------


def canonical_words(table):
    """Displayed word of each class's canonical member, in class order."""
    return [
        ",".join(str(j + 1) for j in table.word(table.canonical_member(c)))
        for c in range(len(table.classes))
    ]


def test_classes_a1():
    _, _, d = context("A1", "c")
    table = involution_table(d)
    assert [len(ids) for ids in table.classes] == [1, 1]
    assert table.word(table.canonical_member(0)) == ()
    assert table.word(table.canonical_member(1)) == (0,)


def test_classes_c2():
    _, _, d = context("C2", "c")
    table = involution_table(d)
    assert [len(ids) for ids in table.classes] == [1, 2, 2, 1]
    assert canonical_words(table) == ["", "2,1,2", "1,2,1", "1,2,1,2"]


def test_classes_a3():
    _, _, d = context("A3", "c")
    table = involution_table(d)
    assert [len(ids) for ids in table.classes] == [1, 6, 3]
    assert canonical_words(table) == ["", "1,2,3,2,1", "2,1,3,2"]


def test_classes_e6_unequal():
    _, _, d = context("E6", "s")
    table = involution_table(d)
    assert len(table.classes[0]) == 45
    assert table.word(table.canonical_member(0)) == ()


def test_classes_d6():
    _, _, d = context("D6", "c")
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


def reference_canonical_member(table, ids):
    """Scan of every member: 2 rho of the real roots dominant, then 2 rho
    of the imaginary roots dominant where the first pairs to 0, then the
    least (length, word)."""
    def pairings(i):
        return (table._two_rho_pairings(table.real_roots(i)),
                table._two_rho_pairings(table.imaginary_roots(i)))

    cands = [i for i in ids if all(x >= 0 for x in pairings(i)[0])] or list(ids)
    cands = [
        i for i in cands
        if all(b >= 0 for a, b in zip(*pairings(i)) if a == 0)
    ] or cands
    return min(cands, key=lambda i: (len(table.word(i)), table.word(i)))


def reference_classes(table):
    """(classes, class_of, canonical members) by union-find.

    Complex neighbours are unioned, the larger root under the smaller, so
    a group's root is its least id.  Groups are ordered by the Cayley
    transforms through the imaginary basis of each group's scanned
    canonical member, from the group of the base involution on.
    """
    uf = list(range(len(table)))

    def find(i):
        while uf[i] != i:
            i = uf[i]
        return i

    for i in range(len(table)):
        for kind, nbr in table.status_row(i):
            if kind in (COMPLEX_UP, COMPLEX_DOWN):
                ri, rj = find(i), find(nbr)
                uf[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(table)):
        groups.setdefault(find(i), []).append(i)
    order = [find(0)]
    canonical = []
    for root in order:
        rep = reference_canonical_member(table, groups[root])
        canonical.append(rep)
        for b in table.imaginary_basis(rep):
            grp = find(table.cayley(rep, b))
            if grp not in order:
                order.append(grp)
    assert len(order) == len(groups)
    classes = tuple(tuple(groups[r]) for r in order)
    class_of = [0] * len(table)
    for c, ids in enumerate(classes):
        for i in ids:
            class_of[i] = c
    return classes, tuple(class_of), tuple(canonical)


# every simple type of rank <= 6 in each of its inner classes
CANONICAL_CONTEXTS = (
    [("A1", "c")]
    + [(f"A{n}", letters) for n in range(2, 7) for letters in "cs"]
    + [(f"{x}{n}", "s") for x in "BC" for n in range(2, 7)]
    + [("D4", "s"), ("D4", "u"), ("D5", "c"), ("D5", "s"), ("D6", "s"), ("D6", "u")]
    + [("E6", "c"), ("E6", "s"), ("F4", "s"), ("G2", "s")]
    + [("D7", "s"), ("A1.A1", "C"), ("A2.A2", "C")]
)


def vector_reflections(rd):
    """Reflection in each positive root as a permutation of the root
    indices, by s_beta v = v - <v, beta^v> beta."""
    return tuple(
        tuple(rd.root_index[lin.vec_sub(v, lin.vec_scale(b.vec, lin.vec_dot(v, b.covec)))]
              for v in rd.roots)
        for b in rd.positive_roots
    )


def reference_table(rd, perm):
    """(thetas, lengths, status rows) by a breadth-first search over every edge.

    From each involution, every imaginary, complex-up and complex-down
    simple root maps the whole permutation, which is its own key; a real
    entry is filled from the lower end of its edge.
    """
    pos = rd.positive_roots
    npos = len(pos)
    n = rd.semisimple_rank
    by_coeffs = {r.coeffs: k for k, r in enumerate(pos)}
    delta = [by_coeffs[tuple(r.coeffs[p] for p in perm)] for r in pos]
    reflections = vector_reflections(rd)
    simple = [rd.root_index[a] for a in rd.simple_roots]
    theta0 = tuple(delta + [k + npos for k in delta])
    thetas, lengths, rows, index = [theta0], [0], [[None] * n], {theta0: 0}
    queue = deque([0])

    def add(theta, tl):
        tid = index.get(theta)
        if tid is None:
            tid = index[theta] = len(thetas)
            thetas.append(theta)
            lengths.append(tl)
            rows.append([None] * n)
            queue.append(tid)
        assert lengths[tid] == tl, "a twisted involution is met at two lengths"
        return tid

    while queue:
        i = queue.popleft()
        theta = thetas[i]
        for j, s in enumerate(simple):
            refl = reflections[s]
            a = theta[s]
            if a == s:
                tid = add(tuple(refl[x] for x in theta), lengths[i] + 1)
                rows[i][j] = (IMAGINARY, tid)
                rows[tid][j] = (REAL, i)
            elif a != s + npos:
                up = a < npos
                tid = add(tuple(refl[theta[x]] for x in refl), lengths[i] + (1 if up else -1))
                rows[i][j] = (COMPLEX_UP if up else COMPLEX_DOWN, tid)
    return thetas, lengths, [tuple(row) for row in rows]


@cache
def table_and_reference(text, letters):
    rd, _, d = context(text, letters)
    return involution_table(d), reference_table(rd, d.perm)


@pytest.mark.parametrize("text,letters", CANONICAL_CONTEXTS + [("B2.A3", "ss"), ("A1.T1", "ss")])
def test_table_matches_full_permutation_search(text, letters):
    # the table walks ascents only and keys by the simple-root images
    table, (thetas, lengths, rows) = table_and_reference(text, letters)
    assert [tuple(t) for t in table.thetas] == thetas
    assert table.lengths == lengths
    assert [table.status_row(i) for i in range(len(table))] == rows
    assert table.reflections == vector_reflections(table.rd)


@pytest.mark.parametrize("text,letters", [
    ("B3", "s"), ("F4", "s"), ("D5", "s"), ("E6", "c"), ("C4", "s"),
])
def test_cayley_matches_full_permutation_search(text, letters):
    table, (thetas, lengths, _) = table_and_reference(text, letters)
    index = {theta: i for i, theta in enumerate(thetas)}
    reflections = vector_reflections(table.rd)
    for i, theta in enumerate(thetas):
        for k, refl in enumerate(reflections):
            if theta[k] == k:
                tid = index[tuple(refl[x] for x in theta)]
                assert table.cayley(i, k) == tid
                assert lengths[tid] > lengths[i]


@pytest.mark.parametrize("text,letters", CANONICAL_CONTEXTS)
def test_canonical_member_matches_scan(text, letters):
    _, _, d = context(text, letters)
    table = involution_table(d)
    classes, class_of, canonical = reference_classes(table)
    assert table.classes == classes
    assert table.class_of == class_of
    for c, ids in enumerate(table.classes):
        assert table.canonical_member(c) == canonical[c]
        # the walk behind canonical_member starts at ids[0]
        assert table._walk_canonical(ids[-1]) == canonical[c]


@pytest.mark.parametrize("text,letters", [("D5", "s"), ("E6", "c")])
def test_canonical_walk_is_independent_of_its_start(text, letters):
    _, _, d = context(text, letters)
    table = involution_table(d)
    for i in range(len(table)):
        assert table._walk_canonical(i) == table.canonical_member(table.class_of[i])


def walk_from_corrupted_row():
    """Walks on a copy of the D5 s table whose status row reports as real
    the simple root the walk's first move needs."""
    _, _, d = context("D5", "s")
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


def test_canonical_walk_refuses_a_move_that_is_not_complex():
    with pytest.raises(RuntimeError, match="not complex"):
        walk_from_corrupted_row()


@pytest.mark.parametrize("text,letters", [
    ("A2", "c"), ("A3", "c"), ("B2", "c"), ("G2", "c"),
    ("A1.A1", "cc"), ("A2", "s"),
])
def test_count_matches_brute_force(text, letters):
    rd, _, d = context(text, letters)
    table = involution_table(d)
    count = sum(
        1 for m in weyl_closure(rd)
        if lin.mat_mul(lin.mat_mul(m, d.matrix), lin.mat_mul(m, d.matrix))
        == lin.identity(rd.rank)
    )
    assert len(table) == count
    assert sum(len(ids) for ids in table.classes) == count


def test_complex_pair_matches_first_factor():
    rd, _, d = context("A2.A2", "C")
    table = involution_table(d)
    assert len(table) == 6
    assert len(table.classes) == 1


def test_member_invariants():
    rd, _, d = context("B2", "s")
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
    rd, _, d = context("C2", "c")
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
    _, _, d = context(text, letters)
    table = involution_table(d)
    n = len(table.simple)
    for i in range(len(table)):
        assert tuple(table.status(i, j) for j in range(n)) == table.status_row(i)
    # an index past the row or the table does not read a neighbouring entry
    with pytest.raises(IndexError):
        table.status(0, n)
    with pytest.raises(IndexError):
        table.status_row(len(table))


@pytest.mark.parametrize("text,letters,size", [
    ("T1", "s", 1), ("T1", "c", 1), ("T2", "C", 1), ("A1.T1", "ss", 2),
])
def test_rank_zero_rows_are_kept(text, letters, size):
    # flat rows of n = 0 entries still give every involution its row
    _, _, d = context(text, letters)
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
    # E7 s has 10,208 involutions; tuple thetas and tuple status rows hold
    # about 1,700 B each, bytes and flat rows about 320 B
    _, _, d = context("E7", "s")
    involution_table(d)  # the root datum's lazy data, outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = InvolutionTable(d.rd, d.perm)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == 10208
    assert all(type(theta) is bytes for theta in table.thetas)
    assert retained / len(table) < 500


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
    rd, _, d = context("A1", "c")
    ic = InnerClass(d)
    assert ic.lattice(0).cbits == (0,)
    assert ic.lattice(1).cbits == (1,)
    # the base-point constant is 0: alpha = 2 omega is noncompact at
    # (0, t) exactly when 2 <alpha, t> / denom is odd, denom being 4
    assert ic.denom == 4
    assert base_gradings(ic) == {(0,): False, (1,): True, (2,): False, (3,): True}


def test_grading_shift_isogeny_invariant():
    _, _, d = context("A1", "c", kernel="ad")
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
        rd, _, d = context(text, letters, kernel)
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
        context("A1.A1.A1.A1.A1.A1.A1.A1.A1", "c" * 9)


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
    _, _, d = context("T1", "s")
    table = involution_table(d)
    assert len(table) == 1
    assert table.classes == ((0,),)
    assert table.word(0) == ()
