"""Reference algorithms that the tests compare the library against.

Most references were once the library's own algorithm, and the commit
that replaced it in the library moved it here; the rest are brute-force
checks written with the commit named, and known tables from outside the
code, whose row names their source in place of a commit.  ``git show
<commit>`` gives the change and its CHANGES.md entry; a commit written
``abc1234+`` is the child of abc1234.

=====================================  ======== ==========================================
reference                              commit   compared in
=====================================  ======== ==========================================
reference_f2_rank                      56363da  test_lin: test_f2_rank,
                                                test_odd_divisors_match_f2_reference
reference_mat_inverse_rational         56363da  none: 2bf5db0+ deleted lin.mat_inverse_rational;
                                                the inverse in weyl_matrix and reference_to_ad
reference_word_from_matrix             fb8e621  test_weyl: test_normal_form_matches_matrix_reference
reference_normal_form_word             fb8e621  test_weyl: test_normal_form_matches_matrix_reference,
                                                test_table_words_match_matrix_reference;
                                                test_involution: test_reflection_words_are_normal_forms
reference_strip                        c24662c  test_weyl: test_table_words_match_stripping_reference
reference_strip_word_from_matrix       c24662c  (as above)
reference_strip_normal_form_word       c24662c  (as above)
reference_table                        c77e33d  test_weyl: test_table_matches_full_permutation_search,
                                                test_cayley_matches_full_permutation_search
reference_canonical_member             c048f3b  test_weyl: test_canonical_member_matches_scan
reference_classes                      56363da  (as above)
reference_theta_star                   afb6624  test_involution: test_theta_star_and_rho_drop_match_weyl_matrix
reference_rho_check_drop               afb6624  (as above)
rank_decomposition                     daae08c  test_involution: test_cached_ranks_match_reference,
                                                test_theta_star_and_rho_drop_match_weyl_matrix
square_key_if_valid                    56363da  test_involution: test_cross_and_cayley_preserve_squares,
                                                test_square_key_integer_check_matches_fractions
square_key_reference                   cada698  test_involution: test_square_key_integer_check_matches_fractions
reference_central_reduce               4081506  (as above)
reference_central_translates           4081506  (as above)
reference_central_class_key            4081506  (as above)
reference_x_key                        afb6624  test_involution: test_fiber_keys_and_inverse_cayley_match_references
reference_inverse_cayley               afb6624  (as above)
reference_two_offset_inverse_cayley    c048f3b  (as above)
reference_fiber_elements               a23a4d8  (as above)
reference_csc_bits                     b5d4c8b  test_involution: test_closed_form_grading_matches_transport
reference_root_grading                 b5d4c8b  (as above)
cross_word                             57d2376  test_involution: test_cartan_record_moves_are_cross_actions
reference_adjoint_context              e69b722  test_involution:
                                                test_weak_forms_and_partitions_match_the_adjoint_context
reference_to_ad                        e69b722  (as above)
reference_component_rank               33c6dad  test_involution: test_component_rank_matches_kernel_reference
reference_simple_basis                 2bf5db0+ test_weyl: test_simple_basis_matches_vector_reference
reference_real_weyl                    1b732b9  test_cartan: test_real_weyl_matches_enumeration_reference
brute_force_hasse                      cada698  test_cartan: test_hasse_matches_brute_force
reference_kgb                          1031314  test_kgb: test_kgb_matches_two_pass_reference,
                                                test_kgb_matches_two_pass_reference_at_every_seed_orbit
classical_real_forms                   (source) test_involution: test_classical_real_forms;
                                                source: S. Helgason, Differential Geometry,
                                                Lie Groups, and Symmetric Spaces, Ch. X,
                                                Table V; A. W. Knapp, Lie Groups Beyond an
                                                Introduction, App. C
=====================================  ======== ==========================================

The other functions here are the helpers these need, and exact
matrices and closures that tests check the library's values against:
``det``, ``reflections``, ``coreflections``, ``reflection_matrix``,
``weyl_matrix``, ``weyl_images``, ``weyl_closure``, ``as_permutation``
and ``vector_reflections``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cache
from math import lcm

from realred import lin, rootdata
from realred.cartan import RealWeylDecomposition, _complex_factor, system_type
from realred.involution import InnerClass, RankDecomposition, StrongX, inner_class
from realred.kgb import KGB, KGBElement, seed_orbit
from realred.rootdata import LieType, Root, adjoint_generators, build_root_datum, center_structure
from realred.weyl import COMPLEX_DOWN, COMPLEX_UP, IMAGINARY, REAL, piece_chain, word_from_matrix


# -- exact lattice linear algebra ---------------------------------------


def det(a: lin.Matrix) -> int:
    """Determinant of a square integer matrix (exact)."""
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        for i in range(col + 1, n):
            if rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= rows[i][i]
    assert out.denominator == 1
    return int(out)


def reference_f2_rank(a: lin.Matrix) -> int:
    """Rank of the matrix reduced mod 2, by elimination on row bitmasks."""
    masks = []
    for row in a:
        bits = 0
        for j, x in enumerate(row):
            if x & 1:
                bits |= 1 << j
        if bits:
            masks.append(bits)
    rank = 0
    while masks:
        piv = min(masks, key=lambda b: b & -b)
        low = piv & -piv
        masks = [b ^ piv if b & low else b for b in masks if b != piv]
        masks = [b for b in masks if b]
        rank += 1
    return rank


def reference_mat_inverse_rational(a: lin.Matrix) -> tuple[lin.Matrix, int]:
    """Gauss-Jordan over Fraction, then the least common denominator."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        f = rows[col][col]
        rows[col] = [x / f for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    inv = [row[n:] for row in rows]
    den = lcm(*(x.denominator for row in inv for x in row)) if n else 1
    return lin.freeze([[x * den for x in row] for row in inv]), den


# -- reflections and Weyl matrices ---------------------------------------


def reflection_matrix(rd, root):
    """Matrix of the reflection in any root, acting on characters."""
    n = rd.rank
    return lin.freeze(
        [[(1 if r == c else 0) - root.vec[r] * root.covec[c] for c in range(n)]
         for r in range(n)]
    )


@cache
def reflections(rd: rootdata.RootDatum) -> tuple[lin.Matrix, ...]:
    """Simple-reflection matrices acting on character vectors."""
    return tuple(
        reflection_matrix(rd, rd.positive_roots[rd.root_index[a]]) for a in rd.simple_roots
    )


def coreflections(rd: rootdata.RootDatum) -> tuple[lin.Matrix, ...]:
    """Simple-reflection matrices acting on cocharacter vectors."""
    return tuple(lin.transpose(s) for s in reflections(rd))


@cache
def _cartan_inverse(cartan: lin.Matrix) -> tuple[lin.Matrix, int]:
    return reference_mat_inverse_rational(cartan)


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


def as_permutation(rd, m):
    """The permutation of root indices induced by a lattice matrix."""
    return tuple(rd.root_index[lin.mat_vec(m, v)] for v in rd.roots)


# -- words ----------------------------------------------------------------

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


# -- the twisted-involution table and its classes --------------------------


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


# -- lattice records --------------------------------------------------------


def reference_rho_check_drop(ic, theta_star):
    """(2 rho-check - w* 2 rho-check) / 2, w acting on cocharacters by theta* delta*."""
    w_star = lin.mat_mul(theta_star, ic._dstar)
    two_rho = ic.rd.two_rho_check
    two = lin.vec_sub(two_rho, lin.mat_vec(w_star, two_rho))
    assert not any(x % 2 for x in two)
    return tuple(x // 2 for x in two)


def rank_decomposition(theta, ranks=None):
    """Rank invariants of a lattice involution from fresh Smith forms: the reference.

    ranks, if given, are the ranks of theta - 1 and theta + 1 from Smith
    forms the caller has just taken; the F2 rank is always taken here.
    """
    n = len(theta)
    ident = lin.identity(n)
    c = reference_f2_rank(lin.mat_add(theta, ident))
    if ranks is None:
        ranks = (
            lin.smith_form(lin.mat_sub(theta, ident), ncols=n).rank,
            lin.smith_form(lin.mat_add(theta, ident), ncols=n).rank,
        )
    plus, minus = n - ranks[0], n - ranks[1]
    return RankDecomposition(split=minus - c, compact=plus - c, complex_pairs=c)


# -- square classes and fibers ------------------------------------------------


def square_key_if_valid(ic, x):
    """Square-class key of x, or None when x squares outside the center.

    The square s = num / denom is central and delta-fixed when every
    simple root and every row of delta* - 1 pairs integrally with it,
    which is checked on num modulo denom.
    """
    num = ic._square_numerators(x)
    d = ic.denom
    for a in ic.rd.simple_roots:
        if lin.vec_dot(a, num) % d:
            return None
    dstar_minus_one = lin.mat_sub(lin.transpose(ic.delta.matrix), lin.identity(ic.rd.rank))
    if any(v % d for v in lin.mat_vec(dstar_minus_one, num)):
        return None
    return ic.central_class_key(num, d)


def reference_central_reduce(ic, s):
    # Smith coordinates of a central cocharacter modulo the identity part,
    # as Fractions in [0, 1): the reference for the integer keys over cd
    sf = ic._central_smith
    y = lin.mat_vec(sf.v, s)
    out = []
    for i in range(len(y)):
        d = sf.diag[i] if i < len(sf.diag) else 0
        if d == 0:
            out.append(Fraction(0))
        else:
            yi = y[i] % 1
            assert (yi * d).denominator == 1
            out.append(yi)
    return tuple(out)


def reference_central_translates(ic):
    sf = ic._center_smith
    n = ic.rd.rank
    cols = lin.transpose(sf.vinv)
    onep = lin.mat_add(lin.transpose(ic.delta.matrix), lin.identity(n))
    gens = []
    for i in range(min(n, len(sf.diag))):
        if sf.diag[i] < 2:
            continue
        g = tuple(Fraction(x, sf.diag[i]) for x in cols[i])
        gens.append(reference_central_reduce(ic, lin.mat_vec(onep, g)))
    zero = tuple(Fraction(0) for _ in range(n))
    group = {zero}
    queue = [zero]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = tuple((a + b) % 1 for a, b in zip(cur, g))
            if nxt not in group:
                group.add(nxt)
                queue.append(nxt)
    return tuple(sorted(group))


def reference_central_class_key(ic, s, translates):
    base = reference_central_reduce(ic, s)
    return min(tuple((a + b) % 1 for a, b in zip(base, g)) for g in translates)


def square_key_reference(ic, x, translates):
    # square class key computed with Fractions throughout
    inv, t = x
    n = ic.rd.rank
    onep = lin.mat_add(ic.lattice(inv).theta_star, lin.identity(n))
    num = lin.vec_add(lin.mat_vec(onep, t), lin.vec_scale(ic.lattice(inv).cbits, ic.denom // 2))
    s = tuple(Fraction(v, ic.denom) for v in num)
    for a in ic.rd.simple_roots:
        if lin.vec_dot(a, s) % 1:
            return None
    diff = lin.mat_sub(lin.transpose(ic.delta.matrix), lin.identity(n))
    if any(v % 1 for v in lin.mat_vec(diff, s)):
        return None
    return reference_central_class_key(ic, s, translates)


def reference_x_key(ic, x):
    """The key from every row of the Smith uinv of 1 - theta*."""
    inv, t = x
    n = ic.rd.rank
    sf = lin.smith_form(lin.mat_sub(lin.identity(n), ic.lattice(inv).theta_star), ncols=n)
    s = lin.mat_vec(sf.uinv, t)
    return (inv, tuple(s[i] % ic.denom for i in range(sf.rank, n)))


def reference_inverse_cayley(ic, j, x):
    """Every offset of the coroot line scanned, with coreflection matrices."""
    inv, t = x
    _, nbr = ic.table.status_row(inv)[j]
    d = ic.denom
    key = ic.central_class_key(ic._square_numerators(x), d)
    base = lin.mat_vec(coreflections(ic.rd)[j], t)
    av = ic.rd.simple_coroots[j]
    out = []
    seen = set()
    for c in range(d):
        cand = (nbr, lin.vec_mod(lin.vec_add(base, lin.vec_scale(av, c)), d))
        if square_key_if_valid(ic, cand) != key:
            continue
        k = reference_x_key(ic, cand)
        if k not in seen:
            seen.add(k)
            if ic.grading(cand, j):
                out.append(cand)
    return tuple(out)


def reference_two_offset_inverse_cayley(ic, j, x):
    """The two noncompact offsets, each keyed by its own square class."""
    inv, t = x
    _, nbr = ic.table.status_row(inv)[j]
    d = ic.denom
    base = ic._reflect(j, t)
    r = (d // 2 - lin.vec_dot(ic.rd.simple_roots[j], base)) % d
    if r % 2:
        return ()
    key = ic.central_class_key(ic._square_numerators(x), d)
    av = ic.rd.simple_coroots[j]
    out = []
    seen = set()
    key_av = None
    for c in (r // 2, r // 2 + d // 2):
        cand = (nbr, lin.vec_mod(lin.vec_add(base, lin.vec_scale(av, c)), d))
        if square_key_if_valid(ic, cand) != key:
            continue
        if key_av is None:
            key_av = ic.x_key((nbr, av))[1]
        k = tuple(c * b % d for b in key_av)
        if k in seen:
            continue
        seen.add(k)
        assert ic.grading(cand, j)
        out.append(cand)
    return tuple(out)


def reference_fiber_elements(ic, inv, key):
    """(points, keys) of a fiber by breadth-first closure under its generators.

    Starts at t0 and adds the generators in order, keeping the first
    point met at each key.
    """
    d, cd = ic.denom, ic.cd
    rep = ic._class_rep(key)
    target = tuple(v * d // cd - c * (d // 2) for v, c in zip(rep, ic.lattice(inv).cbits))
    sf = ic.lattice(inv).plus
    t0 = lin.solve_mod_presolved(sf, target, d)
    if t0 is None:
        return (), ()
    cols = lin.transpose(sf.vinv)
    gens = [lin.vec_scale(cols[i], d // 2) for i, e in enumerate(sf.diag) if e == 2]
    t0 = lin.vec_mod(t0, d)
    seen = {reference_x_key(ic, (inv, t0)): t0}
    queue = [t0]
    for cur in queue:
        for g in gens:
            t = lin.vec_mod(lin.vec_add(cur, g), d)
            k = reference_x_key(ic, (inv, t))
            if k not in seen:
                seen[k] = t
                queue.append(t)
    return tuple(seen.values()), tuple(seen)


# -- gradings and cross actions ----------------------------------------------


def reference_csc_bits(ic, inv):
    """Simple-coroot coefficients of the rho-check drop at inv, mod 2."""
    rd = ic.rd
    sf = lin.smith_form(
        lin.transpose(lin.freeze(rd.simple_coroots)), ncols=rd.semisimple_rank
    )
    coeffs = lin.solve_int(sf, ic.lattice(inv).drop)
    assert coeffs is not None
    return tuple(c % 2 for c in coeffs[: rd.semisimple_rank])


def reference_root_grading(ic, x, root, bits):
    """Grading by transport along cross actions: the reference.

    A simple root j is graded by the base-point rule, whose constant
    comes from the coroot coefficients at j of the rho-check drop at x
    and at its Cayley transform (bits caches them per involution); any
    other root is carried one height step down by the cross action of
    the first simple reflection that lowers it, together with x.
    """
    inv, t = x
    ht = sum(root.coeffs)
    if ht == 1:
        j = root.coeffs.index(1)
        kind, target = ic.table.status_row(inv)[j]
        assert kind == IMAGINARY
        for i in (inv, target):
            if i not in bits:
                bits[i] = reference_csc_bits(ic, i)
        shift = (1 + bits[inv][j] + bits[target][j]) % 2
        d = ic.denom
        return (2 * lin.vec_dot(root.vec, t) + (shift - 1) * d) % (2 * d) == 0
    pos = ic.rd.positive_roots
    k = ic.rd.root_index[root.vec]
    for j, s in enumerate(ic.table.simple):
        img = ic.table.reflections[s][k]
        if img < len(pos) and sum(pos[img].coeffs) < ht:
            return reference_root_grading(ic, ic.cross(j, x), pos[img], bits)
    raise AssertionError("no descent for imaginary root")


def cross_word(ic, word, x):
    """Cross action of a word, its last letter first: the reference for
    the closed form of imaginary reflections on fibers."""
    for j in reversed(tuple(word)):
        x = ic.cross(j, x)
    return x


# -- weak forms and component groups against the adjoint context ---------------


def reference_adjoint_context(ic):
    """The adjoint group of the derived group, as a second context: the reference."""
    simple = tuple(f for f in ic.lt.factors if f.letter != "T")
    letters = "".join(
        letter for letter, idxs in ic.delta.units if ic.lt.factors[idxs[0]].letter != "T"
    )
    lt = LieType(simple, tuple(str(f) for f in simple))
    rd = build_root_datum(lt, adjoint_generators(center_structure(lt)))
    return inner_class(letters, rd, lt)


def reference_to_ad(ic, ad, t):
    """Image of the cocharacter t / ic.denom in the adjoint context, over ad.denom."""
    pair = tuple(lin.vec_dot(a, t) for a in ic.rd.simple_roots)
    mat, den = reference_mat_inverse_rational(lin.freeze(list(ad.rd.simple_roots)))
    scale = den * ic.denom
    out = []
    for v in lin.mat_vec(mat, pair):
        assert v * ad.denom % scale == 0
        out.append(v * ad.denom // scale)
    return tuple(out)


def reference_component_rank(ic, form):
    """Component rank in coordinates of the kernel lattice K of 1 +
    theta*: the reference.

    K / (1 - theta*) Z^n must be elementary abelian; the rank is its
    count of Z/2 factors less the F2 rank of the real coroots in them.
    """
    inv = ic.table.canonical_member(ic.most_split_cartan(form))
    n = ic.rd.rank
    theta = ic.lattice(inv).theta_star
    plus = lin.smith_form(lin.mat_add(lin.identity(n), theta), ncols=n)
    kernel = lin.transpose(plus.vinv)[plus.rank:]
    if not kernel:
        return 0
    ksf = lin.smith_form(lin.transpose(lin.freeze(list(kernel))))

    def in_kernel_coords(v):
        y = lin.solve_int(ksf, v)
        if y is None:
            raise RuntimeError("a vector is not in the kernel lattice of 1 + theta*")
        return y[: len(kernel)]

    minus = lin.mat_sub(lin.identity(n), theta)
    image = lin.freeze([list(in_kernel_coords(c)) for c in lin.transpose(minus)])
    sf = lin.smith_form(lin.transpose(image))
    if any(d not in (1, 2) for d in sf.diag):
        raise RuntimeError("the component group is not an elementary abelian 2-group")
    twos = [i for i, d in enumerate(sf.diag) if d == 2]
    if not twos:
        return 0
    bits = []
    for k in ic.table.real_roots(inv):
        z = lin.mat_vec(sf.uinv, in_kernel_coords(ic.rd.positive_roots[k].covec))
        bits.append([z[i] % 2 for i in twos])
    return len(twos) - reference_f2_rank(lin.freeze(bits))


# -- root subsystems ----------------------------------------------------------


def reference_simple_basis(positives: list[Root]) -> list[Root]:
    """Indecomposable members of a closed set of positive roots, by
    vector subtraction: the reference for InvolutionTable.simple_basis."""
    vecs = {r.vec for r in positives}
    return [
        r for r in positives
        if not any(g.vec != r.vec and lin.vec_sub(r.vec, g.vec) in vecs for g in positives)
    ]


# -- real Weyl groups by listing W_i ----------------------------------------


def _weyl_closure(gens, size):
    """All products of the generators, as permutations of size root indices."""
    seen = {tuple(range(size))}
    frontier = set(seen)
    while frontier:
        frontier = {tuple(map(g.__getitem__, w)) for w in frontier for g in gens} - seen
        seen |= frontier
    return seen


def _a_group_data(ic, x, wi, wic_basis):
    """Rank and generator words of A = Stab_{W_i}(x) / W_ic.

    wi lists every element of W_i as (reduced word, root permutation).
    """
    table = ic.table
    size = len(ic.rd.roots)
    key = ic.x_key(x)
    stab = [(w, p) for w, p in wi if ic.x_key(cross_word(ic, w, x)) == key]
    wic_gens = [table.reflections[k] for k in wic_basis]
    wic = _weyl_closure(wic_gens, size)
    assert wic <= {p for _, p in stab}
    count, extra = divmod(len(stab), len(wic))
    assert not extra and not count & (count - 1)
    a_rank = count.bit_length() - 1
    out = []
    picked = []
    current = wic
    stab.sort(key=lambda t: (len(t[0]), t[0]))
    for w, p in stab:
        if len(current) == len(stab):
            break
        if p in current:
            continue
        out.append(w)
        picked.append(p)
        current = _weyl_closure(wic_gens + picked, size)
    assert len(out) == a_rank
    return a_rank, tuple(out)


def reference_real_weyl(ic, form, cartan):
    """W(K,H) from a scan of the whole of W_i, once per fiber point of the form."""
    table = ic.table
    rd = ic.rd
    inv = table.canonical_member(cartan)
    reps = [
        x for sq in ic.square_classes
        for x in ((inv, t) for t in ic.fiber_elements(inv, sq.key))
        if ic.real_form_of(x) == form
    ]
    x = reps[0]
    imaginary = table.imaginary_roots(inv)
    real = table.real_roots(inv)
    compact = [k for k in imaginary if not ic.root_grading(x, k)]
    side, side_pairs = _complex_factor(ic, inv)
    complex_gens = []
    for first, second in side_pairs:
        s1, s2 = table.reflections[first], table.reflections[second]
        complex_gens.append(word_from_matrix(table, tuple(map(s1.__getitem__, s2))))
    complex_gens.sort(key=lambda w: (len(w), w))
    wi_gens = [table.reflections[k] for k in table.imaginary_basis(inv)]
    wi = [
        (word_from_matrix(table, p), p)
        for p in _weyl_closure(wi_gens, len(rd.roots))
    ]
    wic_basis = table.simple_basis(compact)
    a_rank, a_gens = _a_group_data(ic, x, wi, wic_basis)
    for y in reps[1:]:
        other = [k for k in imaginary if not ic.root_grading(y, k)]
        assert _a_group_data(ic, y, wi, table.simple_basis(other))[0] == a_rank
    return RealWeylDecomposition(
        complex_type=system_type(table, side),
        a_rank=a_rank,
        compact_type=system_type(table, compact),
        real_type=system_type(table, real),
        complex_generators=tuple(complex_gens),
        a_generators=a_gens,
        compact_generators=tuple(table.reflection_word(k) for k in wic_basis),
        real_generators=tuple(table.reflection_word(k) for k in table.simple_basis(real)),
    )


def brute_force_hasse(ic, form):
    # grades every fiber point of the form, not one per orbit
    table = ic.table
    nodes, edges = [], set()
    for c in range(len(table.classes)):
        inv = table.canonical_member(c)
        for sq in ic.square_classes:
            for t in ic.fiber_elements(inv, sq.key):
                x = (inv, t)
                if ic.real_form_of(x) != form:
                    continue
                if c not in nodes:
                    nodes.append(c)
                for k in table.imaginary_roots(inv):
                    if ic.root_grading(x, k):
                        edges.add((c, table.class_of[table.cayley(inv, k)]))
    return tuple(nodes), tuple(sorted(edges))


# -- KGB ----------------------------------------------------------------------


def reference_kgb(ic: InnerClass, form: int, orbit: int | None = None) -> KGB:
    """Two-pass KGB: a search for the elements, then every edge again.

    The search keeps only newly found keys; the build loop repeats each
    cross action, grading and Cayley transform to turn keys into ids.
    """
    orbit = seed_orbit(ic, form, orbit)
    table = ic.table
    n = ic.rd.semisimple_rank

    reps: dict[tuple, StrongX] = {}
    inv_length = {0: 0}
    queue: deque[tuple] = deque()
    for t in ic._fundamental_orbits[orbit][1]:
        key = ic.x_key((0, t))
        if key not in reps:
            reps[key] = (0, t)
            queue.append(key)

    def record(y: StrongX, length: int) -> None:
        prev = inv_length.setdefault(y[0], length)
        if prev != length:
            raise RuntimeError("inconsistent length at a twisted involution")
        key = ic.x_key(y)
        if key not in reps:
            reps[key] = y
            queue.append(key)

    while queue:
        x = reps[queue.popleft()]
        here = inv_length[x[0]]
        for j in range(n):
            kind = table.status_row(x[0])[j][0]
            if kind == COMPLEX_UP:
                record(ic.cross(j, x), here + 1)
            elif kind == COMPLEX_DOWN:
                record(ic.cross(j, x), here - 1)
            else:
                record(ic.cross(j, x), here)
                if kind == IMAGINARY and ic.grading(x, j):
                    record(ic.cayley(j, x), here + 1)

    if min(inv_length[x[0]] for x in reps.values()) != 0:
        raise RuntimeError("KGB element lies below the base involution")

    order = sorted(
        reps,
        key=lambda key: (inv_length[key[0]], table.class_of[key[0]], key),
    )
    ids = {key: i for i, key in enumerate(order)}

    elements = []
    for i, key in enumerate(order):
        x = reps[key]
        inv = x[0]
        statuses = []
        cross = []
        cayley: list[int | None] = []
        for j in range(n):
            kind = table.status_row(inv)[j][0]
            cross.append(ids[ic.x_key(ic.cross(j, x))])
            if kind == IMAGINARY:
                if ic.grading(x, j):
                    statuses.append("n")
                    cayley.append(ids[ic.x_key(ic.cayley(j, x))])
                else:
                    statuses.append("c")
                    cayley.append(None)
            else:
                statuses.append("r" if kind == REAL else "C")
                cayley.append(None)
        elements.append(KGBElement(
            id=i,
            length=inv_length[inv],
            cartan=table.class_of[inv],
            statuses=tuple(statuses),
            cross=tuple(cross),
            cayley=tuple(cayley),
            word=table.word(inv),
            rep=x,
        ))
    return KGB(form=form, orbit=orbit, elements=tuple(elements))


# -- classical real forms, from the classification ---------------------------


def _signatures(total: int, parity: int | None = None) -> list[tuple[int, int]]:
    """(p, q) with p >= q >= 1 and p + q = total; q of the parity, if one is given."""
    return [(total - q, q) for q in range(1, total // 2 + 1) if parity in (None, q % 2)]


def classical_real_forms(letter: str, rank: int, equal_rank: bool) -> list[str]:
    """Names of the weak real forms of a simple classical inner class, sorted.

    The classical list (see the table above), spelled as the library
    spells it: p >= q, su(1,1) as sl(2,R), and the two so*(2n) of D_n, n
    even, told apart by [1,0] and [0,1].  equal_rank is whether the
    inner class contains the compact form.
    """
    n = rank
    if letter == "A" and not equal_rank:
        return sorted([f"sl({n + 1},R)"] + ([f"sl({(n + 1) // 2},H)"] if n % 2 else []))
    if letter == "A":
        signed = ["sl(2,R)"] if n == 1 else [f"su({p},{q})" for p, q in _signatures(n + 1)]
        return sorted([f"su({n + 1})"] + signed)
    if letter == "B":
        return sorted([f"so({2 * n + 1})"] + [f"so({p},{q})" for p, q in _signatures(2 * n + 1)])
    if letter == "C":
        signed = [f"sp({p},{q})" for p, q in _signatures(n)]
        return sorted([f"sp({n})", f"sp({2 * n},R)"] + signed)
    if letter != "D":
        raise ValueError(f"{letter} is not a classical type")
    if not equal_rank:
        return sorted(f"so({p},{q})" for p, q in _signatures(2 * n, 1))
    stars = [f"so*({2 * n})"] if n % 2 else [f"so*({2 * n})[1,0]", f"so*({2 * n})[0,1]"]
    signed = [f"so({p},{q})" for p, q in _signatures(2 * n, 0)]
    return sorted([f"so({2 * n})"] + stars + signed)
