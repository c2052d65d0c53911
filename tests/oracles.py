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
reference_smith_form                   3a5b6df+ test_lin: test_smith_form_matches_reference,
                                                test_smith_form_matches_reference_on_involutions
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
weyl_theta_star                        afb6624  test_kgb: test_theta_star_read_after_a_kgb_search_matches_weyl_matrix
reference_theta_stars                  1312d46+ test_involution: test_theta_star_and_rho_drop_match_weyl_matrix
reference_theta_star                   c7504b3+ test_involution: test_closed_form_theta_star_matches_chain_reference
coreflection_times                     c7504b3+ test_lin: test_coreflection_products_match_mat_mul
reference_grading_offset               c7504b3+ test_involution: test_simple_grading_offsets_match_heights_reference
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
first_inverse_cayley                   efee2e3+ test_involution: test_fiber_keys_and_inverse_cayley_match_references,
                                                test_real_form_of_and_gradings_match_reference_on_the_grid
reference_real_form_of                 efee2e3+ test_involution:
                                                test_real_form_of_and_gradings_match_reference_on_the_grid
inverse_cayley                         8e0a084+ test_involution: test_cross_and_cayley_preserve_squares,
                                                test_cayley_rejects_roots_of_the_wrong_kind,
                                                test_descent_is_path_independent,
                                                test_fiber_keys_and_inverse_cayley_match_references,
                                                test_inverse_cayley_candidates_square_like_x
reference_inverse_cayley               afb6624  test_involution: test_fiber_keys_and_inverse_cayley_match_references
reference_two_offset_inverse_cayley    c048f3b  (as above)
reference_fiber_elements               a23a4d8  (as above)
reference_orbit_partition              f393d93+ test_involution: test_orbit_partition_matches_point_by_point_reference,
                                                test_orbit_partition_and_strong_counts_match_reference_on_the_grid
reference_key_rows                     9d1bd91+ test_involution: test_fiber_keys_and_inverse_cayley_match_references,
                                                test_theta_star_and_rho_drop_match_weyl_matrix
reference_kgb_order                    9d1bd91+ digest_outputs: the kgb_smith_order and
                                                kgb_reps_smith_order digests
reference_csc_bits                     b5d4c8b  test_involution: test_closed_form_grading_matches_transport
reference_root_grading                 b5d4c8b  (as above)
cross_word                             57d2376  test_involution: test_cartan_record_moves_are_cross_actions
reference_adjoint_context              e69b722  test_involution:
                                                test_weak_forms_and_partitions_match_the_adjoint_context
reference_to_ad                        e69b722  (as above)
reference_component_rank               33c6dad  test_involution: test_component_rank_matches_kernel_reference
reference_simple_basis                 2bf5db0+ test_weyl: test_simple_basis_matches_vector_reference
reference_imaginary_basis              1312d46+ test_weyl: test_root_subsystems_match_uncached_reference
reference_real_weyl                    1b732b9  test_cartan: test_real_weyl_matches_enumeration_reference
brute_force_hasse                      cada698  test_cartan: test_hasse_matches_brute_force
reference_kgb                          1031314  test_kgb: test_kgb_matches_two_pass_reference,
                                                test_kgb_matches_two_pass_reference_at_every_seed_orbit
classical_real_forms                   (source) test_involution: test_classical_real_forms;
                                                source: S. Helgason, Differential Geometry,
                                                Lie Groups, and Symmetric Spaces, Ch. X,
                                                Table V; A. W. Knapp, Lie Groups Beyond an
                                                Introduction, App. C
kac_weak_form_count                    (source) test_involution:
                                                test_exceptional_menus_match_kac_counts;
                                                source: V. G. Kac, Infinite-dimensional Lie
                                                Algebras, 3rd ed., Sec. 8.6 and Tables Aff 1-2;
                                                S. Helgason, Ch. X
clan_count                             (source) test_kgb: test_kgb_sizes_of_su_pq_count_clans;
                                                source: T. Matsuki and T. Oshima, "Embeddings
                                                of discrete series into principal series",
                                                Progr. Math. 82 (1990); A. Yamamoto, "Orbits in the flag variety
                                                and images of the moment map for classical
                                                groups I", Represent. Theory 1 (1997)
involution_count                       (source) test_kgb: test_kgb_sizes_of_sl_n_r_count_involutions;
                                                source: R. W. Richardson and T. A. Springer,
                                                "The Bruhat order on symmetric varieties",
                                                Geom. Dedicata 35 (1990)
richardson_class_count                 (source) test_weyl: test_class_count_matches_richardson;
                                                source: R. W. Richardson, "Conjugacy classes
                                                of involutions in Coxeter groups", Bull.
                                                Austral. Math. Soc. 26 (1982)
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
from itertools import combinations
from math import comb, lcm, prod

from realred import lin, rootdata
from realred.cartan import RealWeylDecomposition, _complex_factor, system_type
from realred.diagram import components
from realred.involution import InnerClass, inner_class
from realred.kgb import KGB, KGBElement, seed_orbit
from realred.lattice import RankDecomposition, StrongX
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


def reference_smith_form(a: lin.Matrix, ncols: int | None = None) -> lin.SmithForm:
    """lin.smith_form as it was before its pivot scan stopped at the first
    entry of absolute value 1: every entry of the rest is scanned for the
    least (absolute value, row, column), and rows and columns change one
    entry at a time."""
    m = len(a)
    n = len(a[0]) if a else (ncols if ncols is not None else 0)
    mm = [list(row) for row in a]
    p = [[int(i == j) for j in range(m)] for i in range(m)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    qi = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i, j, c):
        mi, mj = mm[i], mm[j]
        for k in range(n):
            mi[k] += c * mj[k]
        pj, pii = p[j], p[i]
        for k in range(m):
            pii[k] += c * pj[k]

    def col_add(j, i, c):
        for r in range(m):
            mm[r][j] += c * mm[r][i]
        for r in range(n):
            q[r][j] += c * q[r][i]
        qii, qij = qi[i], qi[j]
        for k in range(n):
            qii[k] -= c * qij[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = mm[i][j]
                if x:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            mm[t], mm[bi] = mm[bi], mm[t]
            p[t], p[bi] = p[bi], p[t]
        if bj != t:
            for r in range(m):
                mm[r][t], mm[r][bj] = mm[r][bj], mm[r][t]
            for r in range(n):
                q[r][t], q[r][bj] = q[r][bj], q[r][t]
            qi[t], qi[bj] = qi[bj], qi[t]
        if mm[t][t] < 0:
            mm[t] = [-x for x in mm[t]]
            p[t] = [-x for x in p[t]]
        piv = mm[t][t]
        dirty = False
        for i in range(t + 1, m):
            if mm[i][t]:
                c = mm[i][t] // piv
                if c:
                    row_add(i, t, -c)
                if mm[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if mm[t][j]:
                c = mm[t][j] // piv
                if c:
                    col_add(j, t, -c)
                if mm[t][j]:
                    dirty = True
        if dirty:
            continue
        bad = next((i for i in range(t + 1, m) if any(mm[i][j] % piv for j in range(t + 1, n))), None)
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return lin.SmithForm(
        uinv=tuple(map(tuple, p)), v=tuple(map(tuple, qi)),
        vinv=tuple(map(tuple, q)), diag=tuple(mm[i][i] for i in range(limit)),
    )


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


def weyl_theta_star(ic, inv: int) -> lin.Matrix:
    """theta* at inv from the Weyl matrix of w, theta_inv = w.delta."""
    w = weyl_matrix(ic.rd, weyl_images(ic.table, inv))
    return lin.transpose(lin.mat_mul(w, ic.delta.matrix))


def reference_theta_stars(ic) -> list[lin.Matrix]:
    """theta* at every involution, in id order, each from its table parent's.

    The parent is the one InnerClass.lattice picks: the neighbour at the
    first complex descent j, else at the first real j.  theta = s_j
    theta_nbr s_j after a complex descent and s_j theta_nbr after a real
    step, with weyl_matrix giving s_j, and theta_0 = delta.  Each theta is
    checked to send every simple root to the root the table's bytes name:
    two elements of W.delta that agree there are equal, so each matrix is
    weyl_theta_star's, at one or two matrix products per involution.
    """
    table, rd = ic.table, ic.rd
    s = [weyl_matrix(rd, tuple(table.reflections[j][k] for k in table.simple))
         for j in table.simple]
    thetas = [ic.delta.matrix]
    for inv in range(1, len(table)):
        kinds = table.kinds(inv)
        j = kinds.find(COMPLEX_DOWN)
        complex_step = j >= 0
        if not complex_step:
            j = kinds.find(REAL)
        theta = lin.mat_mul(s[j], thetas[table.status(inv, j)[1]])
        if complex_step:
            theta = lin.mat_mul(theta, s[j])
        images = table.thetas[inv]
        assert all(lin.mat_vec(theta, a) == rd.roots[images[k]]
                   for a, k in zip(rd.simple_roots, table.simple))
        thetas.append(theta)
    return [lin.transpose(theta) for theta in thetas]


def coreflection_times(m: lin.Matrix, a: lin.Vector, av: lin.Vector) -> lin.Matrix:
    """(1 - av a^T) m: row i loses av_i (a^T m); the rows with av_i = 0 are
    m's own."""
    am = [sum(x * y for x, y in zip(a, col)) for col in zip(*m)]
    return tuple(
        tuple([x - c * y for x, y in zip(row, am)]) if c else row for row, c in zip(m, av)
    )


def reference_theta_star(ic) -> list[lin.Matrix]:
    """theta* at every involution, in id order, by the walk InnerClass.lattice
    took before theta* had a closed form.

    Each theta* comes from the table parent's, at the first simple root j
    that is a complex descent, else at the first real one: with C_j = 1 -
    alpha_j^v alpha_j^T, it is C_j theta*_nbr C_j after a complex descent
    (theta = s_j nbr s_j) and theta*_nbr C_j after a real step (theta =
    s_j nbr), one or two rank-one updates; delta* at the base.
    """
    table, rd = ic.table, ic.rd
    out = [ic._dstar]
    for inv in range(1, len(table)):
        kinds = table.kinds(inv)
        j = kinds.find(COMPLEX_DOWN)
        complex_step = j >= 0
        if not complex_step:
            j = kinds.find(REAL)
        a, av = rd.simple_roots[j], rd.simple_coroots[j]
        theta = lin.times_coreflection(out[table.status(inv, j)[1]], a, av)
        out.append(coreflection_times(theta, a, av) if complex_step else theta)
    return out


def reference_grading_offset(ic, inv: int, k: int) -> int:
    """InnerClass._grading_offset by the heights formula at every root:
    (ht + ht_i - 1) denom, with ht + ht_i half the pairing of the root with
    2 rho-check plus every positive coroot imaginary at inv."""
    rd, theta = ic.rd, ic.table.thetas[inv]
    imaginary = rd.coroot_sum(r for r in range(len(rd.positive_roots)) if theta[r] == r)
    heights = lin.vec_add(rd.two_rho_check, imaginary)
    return (lin.vec_dot(rd.positive_roots[k].vec, heights) // 2 - 1) * ic.denom


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


def reference_canonical_member(table, ids, key=None):
    """Scan of every member: 2 rho of the real roots dominant, then 2 rho
    of the imaginary roots dominant where the first pairs to 0, then the
    least (length, word), or the least by key if one is given."""
    def pairings(i):
        return (table._two_rho_pairings(table.real_roots(i)),
                table._two_rho_pairings(table.imaginary_roots(i)))

    cands = [i for i in ids if all(x >= 0 for x in pairings(i)[0])] or list(ids)
    cands = [
        i for i in cands
        if all(b >= 0 for a, b in zip(*pairings(i)) if a == 0)
    ] or cands
    return min(cands, key=key or (lambda i: (len(table.word(i)), table.word(i))))


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


def reference_key_rows(ic, inv):
    """The rows of the Smith uinv of 1 - theta* at its zero divisors."""
    n = ic.rd.rank
    sf = lin.smith_form(lin.mat_sub(lin.identity(n), ic.lattice(inv).theta_star), ncols=n)
    return sf.uinv[sf.rank:]


def reference_x_key(ic, x, rows=None):
    """The key from the Smith rows of 1 - theta*, built unless given."""
    inv, t = x
    if rows is None:
        rows = reference_key_rows(ic, inv)
    return (inv, tuple(lin.vec_dot(r, t) % ic.denom for r in rows))


def reference_kgb_order(ic, kgb):
    """kgb renumbered by (length, Cartan class, reference_x_key of the rep).

    That was the order of the ids while every record's key rows were its
    own Smith rows; one Smith form per involution of kgb.
    """
    rows = {}
    for e in kgb.elements:
        inv = e.rep[0]
        if inv not in rows:
            rows[inv] = reference_key_rows(ic, inv)
    order = sorted(
        kgb.elements,
        key=lambda e: (e.length, e.cartan, reference_x_key(ic, e.rep, rows[e.rep[0]])),
    )
    ids = {e.id: i for i, e in enumerate(order)}
    return kgb._replace(elements=tuple(
        e._replace(
            id=ids[e.id],
            cross=tuple(ids[k] for k in e.cross),
            cayley=tuple(None if k is None else ids[k] for k in e.cayley),
        )
        for e in order
    ))


def first_inverse_cayley(ic: InnerClass, j: int, nbr: int, t: lin.Vector) -> StrongX | None:
    """An inverse Cayley transform of (inv, t) through the simple root j,
    real at inv, to nbr; None when there is none.  Keys nothing.

    InnerClass._first_inverse_cayley until efee2e3+, which fused it into
    the descent step of InnerClass.real_form_of.  With d = denom and base
    = s_j t, the candidates are (nbr, u), u = base + c alpha_j^v, and
    alpha_j, simple imaginary at nbr, is noncompact there when <alpha_j,
    u> = <alpha_j, base> + 2c = d/2 mod d (root_grading).  With r = d/2 -
    <alpha_j, base> mod d, that is no c when r is odd, else c = r/2 or
    r/2 + d/2; this is the first.  Raises RuntimeError when the candidate
    is compact.
    """
    d = ic.denom
    base = ic._reflect(j, t)
    r = (d // 2 - lin.vec_dot(ic.rd.simple_roots[j], base)) % d
    if r % 2:
        return None
    av = ic.rd.simple_coroots[j]
    cand = (nbr, lin.vec_mod(lin.vec_add(base, lin.vec_scale(av, r // 2)), d))
    if not ic.grading(cand, j):
        raise RuntimeError("an inverse Cayley candidate is compact")
    return cand


def reference_real_form_of(ic: InnerClass, x: StrongX) -> int:
    """InnerClass.real_form_of until efee2e3+: the same descent, step by step.

    A complex descent is the generic cross action (InnerClass.cross), a
    real step the first inverse Cayley candidate (first_inverse_cayley),
    and the base point is graded one root_grading per imaginary basis root.
    """
    inv, _ = x
    table = ic.table
    while table.lengths[inv] > 0:
        kinds = table.kinds(inv)
        down = kinds.find(COMPLEX_DOWN)
        if down >= 0:
            x = ic.cross(down, x)
        else:
            for j, kind in enumerate(kinds):
                if kind == REAL:
                    cand = first_inverse_cayley(ic, j, table.status(inv, j)[1], x[1])
                    if cand is not None:
                        x = cand
                        break
            else:
                raise RuntimeError("strong involution admits no descent")
        inv = x[0]
    basis = ic.table.imaginary_basis(0)
    return ic._fundamental.form_at[tuple(ic.root_grading(x, k) for k in basis)]


def inverse_cayley(ic: InnerClass, j: int, x: StrongX) -> tuple[StrongX, ...]:
    """Valid inverse Cayley transforms through a real simple root.

    InnerClass.inverse_cayley until 8e0a084+, which left the library only
    its first candidate (first_inverse_cayley), found here afresh.  With
    d = denom and base = s_j t, these are the candidates (nbr, u), u =
    base + c alpha_j^v, at which alpha_j, simple imaginary at nbr, is
    noncompact: <alpha_j, u> = <alpha_j, base> + 2c = d/2 mod d
    (root_grading).  With r = d/2 - <alpha_j, base> mod d, that is no c
    when r is odd, else c = r/2 and r/2 + d/2, in that order.  So this is
    the scan of all d offsets: no compact candidate shares a key with
    these, as the key rows span alpha_j, theta-fixed at nbr.  Offsets c,
    c' give one key when c key(alpha_j^v) = c' key(alpha_j^v).  Every
    candidate squares into the class of x (InnerClass.real_form_of), so
    none is keyed.  Raises ValueError when j is not real at x.
    """
    inv, t = x
    kind, nbr = ic.table.status(inv, j)
    if kind != REAL:
        raise ValueError(f"simple root {j} is not real at involution {inv}")
    first = first_inverse_cayley(ic, j, nbr, t)
    if first is None:
        return ()
    d = ic.denom
    av = ic.rd.simple_coroots[j]
    # the offset r/2 + d/2 gives a second key unless (d/2) key(alpha_j^v) = 0
    if all(d // 2 * b % d == 0 for b in ic.x_key((nbr, av))[1]):
        return (first,)
    second = (nbr, lin.vec_mod(lin.vec_add(first[1], lin.vec_scale(av, d // 2)), d))
    if not ic.grading(second, j):
        raise RuntimeError("an inverse Cayley candidate is compact")
    return first, second


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


def reference_orbit_partition(ic, inv):
    """InnerClass._orbit_partition point by point: the reference.

    Every point of every fiber over inv (fiber_elements) is graded at
    every root of imaginary_basis(inv) by root_grading, and keyed by
    x_key; the reflection in a root noncompact at a point adds the key of
    (denom/2) times its coroot to the point's key, which names the image.
    """
    d = ic.denom
    basis = ic.table.imaginary_basis(inv)
    pos = ic.rd.positive_roots
    shifts = [ic.x_key((inv, lin.vec_scale(pos[k].covec, d // 2)))[1] for k in basis]
    out = []
    for key in ic._realized_keys:
        fiber = ic.fiber_elements(inv, key)
        fkeys = [ic.x_key((inv, t))[1] for t in fiber]
        index = {k: i for i, k in enumerate(fkeys)}
        points = [tuple(ic.root_grading((inv, t), k) for k in basis) for t in fiber]
        # images[i][g]: the image of member i under the g-th reflection
        images = [
            [index[lin.vec_mod(lin.vec_add(k, s), d)] if b else i for s, b in zip(shifts, p)]
            for i, (k, p) in enumerate(zip(fkeys, points))
        ]
        for comp in components(images):
            at = {i: m for m, i in enumerate(comp)}
            out.append((
                key,
                tuple((inv, fiber[i]) for i in comp),
                tuple(tuple(at[images[i][g]] for i in comp) for g in range(len(basis))),
                tuple(points[i] for i in comp),
            ))
    return out


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


def reference_imaginary_basis(table, i: int) -> list[int]:
    """Simple basis of the imaginary roots at involution i, scanned afresh
    on every call with the reflection test simple_basis used before its
    byte form: the reference for InvolutionTable.imaginary_basis."""
    theta = table.thetas[i]
    npos = len(table.reflections)
    imaginary = [k for k in range(npos) if theta[k] == k]
    pos = table.rd.positive_roots

    def key(k: int):
        c = pos[k].coeffs
        h = sum(c)
        return (h, c.index(1) if h == 1 else -1, c)

    basis = [
        k for k in imaginary
        if all(table.reflections[k][m] < npos for m in imaginary if m != k)
    ]
    return sorted(basis, key=key)


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
    side, side_pairs = _complex_factor(ic.table, inv)
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
    for x in ic.fundamental_orbits[orbit].members:
        key = ic.x_key(x)
        if key not in reps:
            reps[key] = x
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
            rep=x,
        ))
    return KGB(form=form, orbit=orbit, elements=tuple(elements), table=table)


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


# -- exceptional real forms, from Kac's classification ------------------------

# The Kac labels a_0, ..., a_n of the affine diagram of each exceptional
# type (Bourbaki numbering, a_0 at the added node), and the cycles of a
# generator of its symmetry group Omega, where Omega is not trivial.
_KAC_LABELS = {
    ("G", 2): ((1, 3, 2), ()),
    ("F", 4): ((1, 2, 3, 4, 2), ()),
    ("E", 6): ((1, 1, 2, 2, 3, 2, 1), ((0, 1, 6), (2, 3, 5))),
    ("E", 7): ((1, 2, 2, 3, 4, 3, 2, 1), ((0, 7), (1, 6), (3, 5))),
    ("E", 8): ((1, 2, 3, 4, 6, 5, 4, 3, 2), ()),
}
# labels of the twisted affine diagram of the outer inner class
_KAC_TWISTED_LABELS = {("E", 6): (1, 2, 3, 2, 1)}


def kac_weak_form_count(letter: str, rank: int, equal_rank: bool) -> int:
    """Number of weak real forms of a simple exceptional inner class.

    Involutions, the identity included, are labelled by nonnegative s on
    the affine nodes, up to Omega (see the table above).  In the equal
    rank class, sum a_i s_i = 2: s is 2e_i with a_i = 1, e_i with a_i =
    2, or e_i + e_j with a_i = a_j = 1.  In the outer class the twisted
    diagram's labels give sum a_i s_i = 1, one e_i per label 1.
    """
    if not equal_rank:
        return _KAC_TWISTED_LABELS[(letter, rank)].count(1)
    labels, cycles = _KAC_LABELS[(letter, rank)]
    nodes = range(len(labels))
    move = list(nodes)
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            move[a] = b
    # each s as the sorted tuple of its nodes, one entry per unit of s_i
    left = {(i,) for i in nodes if labels[i] == 2} | {
        (i, j) for i in nodes for j in nodes if i <= j and labels[i] == labels[j] == 1
    }
    count = 0
    while left:
        count += 1
        s = left.pop()
        while (s := tuple(sorted(move[i] for i in s))) in left:
            left.remove(s)
    return count


# -- KGB sizes, from the classification of K-orbits -----------------------


def clan_count(p: int, q: int) -> int:
    """Number of (p, q)-clans: the K-orbits on the flag variety of GL(p + q)
    for K = GL(p) x GL(q), so the KGB size of SU(p, q), simply connected.

    A clan of n = p + q pairs 2k of its n places by k arcs and signs the
    other n - 2k places, p - k of them +; so the count is the sum over k
    of C(n, 2k) (2k - 1)!! C(n - 2k, p - k) (see the table above).
    """
    n = p + q
    return sum(
        comb(n, 2 * k) * prod(range(1, 2 * k, 2)) * comb(n - 2 * k, p - k)
        for k in range(min(p, q) + 1)
    )


def involution_count(n: int) -> int:
    """Number of involutions of S_n, the identity included: the O(n)-orbits
    on the flag variety of GL(n), so the KGB size of SL(n, R) for odd n,
    where O(n) = SO(n) x {1, -1} and -1 acts trivially (see the table
    above).  An involution fixes n or swaps it with one of n - 1 others:
    a(n) = a(n - 1) + (n - 1) a(n - 2)."""
    a, b = 1, 1  # a(m - 1), a(m) at m = 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def richardson_class_count(rd) -> int:
    """Number of conjugacy classes of involutions of the Weyl group W of
    rd, the identity included, by Richardson's theorem (see the table
    above): they correspond to the W-classes of subsets J of the simple
    roots on whose span the longest element w_J of W_J acts as -1, that
    is, whose every component has -1 in its Weyl group; w_J is then the
    class's involution.  J and J' are W-equivalent when w Delta_J =
    Delta_J' for some w in W.  That holds exactly when w carries the root
    subsystem of J onto that of J', since the Weyl group of a subsystem
    moves any of its bases to any other; so each J is named by the set of
    positive roots of its subsystem, up to sign, and W, generated by the
    simple reflections, is run over those sets."""
    refl = vector_reflections(rd)
    npos = len(rd.positive_roots)
    simple = [rd.root_index[a] for a in rd.simple_roots]
    gens = [refl[s] for s in simple]

    def acts_as_minus_one(js):
        # the longest element of W_J sends every alpha_j, j in J, negative:
        # w.s_j is longer than w exactly when w alpha_j is positive
        w = tuple(range(2 * npos))
        while (j := next((j for j in js if w[simple[j]] < npos), None)) is not None:
            w = tuple(w[x] for x in gens[j])
        return all(w[simple[j]] == simple[j] + npos for j in js)

    def subsystem(js):
        return frozenset(
            k for k, r in enumerate(rd.positive_roots)
            if all(c == 0 for j, c in enumerate(r.coeffs) if j not in js)
        )

    n = len(simple)
    named = {
        subsystem(js) for size in range(n + 1) for js in map(set, combinations(range(n), size))
        if acts_as_minus_one(js)
    }
    count = 0
    while named:
        start = named.pop()
        count += 1
        orbit, stack = {start}, [start]
        while stack:
            roots = stack.pop()
            for g in gens:
                image = frozenset(x if x < npos else x - npos for x in map(g.__getitem__, roots))
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        named -= orbit
    return count
