"""Weyl group words, inner-class involutions, and twisted involutions.

Roots are numbered as in RootDatum.roots: positive root k is k and its
negative is N + k.  A Weyl element, and so a twisted involution
theta = w.delta, has one form: the bytes of its 2N root images (2N <=
240 under the rank-8 cap), composed by compose, one bytes.translate.
Those permutations depend only on the Cartan matrix and the diagram
permutation of delta, so one table serves every isogeny of a Coxeter
datum.  Reduced words come from one walk (_walk) on the n pairings of
w(2 rho) with the simple coroots, read off w once.  The table
enumerates all twisted involutions breadth-first, walking ascents only
and keying each involution by its simple-root images; the search yields
the twisted length and the status of every simple root for free.  Its
loop alone keeps translate tables of its own (see InvolutionTable).
A root subsystem is a list of positive-root indices; its simple roots
are read off the reflections (InvolutionTable.simple_basis), so it too
serves every isogeny.
The twisted-conjugacy classes are the components of the graph of complex
cross actions, and each class's canonical member is reached by a walk
along them, not by a scan of the class.  Lattice matrices of involutions
belong to involution.InnerClass.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from functools import cache, cached_property
from typing import NamedTuple

from . import lin
from .rootdata import Factor, InputError, LieType, RootDatum, arms, components

INCOMPATIBLE = "sorry, that inner class is not compatible with the weight lattice"

IMAGINARY = "i"
REAL = "r"
COMPLEX_UP = "+"
COMPLEX_DOWN = "-"


def compose(a: bytes, b: bytes) -> bytes:
    """a.b, with (a.b)[x] = a[b[x]]; b may also be any bytes of root indices."""
    return b.translate(a.ljust(256, b"\0"))


def _walk(cartan: lin.Matrix, pairing: list[int], js: Sequence[int]) -> list[int]:
    """Reflects pairing, the <v, alpha_k^v> of some v, in place at the
    first j in js with pairing[j] < 0 until none is left; returns the j."""
    letters = []
    while True:
        for j in js:
            if pairing[j] < 0:
                break
        else:
            return letters
        letters.append(j)
        _reflect_pairing(cartan, pairing, j)


def _reflect_pairing(cartan: lin.Matrix, pairing: list[int], j: int) -> None:
    # <s_j v, alpha_k^v> = <v, alpha_k^v> - <v, alpha_j^v> <alpha_j, alpha_k^v>
    c = pairing[j]
    for k, a in enumerate(cartan[j]):
        pairing[k] -= c * a


def _pairings(table: InvolutionTable, w: bytes) -> list[int]:
    """<w(2 rho), alpha_j^v> = <2 rho, w^-1 alpha_j^v> per simple j: negative
    exactly at the left descents of w, and, 2 rho being regular, fixing w."""
    return [table.two_rho[w.index(s)] for s in table.simple]


def word_from_matrix(table: InvolutionTable, w: bytes) -> tuple[int, ...]:
    """Lexicographically least reduced word, by greedy least left descent.

    w is a Weyl element as the bytes of its root images.  Each step strips
    the least left descent j, replacing w by s_j.w, which moves w(2 rho)
    by s_j (_walk).  The name is from when w was a matrix; the benchmark's
    traced pass binds it, and normal_form_word, by name.
    """
    return tuple(_walk(table.rd.cartan, _pairings(table, w), range(len(table.simple))))


@cache
def piece_chain(rd: RootDatum) -> tuple[int, ...]:
    """Generator ordering used for the piecewise word normal form.

    Components of the Dynkin diagram of rd.cartan (rootdata.components)
    are taken in index order, each in the order of _component_chain.
    """
    n = rd.semisimple_rank
    adj = [[j for j in range(n) if j != i and rd.cartan[i][j]] for i in range(n)]
    return tuple(j for comp in components(adj) for j in _component_chain(comp, adj))


def _component_chain(comp: list[int], adj: list[list[int]]) -> list[int]:
    """Order of one component: for type D the larger fork tip, the joint,
    the other tip, then down the tail; other types keep index order."""
    forks = [v for v in comp if len(adj[v]) == 3]
    if not forks:
        return comp
    legs = sorted(arms(forks[0], adj), key=lambda arm: (len(arm), arm[0]))
    if len(legs[1]) > 1:
        return comp
    tips = sorted((legs[0][0], legs[1][0]))
    return [tips[1], forks[0], tips[0]] + legs[2]


def normal_form_word(table: InvolutionTable, w: bytes) -> tuple[int, ...]:
    """Reduced word as a product of minimal parabolic-coset pieces.

    w is a Weyl element as the bytes of its root images.
    Writes w = x_1...x_n with x_k of minimal length in W_{k-1}\\W_k for
    the parabolic chain along piece_chain, then concatenates the least
    words of the pieces, all by walks on the pairings of w(2 rho): the
    walk over W_{k-1} strips u from w = u.x_k, leaving x_k's pairings for
    its least word, and u's are 2 rho reflected by u's letters.  Raises
    RuntimeError unless the word, applied to 2 rho, gives w's pairings.
    """
    cartan = table.rd.cartan
    chain = piece_chain(table.rd)
    n = len(chain)
    target = _pairings(table, w)
    pairing = list(target)
    pieces = []
    for pos in range(n - 1, -1, -1):
        u = _walk(cartan, pairing, chain[:pos])
        pieces.append(_walk(cartan, pairing, range(n)))
        pairing = _act(cartan, u)
    word = tuple(j for piece in reversed(pieces) for j in piece)
    if _act(cartan, word) != target:
        raise RuntimeError("normal form pieces do not multiply back to w")
    return word


def _act(cartan: lin.Matrix, word: Sequence[int]) -> list[int]:
    """Pairings of s_{word[0]}...s_{word[-1]}(2 rho) with the simple coroots."""
    pairing = [2] * len(cartan)
    for j in reversed(word):
        _reflect_pairing(cartan, pairing, j)
    return pairing


class InnerClassInvolution(NamedTuple):
    """A based involution delta of the character lattice.

    units records how the letters consumed the internal factors: each
    entry is (letter, factor indices), with two indices for a complex
    pair.
    """

    letters: str
    rd: RootDatum
    lt: LieType
    matrix: lin.Matrix
    perm: tuple[int, ...]
    units: tuple[tuple[str, tuple[int, ...]], ...]


def _opposition_perm(f: Factor) -> tuple[int, ...]:
    """Action of -w0 on the simple roots of one factor."""
    if f.letter == "A" or (f.letter == "D" and f.rank % 2) or (f.letter, f.rank) == ("E", 6):
        return _diagram_auto_perm(f)
    return tuple(range(f.rank))


def _diagram_auto_perm(f: Factor) -> tuple[int, ...]:
    """Diagram automorphism of one factor, the identity for A1; raises
    InputError for the types without one."""
    n = f.rank
    if f.letter == "A":
        return tuple(range(n - 1, -1, -1))
    if f.letter == "D":
        return tuple(range(n - 2)) + (n - 1, n - 2)
    if f.letter == "E" and n == 6:
        return (5, 1, 4, 3, 2, 0)
    raise InputError(f"no unequal-rank involution for type {f}")


def parse_units(letters: str, lt: LieType) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Matches inner-class letters against the internal factors."""
    letters = letters.strip()
    units = []
    i = 0
    for ch in letters:
        if ch not in "cesuC":
            raise InputError(f"unknown inner class letter {ch!r}")
        if i >= len(lt.factors):
            raise InputError("too many inner class letters")
        f = lt.factors[i]
        if ch == "C":
            if i + 1 >= len(lt.factors) or lt.factors[i + 1] != f:
                raise InputError("C requires a pair of identical factors")
            units.append(("C", (i, i + 1)))
            i += 2
        else:
            if ch == "u" and _diagram_auto_perm(f) == tuple(range(f.rank)):
                raise InputError(f"no unequal-rank involution for type {f}")
            units.append((ch, (i,)))
            i += 1
    if i != len(lt.factors):
        raise InputError("too few inner class letters")
    return tuple(units)


def inner_class_involution(letters: str, rd: RootDatum, lt: LieType) -> InnerClassInvolution:
    """Builds the based involution for an inner-class letter string.

    Raises InputError when the involution does not preserve the
    character lattice of the quotient group.
    """
    units = parse_units(letters, lt)
    n = lt.rank
    mat = [[0] * n for _ in range(n)]
    # perm acts on the simple roots, numbered factor by factor like units
    perm: list[int] = []
    for letter, fids in units:
        f = lt.factors[fids[0]]
        if letter == "C":
            i1, i2 = fids
            off1, off2 = lt.coord_offsets[i1], lt.coord_offsets[i2]
            for k in range(f.rank):
                mat[off2 + k][off1 + k] = 1
                mat[off1 + k][off2 + k] = 1
            if f.letter != "T":
                base = len(perm)
                perm.extend(range(base + f.rank, base + 2 * f.rank))
                perm.extend(range(base, base + f.rank))
            continue
        off = lt.coord_offsets[fids[0]]
        if f.letter == "T":
            mat[off][off] = -1 if letter == "s" else 1
        else:
            if letter == "u":
                p = _diagram_auto_perm(f)
            elif letter == "s":
                p = _opposition_perm(f)
            else:
                p = tuple(range(f.rank))
            base = len(perm)
            perm.extend(base + q for q in p)
            for k in range(f.rank):
                mat[off + p[k]][off + k] = 1
    delta_sc = lin.freeze(mat)
    if rd.basis == lin.identity(n):
        delta = delta_sc
    else:
        # basis^T delta = delta_sc basis^T, one column of delta at a time
        bt = lin.transpose(rd.basis)
        sf = lin.smith_form(bt)
        cols = [lin.solve_int(sf, col) for col in lin.transpose(lin.mat_mul(delta_sc, bt))]
        if None in cols:
            raise InputError(INCOMPATIBLE)
        delta = lin.transpose(cols)
    if lin.mat_mul(delta, delta) != lin.identity(n):
        raise RuntimeError("the inner-class involution does not square to 1")
    for i, p in enumerate(perm):
        if lin.mat_vec(delta, rd.simple_roots[i]) != rd.simple_roots[p]:
            raise RuntimeError("the inner-class involution does not permute the simple roots")
    return InnerClassInvolution(letters.strip(), rd, lt, delta, tuple(perm), units)


class InvolutionTable:
    """All twisted involutions of one Coxeter datum, with derived data.

    Records are indexed by discovery order of a breadth-first search
    from delta; the search depth is the twisted length.  thetas[i] (the
    i-th involution), reflections[k] and simple are bytes of root
    indices (2N <= 240 under the rank-8 cap), composed by compose.  Only
    the search loop keeps padded translate tables, one per generator and
    involution: a compose per edge took split E8 from 0.96 to 1.5-2.2 s
    and D7 s from 0.011 to 0.020 s.  index keys each involution by its
    simple-root images, compose(theta, simple): theta is linear on the
    root lattice, so those n images fix the whole permutation.

    The search walks ascents only.  From each involution i it follows
    the simple roots j imaginary at i (the Cayley transform s_j.theta)
    and complex up at i (the cross action s_j.theta.s_j), each one
    length up, and records at the target the reverse entry: j is real
    there, or complex down, with neighbour i.  Descents discover
    nothing: ids are taken in order, so every length is finished before
    the next one starts, and every involution at length L >= 1 has a
    descent, whose lower end sits at length L-1, was processed earlier
    and reached it by the matching ascent.  So every involution is
    found at its length, and every real or complex-down entry of every
    status row is filled from the lower end.

    The status row of an involution gives, per simple root, its kind and
    the neighbour reached by the cross action or Cayley transform; the
    complex neighbours join the members of each class.  The rows are
    stored flat, written during the search: entry j of involution i is
    at i*n + j of one string of kind letters and one array of neighbour
    ids.  status_row(i) is the row view; status(i, j) reads one entry.
    A torus (n = 0) has one empty row per involution.  simple[j] is the
    index of simple root j, and reflections[k] the reflection in positive
    root k, by the vector formula for simple k, and as
    s_j.reflections[k'].s_j otherwise, with k' = s_j[k] < k.  Such a
    simple j exists for a positive root beta that is not simple, since
    its coroot is a nonnegative sum of simple coroots and pairs to 2 with
    beta, so some <beta, alpha_j^v> > 0 and s_j beta is a positive root
    of lower height, which comes earlier in the height order of the
    positive roots.  Roots are returned as positive-root indices, valid
    in every isogeny; rd is the root datum the table was built from, and
    may belong to another isogeny than the caller's.
    """

    def __init__(self, rd: RootDatum, perm: tuple[int, ...]):
        self.rd = rd
        pos = rd.positive_roots
        npos = len(pos)
        # delta permutes the simple-root coordinates of every root
        by_coeffs = {r.coeffs: k for k, r in enumerate(pos)}
        delta = [by_coeffs[tuple(r.coeffs[p] for p in perm)] for r in pos]
        self.simple = bytes(rd.root_index[a] for a in rd.simple_roots)
        self.reflections = self._conjugated_reflections()
        # two_rho[r] = <2 rho, coroot of root r>, which depends on the Coxeter datum only
        rho2 = [sum(col) for col in zip(*(r.vec for r in pos))]
        heights = [lin.vec_dot(rho2, r.covec) for r in pos]
        self.two_rho = tuple(heights + [-h for h in heights])
        theta0 = bytes(delta + [k + npos for k in delta])
        self.thetas: list[bytes] = [theta0]
        self.lengths: list[int] = [0]
        self.index: dict[bytes, int] = {compose(theta0, self.simple): 0}
        self._words: dict[int, tuple[int, ...]] = {}
        self._reflection_words: dict[int, tuple[int, ...]] = {}
        self._enumerate()

    def _conjugated_reflections(self) -> tuple[bytes, ...]:
        rd = self.rd
        out: list[bytes] = []
        for k, b in enumerate(rd.positive_roots):
            if k in self.simple:
                # s_beta v = v - <v, beta^v> beta
                out.append(bytes(
                    rd.root_index[lin.vec_sub(v, lin.vec_scale(b.vec, lin.vec_dot(v, b.covec)))]
                    for v in rd.roots
                ))
            else:
                sj = next(out[s] for s in self.simple if out[s][k] < k)
                out.append(compose(sj, compose(out[sj[k]], sj)))
        return tuple(out)

    # -- enumeration ---------------------------------------------------

    def _enumerate(self) -> None:
        npos = len(self.reflections)
        n = len(self.simple)
        thetas, lengths, index = self.thetas, self.lengths, self.index
        # bytes.translate takes a 256-byte table: a permutation of the 2N
        # root indices, padded
        pad = bytes(256 - 2 * npos)
        simple = self.simple
        # per simple j: its root s, s_j, s_j padded, and s_j of every simple root
        gens = []
        for s in simple:
            sj = self.reflections[s]
            gens.append((s, sj, sj + pad, compose(sj, simple)))
        up, down, imaginary, real = (ord(k) for k in (COMPLEX_UP, COMPLEX_DOWN, IMAGINARY, REAL))
        # the flat status rows, one blank row per involution found
        blank_kinds, blank_nbrs = bytearray(n), array("i", [0] * n)
        kinds, nbrs = blank_kinds[:], blank_nbrs[:]
        # new ids are appended while the loop runs and visited in turn
        for i, theta in enumerate(thetas):
            tpad = theta + pad
            tl = lengths[i] + 1
            row = i * n
            for j, (s, sj, sjpad, moved) in enumerate(gens):
                a = theta[s]
                if a == s:
                    # the Cayley transform s_j.theta, at which j is real
                    kind, back, images = imaginary, real, simple
                elif a < npos:
                    # the cross action s_j.theta.s_j, at which j is complex down
                    kind, back, images = up, down, moved
                else:
                    continue
                key = images.translate(tpad).translate(sjpad)
                tid = index.get(key)
                if tid is None:
                    tid = index[key] = len(thetas)
                    thetas.append(
                        theta.translate(sjpad) if kind == imaginary
                        else sj.translate(tpad).translate(sjpad)
                    )
                    lengths.append(tl)
                    kinds += blank_kinds
                    nbrs += blank_nbrs
                elif lengths[tid] != tl:
                    raise RuntimeError("a twisted involution is met at two lengths")
                kinds[row + j] = kind
                nbrs[row + j] = tid
                kinds[tid * n + j] = back
                nbrs[tid * n + j] = i
        self._kinds = kinds.decode("ascii")
        self._nbrs = nbrs

    def __len__(self) -> int:
        return len(self.thetas)

    # -- per-involution derived data -----------------------------------

    def status_row(self, i: int) -> tuple[tuple[str, int], ...]:
        """Per simple root: (kind, neighbour id)."""
        if not 0 <= i < len(self.thetas):
            raise IndexError(f"no involution {i}")
        n = len(self.simple)
        p = i * n
        return tuple(zip(self._kinds[p:p + n], self._nbrs[p:p + n]))

    def status(self, i: int, j: int) -> tuple[str, int]:
        """(kind, neighbour id) of simple root j at involution i."""
        n = len(self.simple)
        if not 0 <= j < n:
            raise IndexError(f"no simple root {j}")
        p = i * n + j
        return self._kinds[p], self._nbrs[p]

    def cayley(self, i: int, k: int) -> int:
        """Id of s_k.theta_i, for a positive root k imaginary at i."""
        return self.index[compose(self.reflections[k], compose(self.thetas[i], self.simple))]

    def word(self, i: int) -> tuple[int, ...]:
        """Displayed reduced word of w = theta.delta, delta being an involution."""
        out = self._words.get(i)
        if out is None:
            out = self._words[i] = normal_form_word(self, compose(self.thetas[i], self.thetas[0]))
        return out

    def reflection_word(self, k: int) -> tuple[int, ...]:
        """Displayed reduced word of the reflection in positive root k."""
        out = self._reflection_words.get(k)
        if out is None:
            out = self._reflection_words[k] = normal_form_word(self, self.reflections[k])
        return out

    def imaginary_roots(self, i: int) -> list[int]:
        theta = self.thetas[i]
        return [k for k in range(len(self.reflections)) if theta[k] == k]

    def real_roots(self, i: int) -> list[int]:
        theta = self.thetas[i]
        npos = len(self.reflections)
        return [k for k in range(npos) if theta[k] == k + npos]

    def simple_basis(self, ks: Sequence[int]) -> list[int]:
        """Simple roots of the subsystem on the positive roots ks, in input order.

        A root of ks is simple exactly when its reflection sends every other
        root of ks to a positive root: the count it sends to negative roots
        is its length in the subsystem's Weyl group, 1 only when simple.
        """
        npos = len(self.reflections)
        return [k for k in ks if all(self.reflections[k][m] < npos for m in ks if m != k)]

    def imaginary_basis(self, i: int) -> list[int]:
        """Simple basis of the imaginary root subsystem.

        Ordered by height, with height-one roots in simple-root index
        order.
        """
        pos = self.rd.positive_roots

        def key(k: int):
            c = pos[k].coeffs
            h = sum(c)
            return (h, c.index(1) if h == 1 else -1, c)

        return sorted(self.simple_basis(self.imaginary_roots(i)), key=key)

    def _two_rho_pairings(self, roots: list[int]) -> list[int]:
        """Pairings of the sum of the given positive roots with the simple coroots."""
        vec = lin.zero_vector(self.rd.rank)
        for k in roots:
            vec = lin.vec_add(vec, self.rd.roots[k])
        return [lin.vec_dot(vec, av) for av in self.rd.simple_coroots]

    # -- classes -------------------------------------------------------

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Twisted-conjugacy classes in Cayley-transform discovery order.

        Complex cross actions conjugate within a class and join all of
        it, so the classes are the components (rootdata.components) of
        the complex neighbours of the status rows, each in increasing id.
        Starting from the class of the base involution, each class in
        turn contributes the unseen classes reached by single Cayley
        transforms from its canonical member, scanning its imaginary
        basis in order.  The canonical member comes from a walk from the
        class's least member (_walk_canonical) and is recorded here for
        canonical_member.
        """
        n = len(self.simple)
        adj: list[list[int]] = [[] for _ in self.thetas]
        for p, kind in enumerate(self._kinds):
            if kind in (COMPLEX_UP, COMPLEX_DOWN):
                adj[p // n].append(self._nbrs[p])
        comps = components(adj)
        comp_of = [0] * len(self.thetas)
        for c, comp in enumerate(comps):
            for i in comp:
                comp_of[i] = c
        order = [0]
        seen = {0}
        canonical = [self._walk_canonical(0)]
        for rep in canonical:
            for b in self.imaginary_basis(rep):
                c = comp_of[self.cayley(rep, b)]
                if c not in seen:
                    seen.add(c)
                    order.append(c)
                    canonical.append(self._walk_canonical(comps[c][0]))
        if len(order) != len(comps):
            raise RuntimeError("Cayley transforms do not reach every class")
        self._canonical = tuple(canonical)
        return tuple(tuple(comps[c]) for c in order)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * len(self.thetas)
        for ci, ids in enumerate(self.classes):
            for i in ids:
                out[i] = ci
        return tuple(out)

    def canonical_member(self, class_idx: int) -> int:
        """Distinguished class member used for display and transforms.

        Among the members at which lambda, 2 rho of the positive real
        roots, is dominant, and mu, 2 rho of the positive imaginary roots,
        pairs nonnegatively with the simple coroots orthogonal to lambda,
        it is the one whose word is least by (length, word); classes
        finds it.
        """
        self.classes  # records _canonical
        return self._canonical[class_idx]

    def _walk_canonical(self, i: int) -> int:
        """Canonical member of the class of i, by a walk from i.

        A complex cross action at j moves lambda and mu by s_j, since s_j
        permutes the positive roots other than alpha_j.  Moving at a j
        with lambda_j < 0 raises lambda in the dominance order until it
        is dominant; then moving at a j with lambda_j = 0 > mu_j does the
        same for mu and fixes lambda.  Such a j is complex: a real simple
        root pairs to 2 with lambda and to 0 with mu, an imaginary one to
        0 and 2.  If theta_2 = w theta_1 w^-1 and both give (lambda, mu),
        w may be taken to carry the positive real and imaginary roots of
        theta_1 to those of theta_2, since W(real) x W(imaginary)
        centralizes theta_2; then w fixes lambda and mu, so it lies in the
        parabolic W_J, J the simple roots with lambda_j = mu_j = 0.  Each
        j in J is complex and keeps (lambda, mu), so the search through J
        reaches every candidate.
        """
        js = range(len(self.simple))
        for roots in (self.real_roots, self.imaginary_roots):
            pairing = self._two_rho_pairings(roots(i))
            for j in _walk(self.rd.cartan, pairing, js):
                i = self._complex_neighbour(i, j)
            js = [j for j in js if pairing[j] == 0]
        cands = [i]
        seen = {i}
        for m in cands:
            for j in js:
                nbr = self._complex_neighbour(m, j)
                if nbr not in seen:
                    seen.add(nbr)
                    cands.append(nbr)
        return min(cands, key=lambda m: (len(self.word(m)), self.word(m)))

    def _complex_neighbour(self, i: int, j: int) -> int:
        kind, nbr = self.status(i, j)
        if kind not in (COMPLEX_UP, COMPLEX_DOWN):
            raise RuntimeError(f"simple root {j} is not complex at involution {i}")
        return nbr


_TABLES: dict[tuple, InvolutionTable] = {}


def involution_table(delta: InnerClassInvolution) -> InvolutionTable:
    """The table of delta's Coxeter datum, built once and shared by all isogenies."""
    key = (delta.rd.cartan, delta.perm)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = InvolutionTable(delta.rd, delta.perm)
    return table
