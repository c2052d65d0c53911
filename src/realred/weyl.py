"""Weyl group words and twisted involutions.

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
A root subsystem is a sequence of positive-root indices; its simple
roots are read off the reflections (InvolutionTable.simple_basis), so it
too serves every isogeny.  The table keeps the imaginary and real roots
and the imaginary basis of each involution that a per-Cartan query
reads, and cartan keeps its class facts on it, once per table and class.
The twisted-conjugacy classes are joined along complex descents, which go
down in id, and each class's canonical member is reached by a walk along
complex cross actions, not by a scan of the class.  The inner-class
involution delta comes from the delta module, and the lattice data of
each twisted involution from the lattice module.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from functools import cache, cached_property
from typing import NamedTuple

from . import lin
from .delta import InnerClassInvolution
from .diagram import arms, components
from .rootdata import RootDatum

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

    Components of the Dynkin diagram of rd.cartan (diagram.components)
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


class TwistedClasses(NamedTuple):
    """The twisted-conjugacy classes of a table, built by
    InvolutionTable._class_record: the member ids of each class, the class
    of each id, and each class's canonical member."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    canonical: tuple[int, ...]


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
    ids.  status_row(i) is the row view, kinds(i) its letters alone, and
    status(i, j) reads one entry.
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
        # the positive root indices, which simple_basis and word_length delete
        self._positive = bytes(range(npos))
        self.thetas: list[bytes] = [theta0]
        self.lengths: list[int] = [0]
        self.index: dict[bytes, int] = {compose(theta0, self.simple): 0}
        self._words: dict[int, tuple[int, ...]] = {}
        self._reflection_words: dict[int, tuple[int, ...]] = {}
        # root subsystems by involution, filled where a per-Cartan query reads them
        self._imaginary: dict[int, tuple[int, ...]] = {}
        self._real: dict[int, tuple[int, ...]] = {}
        self._imaginary_bases: dict[int, tuple[int, ...]] = {}
        # cartan.ClassFacts by class index, built in cartan
        self._class_facts: dict[int, object] = {}
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
        n = len(self.simple)
        return tuple(zip(self.kinds(i), self._nbrs[i * n:(i + 1) * n]))

    def kinds(self, i: int) -> str:
        """The kinds of the simple roots at involution i, as one string."""
        if not 0 <= i < len(self.thetas):
            raise IndexError(f"no involution {i}")
        n = len(self.simple)
        return self._kinds[i * n:(i + 1) * n]

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

    def word_length(self, i: int) -> int:
        """Length of word(i), without building it: the count of positive
        roots that theta.delta sends negative, as many as theta's, since
        delta permutes the positive roots."""
        return len(self.thetas[i][:len(self.reflections)].translate(None, self._positive))

    def reflection_word(self, k: int) -> tuple[int, ...]:
        """Displayed reduced word of the reflection in positive root k."""
        out = self._reflection_words.get(k)
        if out is None:
            out = self._reflection_words[k] = normal_form_word(self, self.reflections[k])
        return out

    def imaginary_roots(self, i: int) -> tuple[int, ...]:
        """The positive roots fixed by theta_i, kept per involution."""
        out = self._imaginary.get(i)
        if out is None:
            out = self._imaginary[i] = self._roots(i, 0)
        return out

    def real_roots(self, i: int) -> tuple[int, ...]:
        """The positive roots negated by theta_i, kept per involution."""
        out = self._real.get(i)
        if out is None:
            out = self._real[i] = self._roots(i, len(self.reflections))
        return out

    def _roots(self, i: int, shift: int) -> tuple[int, ...]:
        """The positive roots k with theta_i[k] = k + shift, not kept: the
        imaginary ones for shift 0, the real ones for shift N.  The class
        walk reads them at every root of the descent forest."""
        theta = self.thetas[i]
        return tuple([k for k in range(len(self.reflections)) if theta[k] == k + shift])

    def simple_basis(self, ks: Sequence[int]) -> list[int]:
        """Simple roots of the subsystem on the positive roots ks, in input order.

        A root of ks is simple exactly when its reflection sends every other
        root of ks to a positive root: the count it sends to negative roots
        is its length in the subsystem's Weyl group, 1 only when simple.
        Each count is one translate of bytes(ks) through the reflection and
        one deletion of the positive indices.
        """
        images, positive = bytes(ks), self._positive
        return [
            k for k in ks
            if len(compose(self.reflections[k], images).translate(None, positive)) == 1
        ]

    def imaginary_basis(self, i: int) -> tuple[int, ...]:
        """Simple basis of the imaginary root subsystem, kept per involution.

        Ordered by height, with height-one roots in simple-root index
        order.
        """
        out = self._imaginary_bases.get(i)
        if out is not None:
            return out
        pos = self.rd.positive_roots

        def key(k: int):
            c = pos[k].coeffs
            h = sum(c)
            return (h, c.index(1) if h == 1 else -1, c)

        out = self._imaginary_bases[i] = tuple(
            sorted(self.simple_basis(self.imaginary_roots(i)), key=key)
        )
        return out

    def _two_rho_pairings(self, roots: Sequence[int]) -> list[int]:
        """Pairings of the sum of the given positive roots with the simple coroots."""
        vec = lin.zero_vector(self.rd.rank)
        for k in roots:
            vec = lin.vec_add(vec, self.rd.roots[k])
        return [lin.vec_dot(vec, av) for av in self.rd.simple_coroots]

    # -- classes -------------------------------------------------------

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Twisted-conjugacy classes in Cayley-transform discovery order,
        each in increasing id (_class_record)."""
        return self._class_record.classes

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        return self._class_record.class_of

    def canonical_member(self, class_idx: int) -> int:
        """Distinguished class member used for display and transforms.

        Among the members at which lambda, 2 rho of the positive real
        roots, is dominant, and mu, 2 rho of the positive imaginary roots,
        pairs nonnegatively with the simple coroots orthogonal to lambda,
        it is the one whose word is least by (length, word): the walk of
        _walk_canonical from any member, recorded by _class_record.
        """
        return self._class_record.canonical[class_idx]

    @cached_property
    def _class_record(self) -> TwistedClasses:
        """The classes, class_of and canonical members, in one pass in id order.

        Ids grow with the twisted length, and a complex cross action
        conjugates within a class, so an involution with a complex descent
        joins the class of that lower neighbour, the first one its status
        row names.  The involutions without one are the roots of this
        forest of complex descents; each root is named by its canonical
        member, which _walk_canonical finds from any start, and the roots
        with one name make one class.  Starting from the class of the base
        involution, each class in turn then contributes the unseen classes
        reached by single Cayley transforms from its canonical member,
        scanning its imaginary basis in order.  Raises RuntimeError when a
        descent does not go down in id, a root and its canonical member
        differ in their counts of real and imaginary roots, or a canonical
        member's own root is named by another member.
        """
        n = len(self.simple)
        nbrs, find = self._nbrs, self._kinds.find
        group: list[int] = []
        members: list[list[int]] = []
        canonical: list[int] = []
        by_canonical: dict[int, int] = {}
        for i in range(len(self.thetas)):
            p = find(COMPLEX_DOWN, i * n, i * n + n)
            if p < 0:
                c = self._walk_canonical(i)
                if self._root_counts(c) != self._root_counts(i):
                    raise RuntimeError(f"the canonical walk from {i} leaves its class")
                g = by_canonical.get(c)
                if g is None:
                    g = by_canonical[c] = len(members)
                    members.append([])
                    canonical.append(c)
            else:
                lower = nbrs[p]
                if lower >= i:
                    raise RuntimeError(f"the complex descent of involution {i} does not go down")
                g = group[lower]
            group.append(g)
            members[g].append(i)
        for g, c in enumerate(canonical):
            if group[c] != g:
                raise RuntimeError(f"canonical member {c} lies in the class of another")
        order = [0]
        seen = {0}
        for g in order:
            rep = canonical[g]
            for b in self.imaginary_basis(rep):
                h = group[self.cayley(rep, b)]
                if h not in seen:
                    seen.add(h)
                    order.append(h)
        if len(order) != len(members):
            raise RuntimeError("Cayley transforms do not reach every class")
        rank = [0] * len(order)
        for c, g in enumerate(order):
            rank[g] = c
        return TwistedClasses(
            tuple(tuple(members[g]) for g in order),
            tuple(map(rank.__getitem__, group)),
            tuple(canonical[g] for g in order),
        )

    def _root_counts(self, i: int) -> tuple[int, int]:
        """Counts of real and imaginary roots, invariants of the class of i."""
        return len(self._roots(i, len(self.reflections))), len(self._roots(i, 0))

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
        reaches every candidate, and the result is the same from every
        member of the class.  Candidates are compared by word_length first,
        so words are built only to break a tie at the least length.
        """
        js = range(len(self.simple))
        for shift in (len(self.reflections), 0):
            pairing = self._two_rho_pairings(self._roots(i, shift))
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
        lengths = [self.word_length(m) for m in cands]
        least = min(lengths)
        ties = [m for m, ln in zip(cands, lengths) if ln == least]
        return ties[0] if len(ties) == 1 else min(ties, key=self.word)

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
