"""Weyl group words and twisted involutions.

Roots are numbered as in RootDatum.roots: positive root k is k and its
negative is N + k.  A Weyl element, and so a twisted involution
theta = w.delta, has one form: the bytes of its 2N root images (2N <=
240 under the rank-8 cap), composed by compose, one bytes.translate.
Those permutations depend only on the Cartan matrix and the diagram
permutation of delta, so one table serves every isogeny of a Coxeter
datum.  Reduced words come from one walk (conjugacy._walk) on the n
pairings of w(2 rho) with the simple coroots, read off w once.  The
table enumerates all twisted involutions breadth-first, walking ascents
only; the search yields the twisted length and the status of every
simple root for free, and it dedupes by the simple-root images with one
dict per length, which it drops as it goes.  Its loop alone keeps
translate tables of its own (see InvolutionTable).  Ids of one length
are contiguous, so the root permutations of a length are kept as one
bytes block (Thetas), and no index by permutation is kept: a Cayley
transform is read off the status rows by a walk along cross actions
(InvolutionTable.cayley).  A root subsystem is a sequence of
positive-root indices; its simple roots are read off the reflections
(InvolutionTable.simple_basis), so it too serves every isogeny.  The
table keeps the imaginary and real roots and the imaginary basis of each
involution that a per-Cartan query reads, and cartan keeps its class
facts on it, once per table and class.  The twisted-conjugacy classes
come from the conjugacy module, the inner-class involution delta from
the delta module, and the lattice data of each twisted involution from
the lattice module.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from functools import cache, cached_property

from . import lin
from .conjugacy import (
    COMPLEX_DOWN,
    COMPLEX_UP,
    IMAGINARY,
    REAL,
    TwistedConjugacy,
    _reflect_pairing,
    _walk,
)
from .delta import InnerClassInvolution
from .diagram import arms, components, neighbours
from .rootdata import InputError, RootDatum


def compose(a: bytes, b: bytes) -> bytes:
    """a.b, with (a.b)[x] = a[b[x]]; b may also be any bytes of root indices."""
    return b.translate(a.ljust(256, b"\0"))


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

    Components of the Dynkin diagram of rd.cartan (diagram.neighbours,
    diagram.components) are taken in index order, each in the order of
    _component_chain.
    """
    adj = neighbours(rd.cartan)
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


class Thetas(Sequence):
    """The root permutations of a table's involutions, as a read-only
    sequence of bytes: thetas[i] is the 2N root images of involution i.

    Ids of one twisted length are contiguous, so the permutations of
    length L are one bytes block, blocks[L], from id starts[L] on, width
    = 2N bytes each, and thetas[i] is one slice of it: a bytes object
    per involution would cost a 33 B header and an 8 B list slot more.
    Items are built on each read; at(i) gives the block and offset
    without building one.  Like a list of bytes, it is equal to a list
    of the same items, and unhashable, and refuses item assignment.
    """

    __slots__ = ("blocks", "starts", "lengths", "width")

    def __init__(self, blocks: list[bytes], starts: list[int], lengths: list[int], width: int):
        self.blocks, self.starts, self.lengths, self.width = blocks, starts, lengths, width

    def at(self, i: int) -> tuple[bytes, int]:
        """The block holding theta_i and its offset there, for 0 <= i < len."""
        length = self.lengths[i]
        return self.blocks[length], (i - self.starts[length]) * self.width

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> bytes:
        # lengths[i] reads from the end for a negative i, and refuses one off the table
        length = self.lengths[i]
        o = (i % len(self.lengths) - self.starts[length]) * self.width
        return self.blocks[length][o:o + self.width]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, Thetas)):
            return list(self) == list(other)
        return NotImplemented


class InvolutionTable(TwistedConjugacy):
    """All twisted involutions of one Coxeter datum, with derived data.

    Records are indexed by discovery order of a breadth-first search
    from delta; the search depth is the twisted length, and the ids of
    one length are contiguous.  thetas[i] (the i-th involution),
    reflections[k] and simple are bytes of root indices (2N <= 240 under
    the rank-8 cap), composed by compose.  thetas is a read-only
    sequence (Thetas) over one bytes block per length.  Only the search
    loop keeps padded translate tables, one per generator and
    involution: a compose per edge took split E8 from 0.96 to 1.5-2.2 s
    and D7 s from 0.011 to 0.020 s.  The search keys each involution by
    its simple-root images, compose(theta, simple): theta is linear on
    the root lattice, so those n images fix the whole permutation.  It
    keeps one dict of keys per length, and only while it needs them
    (_enumerate).  No reader needs an index by key, since cayley walks
    the status rows instead; one would keep 96 B per involution of E7 s
    more, where the table keeps 181 B.

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
    complex neighbours join the members of each class (TwistedConjugacy).
    The rows are stored flat, written during the search: entry j of
    involution i is at i*n + j of one string of kind letters and one
    array of neighbour ids.  status_row(i) is the row view, kinds(i) its
    letters alone, and status(i, j) reads one entry.
    A torus (n = 0) has one empty row per involution.  simple[j] is the
    index of simple root j, and reflections[k] the reflection in positive
    root k, by the vector formula for simple k, and as
    s_j.reflections[k'].s_j otherwise, with k' = s_j[k] < k.  Such a
    simple j exists for a positive root beta that is not simple, since
    its coroot is a nonnegative sum of simple coroots and pairs to 2 with
    beta, so some <beta, alpha_j^v> > 0 and s_j beta is a positive root
    of lower height, which comes earlier in the height order of the
    positive roots.  _chains[k] lists the first such j for k, then for
    s_j k, and so on down to a simple root, and ends with the index of
    that simple root, which is all it holds for a simple k.  Roots are
    returned as positive-root indices, valid in every isogeny; rd is the
    root datum the table was built from, and may belong to another
    isogeny than the caller's.
    """

    def __init__(self, rd: RootDatum, perm: tuple[int, ...]):
        self.rd = rd
        pos = rd.positive_roots
        npos = len(pos)
        # delta permutes the simple-root coordinates of every root
        by_coeffs = {r.coeffs: k for k, r in enumerate(pos)}
        delta = [by_coeffs[tuple(r.coeffs[p] for p in perm)] for r in pos]
        self.simple = bytes(rd.root_index[a] for a in rd.simple_roots)
        self.reflections, self._chains = self._conjugated_reflections()
        # two_rho[r] = <2 rho, coroot of root r>, which depends on the Coxeter datum only
        rho2 = [sum(col) for col in zip(*(r.vec for r in pos))]
        heights = [lin.vec_dot(rho2, r.covec) for r in pos]
        self.two_rho = tuple(heights + [-h for h in heights])
        # the positive root indices, which simple_basis and word_length delete
        self._positive = bytes(range(npos))
        self._words: dict[int, tuple[int, ...]] = {}
        self._reflection_words: dict[int, tuple[int, ...]] = {}
        # root subsystems by involution, filled where a per-Cartan query reads them
        self._imaginary: dict[int, tuple[int, ...]] = {}
        self._real: dict[int, tuple[int, ...]] = {}
        self._imaginary_bases: dict[int, tuple[int, ...]] = {}
        # cartan.ClassFacts by class index, built in cartan
        self._class_facts: dict[int, object] = {}
        self._enumerate(bytes(delta + [k + npos for k in delta]))

    def _conjugated_reflections(self) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        rd, simple = self.rd, self.simple
        out: list[bytes] = []
        chains: list[bytes] = []
        for k, b in enumerate(rd.positive_roots):
            if k in simple:
                chains.append(bytes([simple.index(k)]))
                # s_beta v = v - <v, beta^v> beta
                out.append(bytes(
                    rd.root_index[lin.vec_sub(v, lin.vec_scale(b.vec, lin.vec_dot(v, b.covec)))]
                    for v in rd.roots
                ))
            else:
                j = next(j for j, s in enumerate(simple) if out[s][k] < k)
                sj = out[simple[j]]
                chains.append(bytes([j]) + chains[sj[k]])
                out.append(compose(sj, compose(out[sj[k]], sj)))
        return tuple(out), tuple(chains)

    # -- enumeration ---------------------------------------------------

    def _enumerate(self, theta0: bytes) -> None:
        """Sets thetas, lengths and the status rows, by the search from theta0.

        The ids of length L + 1 are handed out while those of length L
        are visited; their permutations, kept as bytes until L + 1 is
        visited, are joined into its block then.  Keys are deduped in the
        dict of L + 1 alone.  When L is done, its new keys are checked
        against the dicts of L and L - 1, the only two kept besides, and
        RuntimeError is raised if one is met there.  Keys of L - 2 and
        below cannot be met by any s_j.theta at a root fixed by theta or
        s_j.theta.s_j, ascent or descent: rho(theta) = (l(w) + e)/2, with
        l(w) the length of w = theta.delta^-1 and e the dimension of the
        -1 eigenspace of theta less that of delta, moves by at most one
        along each.  s_j.theta moves l(w) by one and e by one, and
        s_j.theta.s_j moves l(w) by 0 or 2 and keeps e.  rho is 0 at
        delta and rises by one along every ascent, so it is the search
        length.  A search with the right kinds walks only ascents, to
        L + 1; only a wrong kind or generator walks a descent, to L - 1,
        or a conjugation that fixes theta, to L.  An ascent raises l(w)
        by one or two, so no length exceeds N, and the search raises
        RuntimeError past it: a wrong generator that meets a key two or
        more lengths below then stops the search instead of looping on.
        """
        npos = len(self.reflections)
        n = len(self.simple)
        width = 2 * npos
        # bytes.translate takes a 256-byte table: a permutation of the 2N
        # root indices, padded
        pad = bytes(256 - width)
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
        blocks, starts, lengths = [], [], []
        # the involutions of the current length, and the keys of the
        # previous and the current length
        layer = [theta0]
        prev, cur = {}, {compose(theta0, simple): 0}
        # the next id to hand out
        count = 1
        while layer:
            starts.append(len(lengths))
            lengths += [len(blocks)] * len(layer)
            blocks.append(b"".join(layer))
            # the ids of the next length by key, and its involutions
            nxt, found = {}, []
            for i, theta in enumerate(layer, starts[-1]):
                tpad = theta + pad
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
                    tid = nxt.get(key)
                    if tid is None:
                        tid = nxt[key] = count
                        count += 1
                        found.append(
                            theta.translate(sjpad) if kind == imaginary
                            else sj.translate(tpad).translate(sjpad)
                        )
                        kinds += blank_kinds
                        nbrs += blank_nbrs
                    kinds[row + j] = kind
                    nbrs[row + j] = tid
                    kinds[tid * n + j] = back
                    nbrs[tid * n + j] = i
            if not (cur.keys().isdisjoint(nxt) and prev.keys().isdisjoint(nxt)):
                raise RuntimeError("a twisted involution is met at two lengths")
            if nxt and len(blocks) > npos:
                raise RuntimeError(f"the search runs past twisted length {npos}")
            prev, cur, layer = cur, nxt, found
        self.lengths = lengths
        self.thetas = Thetas(blocks, starts, lengths, width)
        self._kinds = kinds.decode("ascii")
        self._nbrs = nbrs

    def __len__(self) -> int:
        return len(self.lengths)

    # -- per-involution derived data -----------------------------------

    def status_row(self, i: int) -> tuple[tuple[str, int], ...]:
        """Per simple root: (kind, neighbour id)."""
        n = len(self.simple)
        return tuple(zip(self.kinds(i), self._nbrs[i * n:(i + 1) * n]))

    def _id(self, i: int, count: int | None = None, what: str = "involution") -> int:
        """i, when it numbers an involution of the table, or else one of
        count things that what names.  Raises IndexError otherwise, one
        type test and one range test: a negative i would read the rows,
        thetas, roots or classes from the end, a bool, equal to an int, or a
        float its row or a cached entry, and a str or None would raise a
        bare TypeError."""
        if type(i) is not int or not 0 <= i < (len(self.lengths) if count is None else count):
            raise IndexError(f"no {what} {i}")
        return i

    def kinds(self, i: int) -> str:
        """The kinds of the simple roots at involution i, as one string."""
        n = len(self.simple)
        return self._kinds[self._id(i) * n:(i + 1) * n]

    def status(self, i: int, j: int) -> tuple[str, int]:
        """(kind, neighbour id) of simple root j at involution i."""
        n = len(self.simple)
        p = self._id(i) * n + self._id(j, n, "simple root")
        return self._kinds[p], self._nbrs[p]

    def cayley(self, i: int, k: int) -> int:
        """Id of s_k.theta_i, for a positive root k imaginary at i, read
        off the status rows in O(height of k) steps.

        Take a simple j with s_j k < k, and put theta' = s_j.theta.s_j
        and k' = s_j k.  theta' is the cross action of j at i when j is
        complex at i, and theta itself when j is imaginary or real there,
        since theta then commutes with s_j.  theta' alpha_k' = s_j theta
        alpha_k, so k' is imaginary at theta' exactly when k is at theta,
        and s_k'.theta' = s_j.s_k.s_j.s_j.theta.s_j = s_j.(s_k.theta).s_j.
        So the walk steps down the chain of k (_chains) to a simple root,
        reads the Cayley transform there off the status row, and walks
        back up the chain by the cross actions of the targets, which undo
        the conjugations in reverse order.  The kind at the simple root
        is the kind of k at i.  Raises IndexError when i or k is off the
        table, and InputError when k is not imaginary at i.
        """
        chain = self._chains[self._id(k, len(self.reflections), "positive root")]
        kinds, nbrs, n = self._kinds, self._nbrs, len(self.simple)
        complex_kinds = (COMPLEX_UP, COMPLEX_DOWN)
        t = self._id(i)
        for j in chain[:-1]:
            p = t * n + j
            if kinds[p] in complex_kinds:
                t = nbrs[p]
        p = t * n + chain[-1]
        if kinds[p] != IMAGINARY:
            raise InputError(f"positive root {k} is not imaginary at involution {i}")
        t = nbrs[p]
        for j in reversed(chain[:-1]):
            p = t * n + j
            if kinds[p] in complex_kinds:
                t = nbrs[p]
        return t

    def word(self, i: int) -> tuple[int, ...]:
        """Displayed reduced word of w = theta.delta, delta being an involution."""
        out = self._words.get(self._id(i))
        if out is None:
            out = self._words[i] = normal_form_word(
                self, compose(self.thetas[i], self.thetas[0])
            )
        return out

    def word_length(self, i: int) -> int:
        """Length of word(i), without building it: the count of positive
        roots that theta.delta sends negative, as many as theta's, since
        delta permutes the positive roots."""
        block, o = self.thetas.at(self._id(i))
        return len(block[o:o + len(self.reflections)].translate(None, self._positive))

    def reflection_word(self, k: int) -> tuple[int, ...]:
        """Displayed reduced word of the reflection in positive root k."""
        out = self._reflection_words.get(self._id(k, len(self.reflections), "positive root"))
        if out is None:
            out = self._reflection_words[k] = normal_form_word(self, self.reflections[k])
        return out

    def imaginary_roots(self, i: int) -> tuple[int, ...]:
        """The positive roots fixed by theta_i, kept per involution."""
        out = self._imaginary.get(self._id(i))
        if out is None:
            out = self._imaginary[i] = self._roots(i, 0)
        return out

    def real_roots(self, i: int) -> tuple[int, ...]:
        """The positive roots negated by theta_i, kept per involution."""
        out = self._real.get(self._id(i))
        if out is None:
            out = self._real[i] = self._roots(i, len(self.reflections))
        return out

    def _roots(self, i: int, shift: int) -> tuple[int, ...]:
        """The positive roots k with theta_i[k] = k + shift, not kept: the
        imaginary ones for shift 0, the real ones for shift N.  The class
        walk reads them at every root of the descent forest."""
        npos = len(self.reflections)
        block, o = self.thetas.at(i)
        theta = block[o:o + npos]
        return tuple([k for k in range(npos) if theta[k] == k + shift])

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
        out = self._imaginary_bases.get(self._id(i))
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

    # -- classes -------------------------------------------------------

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Twisted-conjugacy classes in Cayley-transform discovery order,
        each in increasing id (_class_record)."""
        return self._class_record.classes


_TABLES: dict[tuple, InvolutionTable] = {}


def involution_table(delta: InnerClassInvolution) -> InvolutionTable:
    """The table of delta's Coxeter datum, built once and shared by all isogenies."""
    key = (delta.rd.cartan, delta.perm)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = InvolutionTable(delta.rd, delta.perm)
    return table
