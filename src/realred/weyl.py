"""Weyl group words, inner-class involutions, and twisted involutions.

A twisted involution is stored through its involution matrix
theta = M_w . delta acting on characters; theta determines w.  The table
enumerates all twisted involutions breadth-first, which yields the
twisted length for free, and groups them into twisted-conjugacy classes.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property

from . import lin
from .rootdata import Factor, InputError, LieType, Root, RootDatum, simple_basis

INCOMPATIBLE = "sorry, that inner class is not compatible with the weight lattice"

IMAGINARY = "i"
REAL = "r"
COMPLEX_UP = "+"
COMPLEX_DOWN = "-"


@dataclass(frozen=True)
class WeylElt:
    """A Weyl group element in lexicographically least reduced form."""

    word: tuple[int, ...]
    matrix: lin.Matrix

    @property
    def length(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return ",".join(str(j + 1) for j in self.word)


def word_from_matrix(rd: RootDatum, m: lin.Matrix, minv: lin.Matrix) -> tuple[int, ...]:
    """Lexicographically least reduced word, by greedy least left descent."""
    ident = lin.identity(rd.rank)
    word = []
    while m != ident:
        j = next(
            j for j in range(rd.semisimple_rank)
            if rd.root_index[lin.mat_vec(minv, rd.simple_roots[j])] < 0
        )
        word.append(j)
        s = rd.reflections[j]
        m = lin.mat_mul(s, m)
        minv = lin.mat_mul(minv, s)
    return tuple(word)


@cache
def piece_chain(rd: RootDatum) -> tuple[int, ...]:
    """Generator ordering used for the piecewise word normal form.

    Components are taken in index order.  Within a fork component (type
    D) the chain starts at the larger fork tip, then the joint, then the
    other tip, then down the tail; other components keep index order.
    """
    n = rd.semisimple_rank
    adj = [
        [j for j in range(n) if j != i and rd.cartan[i][j] != 0]
        for i in range(n)
    ]
    seen = [False] * n
    chain: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        for v in comp:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comp.sort()
        chain.extend(_component_chain(comp, adj))
    return tuple(chain)


def _component_chain(comp: list[int], adj: list[list[int]]) -> list[int]:
    forks = [v for v in comp if len(adj[v]) == 3]
    if not forks:
        return comp
    joint = forks[0]
    arms = []
    for first in adj[joint]:
        arm = [first]
        prev = joint
        while True:
            nxt = [u for u in adj[arm[-1]] if u != prev]
            if not nxt:
                break
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    arms.sort(key=lambda arm: (len(arm), arm[0]))
    if len(arms[1]) > 1:
        return comp
    tips = sorted((arms[0][0], arms[1][0]))
    return [tips[1], joint, tips[0]] + arms[2]


def normal_form_word(rd: RootDatum, m: lin.Matrix, minv: lin.Matrix) -> tuple[int, ...]:
    """Reduced word as a product of minimal parabolic-coset pieces.

    Writes w = x_1...x_n with x_k of minimal length in W_{k-1}\\W_k for
    the parabolic chain along piece_chain(rd), then concatenates the
    least words of the pieces.
    """
    chain = piece_chain(rd)
    pieces = []
    for pos in range(len(chain) - 1, -1, -1):
        allowed = chain[:pos]
        xm, xminv = m, minv
        stripped = True
        while stripped:
            stripped = False
            for s in allowed:
                if rd.root_index[lin.mat_vec(xminv, rd.simple_roots[s])] < 0:
                    refl = rd.reflections[s]
                    xm = lin.mat_mul(refl, xm)
                    xminv = lin.mat_mul(xminv, refl)
                    stripped = True
                    break
        pieces.append(word_from_matrix(rd, xm, xminv))
        m = lin.mat_mul(m, xminv)
        minv = lin.mat_mul(xm, minv)
    assert m == lin.identity(rd.rank)
    out: list[int] = []
    for w in reversed(pieces):
        out.extend(w)
    return tuple(out)


def make_weyl(rd: RootDatum, m: lin.Matrix, minv: lin.Matrix) -> WeylElt:
    return WeylElt(normal_form_word(rd, m, minv), m)


def weyl_element(rd: RootDatum, word) -> WeylElt:
    """Builds a normal-form element from any word in simple reflections."""
    m = lin.identity(rd.rank)
    minv = m
    for j in word:
        s = rd.reflections[j]
        m = lin.mat_mul(m, s)
        minv = lin.mat_mul(s, minv)
    return make_weyl(rd, m, minv)


def reflection_matrix(rd: RootDatum, root: Root) -> lin.Matrix:
    """Matrix of the reflection in any root, acting on characters."""
    n = rd.rank
    return lin.freeze(
        [[(1 if r == c else 0) - root.vec[r] * root.covec[c] for c in range(n)]
         for r in range(n)]
    )


def reflection_element(rd: RootDatum, root: Root) -> WeylElt:
    m = reflection_matrix(rd, root)
    return make_weyl(rd, m, m)


@dataclass(frozen=True)
class InnerClassInvolution:
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


def _has_diagram_automorphism(f: Factor) -> bool:
    return (
        (f.letter == "A" and f.rank >= 2)
        or f.letter == "D"
        or (f.letter == "E" and f.rank == 6)
    )


def _opposition_perm(f: Factor) -> tuple[int, ...]:
    """Action of -w0 on the simple roots of one factor."""
    n = f.rank
    if f.letter == "A":
        return tuple(range(n - 1, -1, -1))
    if f.letter == "D" and n % 2 == 1:
        return _swap_last_two(n)
    if f.letter == "E" and n == 6:
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(n))


def _diagram_auto_perm(f: Factor) -> tuple[int, ...]:
    n = f.rank
    if f.letter == "A":
        return tuple(range(n - 1, -1, -1))
    if f.letter == "D":
        return _swap_last_two(n)
    if f.letter == "E" and n == 6:
        return (5, 1, 4, 3, 2, 0)
    raise InputError(f"no unequal-rank involution for type {f}")


def _swap_last_two(n: int) -> tuple[int, ...]:
    return tuple(range(n - 2)) + (n - 1, n - 2)


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
            if ch == "u" and not _has_diagram_automorphism(f):
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
    for letter, fids in units:
        if letter == "C":
            i1, i2 = fids
            off1, off2 = lt.coord_offsets[i1], lt.coord_offsets[i2]
            for k in range(lt.factors[i1].rank):
                mat[off2 + k][off1 + k] = 1
                mat[off1 + k][off2 + k] = 1
            continue
        (fi,) = fids
        f = lt.factors[fi]
        off = lt.coord_offsets[fi]
        if f.letter == "T":
            mat[off][off] = -1 if letter == "s" else 1
        else:
            if letter == "u":
                p = _diagram_auto_perm(f)
            elif letter == "s":
                p = _opposition_perm(f)
            else:
                p = tuple(range(f.rank))
            for k in range(f.rank):
                mat[off + p[k]][off + k] = 1
    delta_sc = lin.freeze(mat)
    if rd.basis == lin.identity(n):
        delta = delta_sc
    else:
        bt = lin.transpose(rd.basis)
        num, den = lin.mat_inverse_rational(bt)
        cand = lin.mat_mul(lin.mat_mul(num, delta_sc), bt)
        if any(x % den for row in cand for x in row):
            raise InputError(INCOMPATIBLE)
        delta = lin.freeze([[x // den for x in row] for row in cand])
    assert lin.mat_mul(delta, delta) == lin.identity(n)
    perm = _simple_perm(units, lt)
    for i, p in enumerate(perm):
        assert lin.mat_vec(delta, rd.simple_roots[i]) == rd.simple_roots[p]
    return InnerClassInvolution(letters.strip(), rd, lt, delta, perm, units)


def _simple_perm(units, lt: LieType) -> tuple[int, ...]:
    simple_offset = {}
    count = 0
    for i, f in enumerate(lt.factors):
        if f.letter != "T":
            simple_offset[i] = count
            count += f.rank
    perm = list(range(count))
    for letter, fids in units:
        f = lt.factors[fids[0]]
        if f.letter == "T":
            continue
        if letter == "C":
            o1, o2 = simple_offset[fids[0]], simple_offset[fids[1]]
            for k in range(f.rank):
                perm[o1 + k] = o2 + k
                perm[o2 + k] = o1 + k
        elif letter in ("s", "u"):
            p = _opposition_perm(f) if letter == "s" else _diagram_auto_perm(f)
            o = simple_offset[fids[0]]
            for k in range(f.rank):
                perm[o + k] = o + p[k]
    return tuple(perm)


def _pack(m: lin.Matrix) -> bytes:
    n = len(m)
    return struct.pack(f"<{n * n}h", *(x for row in m for x in row))


class InvolutionTable:
    """All twisted involutions for one inner class, with derived data.

    Records are indexed by discovery order of a breadth-first search
    from the identity; the search depth is the twisted length.
    """

    def __init__(self, rd: RootDatum, dmat: lin.Matrix):
        if rd.semisimple_rank > 8:
            raise InputError("semisimple rank larger than 8 is not supported")
        self.rd = rd
        self.dmat = dmat
        self.thetas: list[lin.Matrix] = [dmat]
        self.lengths: list[int] = [0]
        self.index: dict[bytes, int] = {_pack(dmat): 0}
        self._uf: list[int] = [0]
        self._status: dict[int, tuple] = {}
        self._theta_star: dict[int, lin.Matrix] = {}
        self._words: dict[int, tuple[int, ...]] = {}
        self._cbits: dict[int, lin.Vector] = {}
        self._csc: dict[int, lin.Vector] = {}
        self._im_roots: dict[int, list[Root]] = {}
        self._re_roots: dict[int, list[Root]] = {}
        self._canonical: dict[int, int] = {}
        self._coroot_sf = lin.smith_form(
            lin.transpose(lin.freeze(rd.simple_coroots)),
            ncols=rd.semisimple_rank,
        ) if rd.semisimple_rank else None
        self._enumerate()

    # -- enumeration ---------------------------------------------------

    def _enumerate(self) -> None:
        rd = self.rd
        queue = deque([0])
        while queue:
            i = queue.popleft()
            theta = self.thetas[i]
            tl = self.lengths[i]
            for j in range(rd.semisimple_rank):
                a = lin.mat_vec(theta, rd.simple_roots[j])
                if a == rd.simple_roots[j]:
                    t2 = lin.mat_mul(rd.reflections[j], theta)
                    self._add(t2, tl + 1, queue)
                elif a == lin.vec_neg(rd.simple_roots[j]):
                    continue
                else:
                    s = rd.reflections[j]
                    t2 = lin.mat_mul(lin.mat_mul(s, theta), s)
                    up = rd.root_index[a] >= 0
                    tid = self._add(t2, tl + (1 if up else -1), queue)
                    self._union(i, tid)

    def _add(self, theta: lin.Matrix, tl: int, queue: deque) -> int:
        key = _pack(theta)
        tid = self.index.get(key)
        if tid is None:
            tid = len(self.thetas)
            self.index[key] = tid
            self.thetas.append(theta)
            self.lengths.append(tl)
            self._uf.append(tid)
            queue.append(tid)
        else:
            assert self.lengths[tid] == tl
        return tid

    def _find(self, i: int) -> int:
        root = i
        while self._uf[root] != root:
            root = self._uf[root]
        while self._uf[i] != root:
            self._uf[i], i = root, self._uf[i]
        return root

    def _union(self, i: int, j: int) -> None:
        ri, rj = self._find(i), self._find(j)
        if ri != rj:
            self._uf[max(ri, rj)] = min(ri, rj)

    def __len__(self) -> int:
        return len(self.thetas)

    def lookup(self, theta: lin.Matrix) -> int:
        return self.index[_pack(theta)]

    # -- per-involution derived data -----------------------------------

    def theta_star(self, i: int) -> lin.Matrix:
        out = self._theta_star.get(i)
        if out is None:
            out = self._theta_star[i] = lin.transpose(self.thetas[i])
        return out

    def status_row(self, i: int) -> tuple:
        """Per simple root: (kind, neighbour id, image of the root)."""
        out = self._status.get(i)
        if out is not None:
            return out
        rd = self.rd
        theta = self.thetas[i]
        row = []
        for j in range(rd.semisimple_rank):
            a = lin.mat_vec(theta, rd.simple_roots[j])
            s = rd.reflections[j]
            if a == rd.simple_roots[j]:
                row.append((IMAGINARY, self.lookup(lin.mat_mul(s, theta)), a))
            elif a == lin.vec_neg(rd.simple_roots[j]):
                row.append((REAL, self.lookup(lin.mat_mul(s, theta)), a))
            else:
                t2 = lin.mat_mul(lin.mat_mul(s, theta), s)
                kind = COMPLEX_UP if rd.root_index[a] >= 0 else COMPLEX_DOWN
                row.append((kind, self.lookup(t2), a))
        out = self._status[i] = tuple(row)
        return out

    def word(self, i: int) -> tuple[int, ...]:
        """Displayed reduced word of w with theta = M_w.delta."""
        out = self._words.get(i)
        if out is None:
            m = lin.mat_mul(self.thetas[i], self.dmat)
            minv = lin.mat_mul(self.dmat, self.thetas[i])
            out = self._words[i] = normal_form_word(self.rd, m, minv)
        return out

    def cochar_action(self, i: int) -> lin.Matrix:
        """Action of w on cocharacters (w is its own twisted inverse)."""
        return lin.transpose(lin.mat_mul(self.dmat, self.thetas[i]))

    def cbits(self, i: int) -> lin.Vector:
        """Torus part of sigma_w delta(sigma_w) on the cocharacter lattice."""
        out = self._cbits.get(i)
        if out is None:
            half = self._rho_check_drop(i)
            out = self._cbits[i] = tuple(x % 2 for x in half)
        return out

    def _rho_check_drop(self, i: int) -> lin.Vector:
        two = lin.vec_sub(
            self.rd.two_rho_check,
            lin.mat_vec(self.cochar_action(i), self.rd.two_rho_check),
        )
        assert all(x % 2 == 0 for x in two)
        return tuple(x // 2 for x in two)

    def csc_bits(self, i: int) -> lin.Vector:
        """Same torus part in simple-coroot coordinates, mod 2."""
        out = self._csc.get(i)
        if out is None:
            coeffs = lin.solve_int_presolved(self._coroot_sf, self._rho_check_drop(i))
            assert coeffs is not None
            out = self._csc[i] = tuple(
                coeffs[j] % 2 for j in range(self.rd.semisimple_rank)
            )
        return out

    def grading_shift(self, i: int, j: int) -> int:
        """Doubled base-point grading constant for imaginary simple j."""
        kind, target, _ = self.status_row(i)[j]
        assert kind == IMAGINARY
        return (1 + self.csc_bits(i)[j] + self.csc_bits(target)[j]) % 2

    def imaginary_roots(self, i: int) -> list[Root]:
        out = self._im_roots.get(i)
        if out is None:
            out = self._split_roots(i)[0]
        return out

    def real_roots(self, i: int) -> list[Root]:
        out = self._re_roots.get(i)
        if out is None:
            out = self._split_roots(i)[1]
        return out

    def _split_roots(self, i: int) -> tuple[list[Root], list[Root]]:
        theta = self.thetas[i]
        im = []
        re = []
        for r in self.rd.positive_roots:
            img = lin.mat_vec(theta, r.vec)
            if img == r.vec:
                im.append(r)
            elif img == lin.vec_neg(r.vec):
                re.append(r)
        self._im_roots[i] = im
        self._re_roots[i] = re
        return im, re

    def imaginary_basis(self, i: int) -> list[Root]:
        """Simple basis of the imaginary root subsystem.

        Ordered by height, with height-one roots in simple-root index
        order.
        """
        def key(r: Root):
            h = sum(r.coeffs)
            return (h, r.coeffs.index(1) if h == 1 else -1, r.coeffs)

        return sorted(simple_basis(self.imaginary_roots(i)), key=key)

    def _two_rho_of(self, roots: list[Root]) -> lin.Vector:
        out = lin.zero_vector(self.rd.rank)
        for r in roots:
            out = lin.vec_add(out, r.vec)
        return out

    def _dominant(self, vec: lin.Vector) -> bool:
        return all(
            lin.vec_dot(vec, av) >= 0 for av in self.rd.simple_coroots
        )

    # -- classes -------------------------------------------------------

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Twisted-conjugacy classes in Cayley-transform discovery order.

        Starting from the class of the base involution, each class in
        turn contributes the unseen classes reached by single Cayley
        transforms from its canonical member, scanning simple roots in
        index order.
        """
        groups: dict[int, list[int]] = {}
        for i in range(len(self.thetas)):
            groups.setdefault(self._find(i), []).append(i)
        order = [self._find(0)]
        seen = {order[0]}
        pos = 0
        while pos < len(order):
            rep = self._group_canonical(tuple(groups[order[pos]]))
            theta = self.thetas[rep]
            for b in self.imaginary_basis(rep):
                target = self.lookup(
                    lin.mat_mul(reflection_matrix(self.rd, b), theta)
                )
                grp = self._find(target)
                if grp not in seen:
                    seen.add(grp)
                    order.append(grp)
            pos += 1
        assert len(order) == len(groups)
        return tuple(tuple(groups[r]) for r in order)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * len(self.thetas)
        for ci, ids in enumerate(self.classes):
            for i in ids:
                out[i] = ci
        return tuple(out)

    def canonical_member(self, class_idx: int) -> int:
        """Distinguished class member used for display and transforms."""
        return self._group_canonical(self.classes[class_idx])

    def _group_canonical(self, ids: tuple[int, ...]) -> int:
        root = self._find(ids[0])
        out = self._canonical.get(root)
        if out is not None:
            return out
        cands = [
            i for i in ids
            if self._dominant(self._two_rho_of(self.real_roots(i)))
        ] or list(ids)
        cands = [i for i in cands if self._imaginary_orth_dominant(i)] or cands
        best = min(cands, key=lambda i: (len(self.word(i)), self.word(i)))
        self._canonical[root] = best
        return best

    def _imaginary_orth_dominant(self, i: int) -> bool:
        two_r = self._two_rho_of(self.real_roots(i))
        two_i = self._two_rho_of(self.imaginary_roots(i))
        return all(
            lin.vec_dot(two_i, av) >= 0
            for av in self.rd.simple_coroots
            if lin.vec_dot(two_r, av) == 0
        )


def involution_table(delta: InnerClassInvolution) -> InvolutionTable:
    return InvolutionTable(delta.rd, delta.matrix)
