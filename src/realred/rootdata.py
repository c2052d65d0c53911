"""Lie types, centers, central quotients, and root data.

Coordinates: the simply connected group times its central torus has
character lattice with basis the fundamental weights of each simple
factor plus one coordinate per torus factor, interleaved in factor
order.  The cocharacter lattice carries the dual basis, so simple
coroots are standard basis vectors there.  A central quotient replaces
the character lattice by a finite-index sublattice; roots and coroots
are re-expressed accordingly.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from . import lin
from .diagram import cartan_matrix, cartan_smith

LETTERS = "ABCDEFGT"

RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (2, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
    "T": (1, None),
}


class InputError(ValueError):
    """Raised for malformed user input (types, kernels, inner classes)."""


class Factor(NamedTuple):
    letter: str
    rank: int

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


class LieType(NamedTuple):
    """A product of simple factors and one-dimensional torus factors.

    factors lists internal factors: torus tokens Tk are expanded into k
    copies of T1.  tokens preserves the input grouping for display.
    """

    factors: tuple[Factor, ...]
    tokens: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join(self.tokens)

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def semisimple_rank(self) -> int:
        return sum(f.rank for f in self.factors if f.letter != "T")

    @property
    def coord_offsets(self) -> tuple[int, ...]:
        out = []
        pos = 0
        for f in self.factors:
            out.append(pos)
            pos += f.rank
        return tuple(out)

    @property
    def simple_factor_index(self) -> tuple[int, ...]:
        """Internal factor index owning each simple root."""
        out = []
        for i, f in enumerate(self.factors):
            if f.letter != "T":
                out.extend([i] * f.rank)
        return tuple(out)


def _text(value: object, what: str) -> str:
    """value, or InputError unless it is a str."""
    if not isinstance(value, str):
        raise InputError(f"{what} must be a str, not {value!r}")
    return value


def parse_lie_type(text: str) -> LieType:
    """Parses a dot-separated Lie type string such as "A2.T1.D4"."""
    text = _text(text, "a Lie type").strip()
    if not text:
        raise InputError("empty Lie type")
    tokens = text.split(".")
    factors: list[Factor] = []
    for tok in tokens:
        m = re.fullmatch(r"([A-Za-z])(\d+)", tok.strip())
        if not m:
            raise InputError(f"malformed factor {tok!r}")
        letter = m.group(1).upper()
        rank = int(m.group(2))
        if letter not in LETTERS:
            raise InputError(f"unknown type letter {letter!r}")
        lo, hi = RANK_BOUNDS[letter]
        if rank < lo or (hi is not None and rank > hi):
            raise InputError(f"rank out of bounds for {letter}{rank}")
        if letter == "T":
            factors.extend([Factor("T", 1)] * rank)
        else:
            factors.append(Factor(letter, rank))
    return LieType(tuple(factors), tuple(t.strip() for t in tokens))


class CenterComponent(NamedTuple):
    factor_index: int
    order: int  # 0 marks a divisible torus component


class CenterStructure(NamedTuple):
    """The finite part of the center of the simply connected group."""

    components: tuple[CenterComponent, ...]

    def __str__(self) -> str:
        return ".".join(
            "Q/Z" if c.order == 0 else f"Z/{c.order}" for c in self.components
        )


def center_structure(lt: LieType) -> CenterStructure:
    """The center of the simply connected group: per simple factor, the divisors
    above 1 of its one Smith form (diagram.cartan_smith), or 1; 0 per torus."""
    comps = []
    for i, f in enumerate(lt.factors):
        orders = (0,) if f.letter == "T" else tuple(
            d for d in cartan_smith(f.letter, f.rank).diag if d > 1
        ) or (1,)
        comps.extend(CenterComponent(i, order) for order in orders)
    return CenterStructure(tuple(comps))


class KernelGenerator(NamedTuple):
    """One element of the center, as a fraction per center component.

    Each fraction is a (numerator, denominator) pair in lowest terms,
    with 0 <= numerator < denominator.
    """

    fractions: tuple[tuple[int, int], ...]


def parse_kernel_generator(text: str, cs: CenterStructure) -> KernelGenerator:
    """Parses a comma-separated fraction line against a center structure."""
    parts = [p.strip() for p in _text(text, "a kernel generator").split(",")]
    if len(parts) != len(cs.components):
        raise InputError(
            f"expected {len(cs.components)} fractions, got {len(parts)}"
        )
    fracs = []
    for part, comp in zip(parts, cs.components):
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", part)
        if not m or (m.group(2) is not None and int(m.group(2)) == 0):
            raise InputError(f"malformed fraction {part!r}")
        num, den = int(m.group(1)), int(m.group(2) or 1)
        g = gcd(num, den)
        num, den = num // g % (den // g), den // g
        if comp.order and comp.order % den:
            raise InputError(f"{part} is not in the center")
        fracs.append((num, den))
    return KernelGenerator(tuple(fracs))


def adjoint_generators(cs: CenterStructure) -> list[KernelGenerator]:
    """Generators of the full finite semisimple center (torus untouched)."""
    gens = []
    for i, comp in enumerate(cs.components):
        if comp.order > 1:
            fracs = [(0, 1)] * len(cs.components)
            fracs[i] = (1, comp.order)
            gens.append(KernelGenerator(tuple(fracs)))
    return gens


class Root(NamedTuple):
    vec: lin.Vector  # character coordinates
    covec: lin.Vector  # cocharacter coordinates
    coeffs: lin.Vector  # coordinates in the simple-root basis


class RootDatum:
    """A reductive group's lattices, roots, and coroots in fixed bases.

    basis rows give the character lattice inside the weight coordinates
    of the simply connected cover; it is ignored by equality, which
    compares the root/coroot data only.  Root data are immutable; the
    derived root lists are computed on first read and kept.
    """

    rank: int
    basis: lin.Matrix
    simple_roots: tuple[lin.Vector, ...]
    simple_coroots: tuple[lin.Vector, ...]
    cartan: lin.Matrix

    def __init__(
        self,
        rank: int,
        basis: lin.Matrix,
        simple_roots: tuple[lin.Vector, ...],
        simple_coroots: tuple[lin.Vector, ...],
        cartan: lin.Matrix,
    ):
        self.__dict__.update(
            rank=rank,
            basis=basis,
            simple_roots=simple_roots,
            simple_coroots=simple_coroots,
            cartan=cartan,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"RootDatum(rank={self.rank!r}, basis={self.basis!r}, "
            f"simple_roots={self.simple_roots!r}, "
            f"simple_coroots={self.simple_coroots!r}, cartan={self.cartan!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootDatum):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.simple_roots == other.simple_roots
            and self.simple_coroots == other.simple_coroots
            and self.cartan == other.cartan
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.simple_roots, self.simple_coroots))

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        seen: dict[lin.Vector, Root] = {}
        work = []
        n = self.semisimple_rank
        for j, (a, av) in enumerate(zip(self.simple_roots, self.simple_coroots)):
            r = Root(a, av, tuple(1 if k == j else 0 for k in range(n)))
            seen[r.vec] = r
            work.append(r)
        while work:
            r = work.pop()
            for j in range(n):
                k = lin.vec_dot(r.vec, self.simple_coroots[j])
                vec = lin.vec_sub(r.vec, lin.vec_scale(self.simple_roots[j], k))
                if vec in seen or lin.vec_neg(vec) in seen:
                    continue
                kc = lin.vec_dot(self.simple_roots[j], r.covec)
                covec = lin.vec_sub(
                    r.covec, lin.vec_scale(self.simple_coroots[j], kc)
                )
                coeffs = tuple(
                    c - (k if i == j else 0) for i, c in enumerate(r.coeffs)
                )
                # s_j keeps every positive root but alpha_j, skipped above, positive
                if any(c < 0 for c in coeffs):
                    raise RuntimeError("a reflected positive root has a negative coefficient")
                new = Root(vec, covec, coeffs)
                seen[new.vec] = new
                work.append(new)
        return tuple(sorted(seen.values(),
                            key=lambda r: (sum(r.coeffs), r.coeffs)))

    @cached_property
    def roots(self) -> tuple[lin.Vector, ...]:
        """All 2N roots: positive root k at k, its negative at N + k."""
        pos = [r.vec for r in self.positive_roots]
        return tuple(pos + [lin.vec_neg(v) for v in pos])

    @cached_property
    def root_index(self) -> dict[lin.Vector, int]:
        """Index of each root in the numbering of roots."""
        return {v: k for k, v in enumerate(self.roots)}

    def coroot_sum(self, indices) -> lin.Vector:
        """Sum of the coroots of the positive roots with these indices."""
        covecs = [self.positive_roots[k].covec for k in indices]
        return tuple(map(sum, zip(*covecs))) if covecs else lin.zero_vector(self.rank)

    @cached_property
    def two_rho_check(self) -> lin.Vector:
        return self.coroot_sum(range(len(self.positive_roots)))

    @cached_property
    def coroots(self) -> tuple[lin.Vector, ...]:
        """All 2N coroots, numbered as roots."""
        pos = [r.covec for r in self.positive_roots]
        return tuple(pos + [lin.vec_neg(v) for v in pos])

    @cached_property
    def simple_root_smith(self) -> lin.SmithForm:
        """Smith form of the simple roots as rows, the one of each datum:
        _coroot_frame reads the cocharacters pairing to 0 with every root
        off it, and squares.SquareClasses the torsion of the center."""
        return lin.smith_form(self.simple_roots, ncols=self.rank)

    @cached_property
    def _coroot_frame(self) -> tuple[bytes, lin.Matrix, int, tuple[tuple[tuple, tuple], ...]]:
        """(simple, z, den, cols), what cocharacter_action reads of the frame
        B = [simple coroots | z] of the cocharacters.

        simple holds the root indices of the simple roots, and z is a basis
        of the cocharacters that pair to 0 with every root: none for a
        semisimple datum, else the columns of the vinv of simple_root_smith
        at its zero divisors.  No
        nonzero sum of simple coroots pairs to 0 with every simple root,
        the Cartan matrix being invertible, so B is invertible over Q.
        With uinv B = diag v, den B^-1 = vinv diag(den/d_i) uinv is an
        integer matrix for den the last divisor, and cols[c] holds the
        rows k and entries x of its nonzero entries in column c.  Every
        simply connected datum without torus has B = 1, which takes no
        Smith form: cols[c] is ((c,), (1,)), and den is 1.
        """
        n, ss = self.rank, self.semisimple_rank
        z = lin.transpose(self.simple_root_smith.vinv)[ss:] if ss < n else ()
        inverse = lin.transpose(self.simple_coroots + z)
        den = 1
        if inverse != lin.identity(n):
            frame = lin.smith_form(inverse)
            den = frame.diag[-1]
            scaled = [lin.vec_scale(row, den // d) for row, d in zip(frame.uinv, frame.diag)]
            inverse = lin.mat_mul(frame.vinv, scaled)
        cols = tuple(
            tuple(zip(*[(k, x) for k, x in enumerate(col) if x])) for col in zip(*inverse)
        )
        return bytes(self.root_index[a] for a in self.simple_roots), z, den, cols

    def cocharacter_action(self, theta: bytes, dstar: lin.Matrix) -> lin.Matrix:
        """theta*, the matrix on cocharacters of the twisted involution theta
        = w.delta, from its root permutation theta (InvolutionTable.thetas)
        and dstar, the matrix of delta on cocharacters.

        theta* sends the coroot of each root alpha to the coroot of theta
        alpha, and each z of the frame B = [simple coroots | z]
        (_coroot_frame) to dstar z, since w fixes z: s_j z = z - <alpha_j,
        z> alpha_j^v = z.  So theta* B = [coroots of theta alpha_j |
        dstar z], and theta* is that times B^-1: column c of theta* is the
        sum over cols[c] of x/den times column k of theta* B.  A column of
        B^-1 with one entry 1, as every column of a simply connected datum
        without torus, picks one column of theta* B, with no product.
        """
        simple, z, den, cols = self._coroot_frame
        coroots = self.coroots
        images = [coroots[theta[s]] for s in simple] + [lin.mat_vec(dstar, v) for v in z]
        return tuple(zip(*[
            images[ks[0]] if xs == (den,)
            else tuple([lin.vec_dot(xs, row) // den for row in zip(*[images[k] for k in ks])])
            for ks, xs in cols
        ]))


def _component_functionals(lt: LieType, cs: CenterStructure) -> list[lin.Vector]:
    """Integer rows evaluating each center component on a character.

    A character lies in the annihilator of the component element p/m iff
    p * row(char) is divisible by m.  Both kinds read the factor's one
    Smith form (diagram.cartan_smith), as center_structure does.
    """
    n = lt.rank
    rows: list[lin.Vector] = []
    slot = 0
    prev_factor = -1
    for comp in cs.components:
        slot = slot + 1 if comp.factor_index == prev_factor else 0
        prev_factor = comp.factor_index
        f = lt.factors[comp.factor_index]
        off = lt.coord_offsets[comp.factor_index]
        row = [0] * n
        if f.letter == "T":
            row[off] = 1
        elif comp.order > 1:
            sf = cartan_smith(f.letter, f.rank)
            if f.letter == "D" and f.rank % 2 == 0:
                # Two order-2 components, dual to the last two fundamental
                # coweights in that order: the row x solves C x = 2 e_k, C
                # the Cartan matrix, symmetric, and k = rank - 2 + slot.
                two_e = [0] * f.rank
                two_e[f.rank - 2 + slot] = 2
                x = lin.solve_int(sf, tuple(two_e))
                if x is None:
                    raise RuntimeError("a half-spin coweight is not integral")
                row[off:off + f.rank] = x
            else:
                # one cyclic component: its order is the last divisor
                row[off:off + f.rank] = sf.uinv[-1]
        rows.append(tuple(row))
    return rows


def _weight_basis_roots(lt: LieType) -> tuple[list[lin.Vector], list[lin.Vector]]:
    n = lt.rank
    roots = []
    coroots = []
    for f, off in zip(lt.factors, lt.coord_offsets):
        if f.letter == "T":
            continue
        c = cartan_matrix(f.letter, f.rank)
        for i in range(f.rank):
            vec = [0] * n
            for j in range(f.rank):
                vec[off + j] = c[i][j]
            roots.append(tuple(vec))
            covec = [0] * n
            covec[off + i] = 1
            coroots.append(tuple(covec))
    return roots, coroots


def build_root_datum(lt: LieType, gens: list[KernelGenerator]) -> RootDatum:
    """Root datum of the quotient of the simply connected group.

    gens lists central elements to divide by; empty gives the simply
    connected group itself.  Raises InputError, before anything of size
    rank squared is built, for a semisimple rank above 8 or a torus rank
    above 8.
    """
    n = lt.rank
    if lt.semisimple_rank > 8:
        raise InputError("semisimple rank larger than 8 is not supported")
    if n - lt.semisimple_rank > 8:
        raise InputError("torus rank larger than 8 is not supported")
    if gens:
        cs = center_structure(lt)
        for g in gens:
            if len(g.fractions) != len(cs.components):
                raise InputError("kernel generator has wrong length")
            for (num, den), comp in zip(g.fractions, cs.components):
                if comp.order and comp.order % den:
                    raise InputError(f"{num}/{den} is not in the center")
        psi = _component_functionals(lt, cs)
        denoms = [den for g in gens for _, den in g.fractions]
        modulus = lcm(*denoms)
        rows = []
        for g in gens:
            row = lin.zero_vector(n)
            for (num, den), p in zip(g.fractions, psi):
                scale = num * modulus // den
                if scale:
                    row = lin.vec_add(row, lin.vec_scale(p, scale))
            rows.append(row)
        sf = lin.smith_form(lin.freeze(rows), ncols=n)
        cols = lin.transpose(sf.vinv)
        basis_rows = []
        for j in range(n):
            d = sf.diag[j] if j < len(sf.diag) else 0
            basis_rows.append(lin.vec_scale(cols[j], modulus // gcd(d, modulus)))
        basis = lin.row_hnf(lin.freeze(basis_rows))
        if len(basis) != n:
            raise RuntimeError("the character lattice basis has the wrong rank")
    else:
        basis = lin.identity(n)
    roots_w, coroots_w = _weight_basis_roots(lt)
    sf = lin.smith_form(lin.transpose(basis))
    simple_roots = []
    for a in roots_w:
        sol = lin.solve_int(sf, a)
        if sol is None:
            raise RuntimeError("root lattice escaped the character lattice")
        simple_roots.append(sol)
    simple_coroots = [lin.mat_vec(basis, av) for av in coroots_w]
    cartan = lin.freeze(
        [[lin.vec_dot(a, bv) for bv in simple_coroots] for a in simple_roots]
    )
    expected = [
        [lin.vec_dot(a, bv) for bv in coroots_w] for a in roots_w
    ]
    if cartan != lin.freeze(expected):
        raise RuntimeError("the quotient changed the Cartan matrix")
    return RootDatum(
        rank=n,
        basis=basis,
        simple_roots=tuple(simple_roots),
        simple_coroots=tuple(simple_coroots),
        cartan=cartan,
    )


def quotient(text: str, kernel: str = "sc") -> tuple[RootDatum, LieType]:
    """(root datum, Lie type) of the quotient of the simply connected group
    of the type text by the kernel, the one reader of the kernel format:
    "sc" divides by nothing, "ad" by the whole finite center
    (adjoint_generators), and any other kernel is ";"-separated lines of
    fractions, one generator each (parse_kernel_generator).  Raises
    InputError for a type or kernel that is not a str or does not parse,
    and as build_root_datum does.
    """
    lt = parse_lie_type(text)
    if _text(kernel, "a kernel") == "sc":
        gens = []
    elif kernel == "ad":
        gens = adjoint_generators(center_structure(lt))
    else:
        cs = center_structure(lt)
        gens = [parse_kernel_generator(line, cs) for line in kernel.split(";")]
    return build_root_datum(lt, gens), lt


def dual_lie_type(lt: LieType) -> LieType:
    swap = {"B": "C", "C": "B"}
    factors = tuple(Factor(swap.get(f.letter, f.letter), f.rank)
                    for f in lt.factors)
    tokens = []
    for tok in lt.tokens:
        letter = tok[0].upper()
        tokens.append(swap.get(letter, letter) + tok[1:])
    return LieType(factors, tuple(tokens))


def dual_root_datum(rd: RootDatum) -> RootDatum:
    """Exchanges characters with cocharacters and roots with coroots."""
    return RootDatum(
        rank=rd.rank,
        basis=lin.identity(rd.rank),
        simple_roots=rd.simple_coroots,
        simple_coroots=rd.simple_roots,
        cartan=lin.transpose(rd.cartan),
    )
