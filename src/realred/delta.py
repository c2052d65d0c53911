"""The inner-class involution delta, from the letters of an inner class.

The letters are matched against the internal factors of the Lie type
(parse_units): c or e for the equal-rank inner class of a factor, where
delta is 1; s for the split one, where delta is -w0 on the simple roots
and -1 on a torus factor; u for the unequal-rank one, a diagram
automorphism; and C for a pair of identical factors, which delta swaps.
delta is built in the simply connected coordinates and carried to the
character lattice of the quotient, where it must act integrally
(inner_class_involution).  Its permutation perm of the simple roots and
the Cartan matrix fix the involution table (weyl.involution_table).
"""

from __future__ import annotations

from typing import NamedTuple

from . import lin
from .rootdata import Factor, InputError, LieType, RootDatum

INCOMPATIBLE = "sorry, that inner class is not compatible with the weight lattice"


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
    """Matches inner-class letters, a str, against the internal factors."""
    if not isinstance(letters, str):
        raise InputError(f"inner class letters must be a str, not {letters!r}")
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
