"""Lattice data of one twisted involution: what its fiber and keys are read from.

A strong involution x = (i, t), a StrongX, lies over the twisted
involution theta_i, and its torus part t is a cocharacter, stored as
integer numerators over denom (squares).  What the fiber of strong
involutions over theta_i, and the key of x, are read from is one
InvolutionLattice record per twisted involution: theta*, read on first
use off the root permutation (RootDatum.cocharacter_action), and its
rho-check drop, the Smith form of 1 + theta*, and a basis of the
theta-fixed characters, moved along complex descents by rank-one
reflection updates.  The key of x is t paired with that basis mod denom
(involution.InnerClass.x_key), linear in t.  The Smith divisors of 1 -
theta* give the split, compact and complex ranks (RankDecomposition).
The gradings need no record: they read the table and the root datum
alone (involution.InnerClass._grading_row).  Every move of x along a
simple root is one formula (move).
"""

from __future__ import annotations

from typing import NamedTuple

from . import lin
from .rootdata import RootDatum
from .weyl import InvolutionTable

# x = (involution id, cocharacter numerator vector)
StrongX = tuple[int, lin.Vector]


def move(t: lin.Vector, c: int, av: lin.Vector, gamma: lin.Vector | None, d: int) -> lin.Vector:
    """t - c alpha_j^v + (d/2) gamma^v mod d, av = alpha_j^v, with no shift
    when gamma is None: x = (i, t) moved along the simple root j.  With c
    = <alpha_j, t> and gamma^v from involution.InnerClass._step, which
    holds the proof, it is the cross action of j, and the Cayley transform
    at a noncompact imaginary j; an inverse Cayley transform passes its
    own c (forms.RealForms.real_form_of).
    """
    if gamma is None:
        return tuple([(u - c * v) % d for u, v in zip(t, av)])
    h = d // 2
    return tuple([(u - c * v + h * g) % d for u, v, g in zip(t, av, gamma)])


class RankDecomposition(NamedTuple):
    """Split, compact, and complex-pair ranks of a torus involution."""

    split: int
    compact: int
    complex_pairs: int


class InvolutionLattice:
    """Lattice data of one twisted involution theta: what its fiber is read from.

    Every record is built one way, from the table and the id of theta,
    the root datum and dstar, and InnerClass.lattice links a record
    reached by a complex descent, by the simple root j, to the record of
    the table parent nbr, theta = s_j nbr s_j, as parent; the base and
    any involution without a complex descent link to nothing.  Every
    other field, theta_star included, is computed from these on first
    read and kept (__getattr__): a KGB search reads only the key rows
    (minus) of most records, and those of a record with a parent need no
    theta*.  The properties theta, drop and ranks are computed on every
    read.  Records are immutable; equality compares theta and the kept
    fields but not rd, dstar, the table or the links, and repr shows
    theta_star and cbits.

    Attributes:
        theta_star: the action of theta on cocharacters, its transposed
            matrix, in closed form from the root permutation theta and
            dstar (RootDatum.cocharacter_action): no product for a simply
            connected datum without torus, and one n x n product at most.
        table, inv: the table of theta and the id of theta in it.
        theta: the images of the 2N roots under theta, as bytes read
            through the table by id (InvolutionTable.thetas).  The
            table's items are slices of its blocks, built on each read,
            so a record that kept one would keep a copy of it.
        dstar: the matrix of delta on cocharacters, theta* at the base.
        drop, cbits: rho-check minus its image under theta* delta*, for
            theta = w.delta, and its parity.  theta* delta* is the
            cocharacter action of u = delta w^-1 delta, and u^-1 beta =
            theta beta, so drop is the sum of the positive coroots beta^v
            with theta beta negative.  cbits is the torus part of sigma_w
            delta(sigma_w) on the cocharacter lattice.
        parent, j: the record of the table parent and the simple root j
            of the complex descent from it, else None, None.
        minus: (rank, rows, twos, ones) of 1 - theta*.  rows are a Z-basis
            of the theta-fixed characters, which the key pairs with t
            (x_key).  rank is the rank of 1 - theta*, and twos and ones
            count its Smith divisors 2 and 1, for ranks.  Without a parent,
            rows are the rows of the Smith uinv at the zero divisors (the
            trailing ones).  After a complex descent, theta* = C_j
            theta*_nbr C_j with C_j = 1 - alpha_j^v alpha_j^T unimodular
            and C_j^2 = 1, so r theta*_nbr = r gives r C_j theta* = r C_j:
            rows are the parent's rows times C_j, and the Smith divisors,
            those of a conjugate matrix, are the parent's.  So a Cartan
            class takes a Smith form only at the involutions without a
            complex descent that the parent links reach.
        plus: the Smith form of 1 + theta*, which fibers are solved in.
    """

    __slots__ = (
        "theta_star", "table", "inv", "rd", "dstar", "parent", "j", "cbits", "minus", "plus",
    )
    _COMPARED = ("theta_star", "theta", "cbits", "minus", "plus")

    theta_star: lin.Matrix
    table: InvolutionTable
    inv: int
    rd: RootDatum
    dstar: lin.Matrix
    cbits: lin.Vector
    parent: InvolutionLattice | None
    j: int | None
    minus: tuple[int, tuple[lin.Vector, ...], int, int]
    plus: lin.SmithForm

    def __init__(
        self,
        table: InvolutionTable,
        inv: int,
        rd: RootDatum,
        dstar: lin.Matrix,
        parent: InvolutionLattice | None = None,
        j: int | None = None,
    ):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "rd", rd)
        object.__setattr__(self, "dstar", dstar)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "j", j)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._COMPARED)

    def __hash__(self) -> int:
        return hash((self.theta_star, self.theta))

    def __repr__(self) -> str:
        return f"InvolutionLattice(theta_star={self.theta_star!r}, cbits={self.cbits!r})"

    def __getattr__(self, name: str):
        """Computes a field not set yet on its first read, and keeps it."""
        n = self.rd.rank
        if name == "cbits":
            value = tuple(x % 2 for x in self.drop)
        elif name == "minus" and self.parent is not None:
            rank, rows, twos, ones = self.parent.minus
            a, av = self.rd.simple_roots[self.j], self.rd.simple_coroots[self.j]
            value = rank, lin.times_coreflection(rows, a, av), twos, ones
        elif name == "minus":
            sf = lin.smith_form(lin.mat_sub(lin.identity(n), self.theta_star), ncols=n)
            value = sf.rank, sf.uinv[sf.rank:], sf.diag.count(2), sf.diag.count(1)
        elif name == "plus":
            value = lin.smith_form(lin.mat_add(lin.identity(n), self.theta_star), ncols=n)
        elif name == "theta_star":
            value = self.rd.cocharacter_action(self.theta, self.dstar)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    @property
    def theta(self) -> bytes:
        return self.table.thetas[self.inv]

    @property
    def drop(self) -> lin.Vector:
        theta = self.theta
        npos = len(theta) // 2
        return self.rd.coroot_sum(k for k in range(npos) if theta[k] >= npos)

    @property
    def ranks(self) -> RankDecomposition:
        """Rank decomposition of theta*.

        The lattice is a sum of trivial, sign and rank-two permutation
        summands of theta* (Adams-du Cloux), on which 1 - theta* has the
        Smith divisors 0, 2 and (1, 0).  So the split rank is the count
        of divisors 2, the complex pairs are the divisors 1, and the
        compact rank is the zero divisors (the key rows) less the pairs.
        Raises RuntimeError when 1 - theta* has a divisor above 2, so that
        ker(1 + theta*) over its image is no elementary abelian 2-group.
        """
        rank, rows, twos, ones = self.minus
        if twos + ones != rank:
            raise RuntimeError("1 - theta* has an elementary divisor above 2")
        return RankDecomposition(split=twos, compact=len(rows) - ones, complex_pairs=ones)
