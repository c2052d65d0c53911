"""Exact integer linear algebra for lattice computations.

Matrices are immutable tuples of int tuples (row-major); vectors are int
tuples.  Everything here is exact: no floating point is used anywhere.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul, sub
from typing import NamedTuple

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def freeze(rows) -> Matrix:
    """Converts any iterable of int rows to an immutable Matrix."""
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_vector(n: int) -> Vector:
    return (0,) * n


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def times_coreflection(m: Matrix, a: Vector, av: Vector) -> Matrix:
    """m (1 - av a^T): each row r loses <r, av> a; the rows with <r, av> = 0
    are m's own."""
    return tuple(
        tuple([x - c * y for x, y in zip(row, a)]) if (c := sum(map(mul, row, av))) else row
        for row in m
    )


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(map(add, u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(map(sub, u, v))


def vec_neg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def vec_scale(v: Vector, k: int) -> Vector:
    return tuple([k * x for x in v])


def vec_dot(u: Vector, v: Vector) -> int:
    return sum(map(mul, u, v))


def vec_mod(v: Vector, m: int) -> Vector:
    return tuple([x % m for x in v])


class SmithForm(NamedTuple):
    """Smith normal form uinv @ a == diag @ v with unimodular uinv, v.

    Attributes:
        uinv: m x m unimodular matrix, the row operations applied to a.
        v: n x n unimodular matrix.
        vinv: inverse of v.
        diag: the min(m, n) diagonal entries; nonnegative, each dividing
            the next, zeros trailing.
    """

    uinv: Matrix
    v: Matrix
    vinv: Matrix
    diag: Vector

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)


def smith_form(a: Matrix, ncols: int | None = None) -> SmithForm:
    """Computes the Smith normal form with transform matrices.

    Deterministic: pivot choice is the nonzero entry minimizing
    (absolute value, row, column) (_pivot).  Raises RuntimeError when a
    pivot position repeats with a larger pivot, or with an equal one
    twice in a row (only a fold may keep it, once).

    Args:
        a: integer matrix, possibly with zero rows.
        ncols: column count, required when a has no rows.
    """
    m = len(a)
    n = len(a[0]) if a else (ncols if ncols is not None else 0)
    mm = [list(row) for row in a]
    p = _identity_lists(m)
    q, qi = _identity_lists(n), _identity_lists(n)

    def row_add(i: int, j: int, c: int) -> None:
        # row_i += c * row_j; mirrored on p.
        mm[i] = [x + c * y for x, y in zip(mm[i], mm[j])]
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]

    def col_add(j: int, i: int, c: int) -> None:
        # col_j += c * col_i; mirrored on q, inverted on qi rows.
        for row in mm:
            if row[i]:
                row[j] += c * row[i]
        for row in q:
            if row[i]:
                row[j] += c * row[i]
        qi[i] = [x - c * y for x, y in zip(qi[i], qi[j])]

    def row_swap(i: int, j: int) -> None:
        mm[i], mm[j] = mm[j], mm[i]
        p[i], p[j] = p[j], p[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(m):
            mm[r][i], mm[r][j] = mm[r][j], mm[r][i]
        for r in range(n):
            q[r][i], q[r][j] = q[r][j], q[r][i]
        qi[i], qi[j] = qi[j], qi[i]

    def row_negate(i: int) -> None:
        mm[i] = [-x for x in mm[i]]
        p[i] = [-x for x in p[i]]

    t = 0
    limit = min(m, n)
    last, stalled = 0, False
    while t < limit:
        least, bi, bj = _pivot(mm, t)
        if not least:
            break
        if last and (least > last or least == last and stalled):
            raise RuntimeError(f"smith_form made no progress at pivot position {t}")
        last, stalled = least, least == last
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        if mm[t][t] < 0:
            row_negate(t)
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
        # a pivot of 1 divides every entry
        bad = None if piv == 1 else next(
            (i for i in range(t + 1, m) if any(mm[i][j] % piv for j in range(t + 1, n))), None
        )
        if bad is not None:
            # Fold the offending row into row t so the next pivot shrinks.
            row_add(t, bad, 1)
            continue
        t += 1
        last = 0

    diag = tuple(mm[i][i] for i in range(limit))
    return SmithForm(
        uinv=tuple(map(tuple, p)), v=tuple(map(tuple, qi)),
        vinv=tuple(map(tuple, q)), diag=diag,
    )


def _pivot(mm: list[list[int]], t: int) -> tuple[int, int, int]:
    """(|x|, row, column) of the pivot x at position t, or (0, 0, 0): the
    first entry of least |x| in row-major order; none is below 1."""
    least = bi = bj = 0
    for i in range(t, len(mm)):
        row = mm[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (not least or x < least):
                least, bi, bj = x, i, j
                if x == 1:
                    return least, bi, bj
    return least, bi, bj


def _identity_lists(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def solve_int(sf: SmithForm, b: Vector) -> Vector | None:
    """One integer solution x of a @ x == b, or None, from the Smith form sf of a."""
    n = len(sf.v)
    c = mat_vec(sf.uinv, b)
    y = [0] * n
    for i, ci in enumerate(c):
        d = sf.diag[i] if i < len(sf.diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d:
                return None
            y[i] = ci // d
    return mat_vec(sf.vinv, tuple(y))


def solve_mod_presolved(sf: SmithForm, b: Vector, mod: int) -> Vector | None:
    """One integer solution x of a @ x == b (mod mod), or None, from the
    Smith form sf of a."""
    n = len(sf.v)
    c = mat_vec(sf.uinv, b)
    y = [0] * n
    for i, ci in enumerate(c):
        d = sf.diag[i] if i < len(sf.diag) else 0
        g = gcd(d, mod)
        ci %= mod
        if ci % g:
            return None
        if d:
            step = mod // g
            y[i] = (ci // g) * pow(d // g, -1, step) % step if step > 1 else 0
    x = mat_vec(sf.vinv, tuple(y))
    return vec_mod(x, mod)


def row_hnf(a: Matrix) -> Matrix:
    """Canonical row Hermite normal form; zero rows are dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot).  Two row sets span the same lattice iff their forms match.
    """
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    top = 0
    for col in range(n):
        while True:
            nz = sorted(
                (i for i in range(top, m) if rows[i][col]),
                key=lambda i: (abs(rows[i][col]), i),
            )
            if len(nz) <= 1:
                break
            i0, i1 = nz[0], nz[1]
            c = rows[i1][col] // rows[i0][col]
            rows[i1] = [x - c * y for x, y in zip(rows[i1], rows[i0])]
        nz = [i for i in range(top, m) if rows[i][col]]
        if not nz:
            continue
        rows[top], rows[nz[0]] = rows[nz[0]], rows[top]
        if rows[top][col] < 0:
            rows[top] = [-x for x in rows[top]]
        piv = rows[top][col]
        for i in range(top):
            c = rows[i][col] // piv
            if c:
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[top])]
        top += 1
    return freeze(rows[:top])
