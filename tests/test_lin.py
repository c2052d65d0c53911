"""Tests for exact lattice linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realred import lin

from contexts import context, smith_form_with_a_pivot_of_two
from oracles import det, reference_f2_rank, reference_smith_form


def random_matrix(rng: random.Random, m: int, n: int) -> lin.Matrix:
    return lin.freeze(
        [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    )


def diag_matrix(diag: lin.Vector, m: int, n: int) -> lin.Matrix:
    return lin.freeze(
        [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
         for i in range(m)]
    )


def test_smith_form_random() -> None:
    rng = random.Random(20260815)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        sf = lin.smith_form(a)
        d = diag_matrix(sf.diag, m, n)
        # uinv is unimodular, so this is a == u @ d @ v with u = uinv^-1
        assert lin.mat_mul(sf.uinv, a) == lin.mat_mul(d, sf.v)
        assert lin.mat_mul(sf.v, sf.vinv) == lin.identity(n)
        assert abs(det(sf.uinv)) == 1
        assert abs(det(sf.v)) == 1
        nonzero = [x for x in sf.diag if x]
        assert all(x > 0 for x in nonzero)
        assert list(sf.diag) == nonzero + [0] * (len(sf.diag) - len(nonzero))
        assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9]), min_size=n, max_size=n),
    max_size=6,
).map(lambda rows: (lin.freeze(rows), n))))
def test_smith_form_matches_reference(case) -> None:
    # byte-identical transforms, not only the same diagonal
    a, n = case
    assert lin.smith_form(a, ncols=n) == reference_smith_form(a, ncols=n)


@pytest.mark.parametrize("text,letters,kernel", [
    ("A3", "c", None), ("C4", "s", None), ("D5", "s", "ad"), ("F4", "s", None),
    ("E6", "c", None), ("A2.T1", "sc", None),
])
def test_smith_form_matches_reference_on_involutions(text, letters, kernel) -> None:
    ic = context(text, letters, kernel)
    ident = lin.identity(ic.rd.rank)
    for inv in range(len(ic.table)):
        ts = ic.lattice(inv).theta_star
        for a in (lin.mat_sub(ident, ts), lin.mat_add(ident, ts)):
            assert lin.smith_form(a) == reference_smith_form(a)


def test_coreflection_products_match_mat_mul() -> None:
    rng = random.Random(20261019)
    shared = 0
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a, av = random_matrix(rng, 2, n)
        c = lin.mat_sub(lin.identity(n), lin.freeze([[x * y for y in a] for x in av]))
        left = random_matrix(rng, m, n)
        out = lin.times_coreflection(left, a, av)
        assert out == lin.mat_mul(left, c)
        # the rows r with <r, av> = 0 are shared, not copied
        kept = [(o, r) for o, r in zip(out, left) if not lin.vec_dot(r, av)]
        assert all(o is r for o, r in kept)
        shared += len(kept)
    assert shared


def test_smith_form_deterministic() -> None:
    rng = random.Random(7)
    a = random_matrix(rng, 5, 4)
    assert lin.smith_form(a) == lin.smith_form(a)


def test_smith_form_known() -> None:
    a = lin.freeze([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert lin.smith_form(a).diag == (2, 2, 156)
    assert lin.smith_form(lin.identity(3)).diag == (1, 1, 1)
    assert lin.smith_form(((0, 0), (0, 0))).diag == (0, 0)


def test_smith_form_empty_rows() -> None:
    sf = lin.smith_form((), ncols=3)
    assert sf.diag == ()
    assert sf.v == lin.identity(3)


def test_smith_form_refuses_a_pivot_that_makes_no_progress() -> None:
    with pytest.raises(RuntimeError, match="no progress at pivot position 0"):
        smith_form_with_a_pivot_of_two()


def test_smith_form_keeps_a_pivot_once_after_a_fold(monkeypatch) -> None:
    # (2, 0; 0, 3): the pivot 2 divides its row and column but not the 3,
    # so row 1 is folded into row 0 and 2 is the pivot again; its column
    # step then leaves 1, and the third pivot is 1
    picked = []
    pivot = lin._pivot
    monkeypatch.setattr(lin, "_pivot", lambda mm, t: picked.append(pivot(mm, t)) or picked[-1])
    assert lin.smith_form(((2, 0), (0, 3))).diag == (1, 6)
    assert [p[0] for p in picked[:3]] == [2, 2, 1]


def test_solve_int() -> None:
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        b = lin.mat_vec(a, x)
        got = lin.solve_int(lin.smith_form(a), b)
        assert got is not None
        assert lin.mat_vec(a, got) == b
    assert lin.solve_int(lin.smith_form(((2,),)), (1,)) is None
    assert lin.solve_int(lin.smith_form(((0,),)), (3,)) is None


def test_solve_mod() -> None:
    def solve_mod(a, b, mod):
        return lin.solve_mod_presolved(lin.smith_form(a, ncols=len(a[0])), b, mod)

    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mod = rng.choice([2, 3, 4, 8, 12])
        a = random_matrix(rng, m, n)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        b = lin.mat_vec(a, x)
        got = solve_mod(a, b, mod)
        assert got is not None
        assert all(r % mod == 0 for r in lin.vec_sub(lin.mat_vec(a, got), b))
    assert solve_mod(((2,),), (1,), 4) is None
    assert solve_mod(((2,),), (1,), 3) == (2,)


def test_row_hnf_canonical() -> None:
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h = lin.row_hnf(a)
        # Unimodular row operations leave the form unchanged.
        rows = [list(r) for r in a]
        rng.shuffle(rows)
        if len(rows) >= 2:
            rows[0] = [x + 3 * y for x, y in zip(rows[0], rows[1])]
        assert lin.row_hnf(lin.freeze(rows)) == h
        for i, row in enumerate(h):
            piv = next(j for j in range(n) if row[j])
            assert row[piv] > 0
            assert all(0 <= h[k][piv] < row[piv] for k in range(i))


def test_row_hnf_examples() -> None:
    assert lin.row_hnf(((2, 1), (0, 3))) == ((2, 1), (0, 3))
    assert lin.row_hnf(((0, 3), (2, 1))) == ((2, 1), (0, 3))
    assert lin.row_hnf(((1, 1), (-1, -1))) == ((1, 1),)
    assert lin.row_hnf(((0, 0),)) == ()


def odd_divisors(a: lin.Matrix, ncols: int | None = None) -> int:
    """The rank mod 2 as the library takes it: odd Smith divisors."""
    return sum(d % 2 for d in lin.smith_form(a, ncols=ncols).diag)


def test_f2_rank() -> None:
    for count in (reference_f2_rank, odd_divisors):
        assert count(lin.identity(4)) == 4
        assert count(((2, 4), (6, 8))) == 0
        assert count(((1, 1), (1, 1))) == 1
        assert count(((1, 0, 1), (0, 1, 1), (1, 1, 0))) == 2


def test_odd_divisors_match_f2_reference() -> None:
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(0, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        for i in range(m):
            if rng.random() < 0.2:
                rows[i] = [0] * n
        a = lin.freeze(rows)
        assert odd_divisors(a, ncols=n) == reference_f2_rank(a)


def test_det() -> None:
    assert det(lin.identity(3)) == 1
    assert det(((2, 0), (0, 3))) == 6
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 1), (1, 0))) == -1


def test_vector_helpers() -> None:
    assert lin.vec_add((1, 2), (3, 4)) == (4, 6)
    assert lin.vec_sub((1, 2), (3, 4)) == (-2, -2)
    assert lin.vec_scale((1, -2), 3) == (3, -6)
    assert lin.vec_dot((1, 2), (3, 4)) == 11
    assert lin.vec_mod((-1, 5), 4) == (3, 1)
    assert lin.transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert lin.mat_vec(((1, 0), (1, 1)), (2, 3)) == (2, 5)
