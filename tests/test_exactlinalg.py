import random
from fractions import Fraction

import pytest

from semiam.exactlinalg import SparseEliminator, rat, rat_decimal, rat_str


def test_rat_parsing_and_reduction():
    assert rat("4/8") == Fraction(1, 2)
    assert rat("-3/4") == Fraction(-3, 4)
    assert rat(" 7 ") == 7
    assert rat(5) == 5
    assert rat(Fraction(2, 3)) == Fraction(2, 3)
    # always reduced, denominator positive
    q = Fraction(3, -6)
    assert (q.numerator, q.denominator) == (-1, 2)
    assert rat("0/5") == 0


def test_rat_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(ValueError):
        rat("abc")
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


@pytest.mark.parametrize("text", [
    "1e9999999", "1E5", "0.5", ".5", "1_000", "1/-2", "1 /2", "/2", "2/", "",
    "nan", "inf",
])
def test_rat_takes_only_digits_over_digits(text):
    # Fraction() would read an exponent and expand 1e9999999 digit by digit
    with pytest.raises(ValueError):
        rat(text)


def test_rat_string_forms():
    assert rat("+5") == 5
    assert rat("\t-12/18\n") == Fraction(-2, 3)
    assert rat("007/010") == Fraction(7, 10)
    # whitespace and digits as str.strip() and int() read them
    assert rat("\u00a05\u2003") == 5
    assert rat("\u0665/\u0662") == Fraction(5, 2)
    # past the int digit limit: a ValueError, not a long conversion
    with pytest.raises(ValueError):
        rat("1" * 5000)


def test_rat_str():
    assert rat_str(Fraction(7)) == "7"
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(0) == "0"


def test_rat_decimal_truncates_toward_zero():
    assert rat_decimal(Fraction(1, 3)) == "0.333333"
    assert rat_decimal(Fraction(2, 3)) == "0.666666"
    assert rat_decimal(Fraction(-2, 3)) == "-0.666666"
    assert rat_decimal(Fraction(-1, 8)) == "-0.125000"
    assert rat_decimal(Fraction(41)) == "41.000000"
    assert rat_decimal(Fraction(5, 2), digits=1) == "2.5"
    assert rat_decimal(Fraction(5, 2), digits=0) == "2"


def solve_rows(rows, rhs):
    """Feed the rows of a dense system a x = b to a SparseEliminator."""
    elim = SparseEliminator(len(rows[0]))
    for i, row in enumerate(rows):
        elim.add_row(dict(enumerate(row)), rhs[i], tag=i)
    return elim.solve()


def test_solve_unique_golden():
    sol = solve_rows([[1, 1], [1, -1]], [3, 1])
    assert sol.status == "unique"
    assert sol.vector == (Fraction(2), Fraction(1))


def test_solve_inconsistent_witness():
    sol = solve_rows([[1, 1], [1, 1]], [1, 2])
    assert sol.status == "none"
    assert sol.inconsistent_row == 1


def test_solve_underdetermined_free_column():
    sol = solve_rows([[1, 1], [2, 2]], [1, 2])
    assert sol.status == "many"
    assert sol.free_column == 1


def test_solve_rational_entries():
    # x/2 + y/3 = 1 and x/5 + y/7 = 0, each row scaled to integers
    sol = solve_rows([[3, 2], [7, 5]], [6, 0])
    assert sol.status == "unique"
    x, y = sol.vector
    assert x / 2 + y / 3 == 1
    assert x / 5 + y / 7 == 0


def test_solve_seeded_roundtrip():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(n)]
        sol = solve_rows(a, b)
        # constructed to be consistent, so never "none"
        assert sol.status in ("unique", "many")
        if sol.status == "unique":
            for i in range(n):
                assert sum(a[i][j] * sol.vector[j] for j in range(n)) == b[i]


def test_eliminator_early_stop_then_consistent_extras():
    elim = SparseEliminator(2)
    assert elim.add_row({0: 1}, 2, tag="a") == "pivot"
    assert elim.add_row({1: 1}, 3, tag="b") == "pivot"
    assert elim.full_rank()
    assert elim.add_row({0: 1, 1: 1}, 5, tag="c") == "dependent"
    sol = elim.solve()
    assert sol.status == "unique"
    assert sol.vector == (Fraction(2), Fraction(3))


def test_eliminator_records_first_inconsistency():
    elim = SparseEliminator(1)
    elim.add_row({0: 2}, 4, tag="first")
    assert elim.add_row({0: 1}, 3, tag="bad") == "inconsistent"
    assert elim.solve().status == "none"
    assert elim.solve().inconsistent_row == "bad"
