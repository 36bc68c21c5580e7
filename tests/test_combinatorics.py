"""Partitions, set partitions, and exact t-polynomials."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tuttekit import combinatorics
from tuttekit.combinatorics import (
    ONEP_T_CACHE_SIZE,
    DomainError,
    TPoly,
    augmentation_factor,
    enumerate_set_partitions,
    format_rational,
    multinomial,
    normalize_blocks,
    onep_t_power,
    parse_rational,
    partitions_of,
    resolve_bound,
    sorted_partition,
)
import reference
from reference import lambda_of


def bell_numbers(limit):
    """Bell triangle recurrence, independent of the enumerator under test."""
    row = [1]
    out = [1]
    for _ in range(limit):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        out.append(row[0])
    return out


def test_set_partition_counts_match_bell():
    bells = bell_numbers(8)
    for n in range(9):
        assert sum(1 for _ in enumerate_set_partitions(n)) == bells[n]


def test_set_partition_order_pins():
    parts = list(enumerate_set_partitions(3))
    assert parts[0] == ((1, 2, 3),)
    assert parts[-1] == ((1,), (2,), (3,))
    assert len(parts) == len(set(parts))
    # every block ascending, blocks ordered by minimum
    for pi in parts:
        assert all(b == tuple(sorted(b)) for b in pi)
        assert [b[0] for b in pi] == sorted(b[0] for b in pi)


def test_empty_ground_set_has_one_partition():
    assert list(enumerate_set_partitions(0)) == [()]


def test_partitions_of_counts():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(known):
        got = list(partitions_of(n))
        assert len(got) == want
        assert all(lam == tuple(sorted(lam, reverse=True)) for lam in got)
        assert all(sum(lam) == n for lam in got)


def test_partition_helpers():
    assert augmentation_factor((2, 2, 1, 1, 1)) == 2 * 6
    assert sorted_partition([1, 3, 2]) == (3, 2, 1)
    assert lambda_of(((1, 2), (3,))) == (2, 1)
    assert lambda_of(((1, 2), (3,)), weights=[2, 1, 5]) == (5, 3)


def test_normalize_and_shorthand():
    assert normalize_blocks(3, [[3], [1, 2]]) == ((1, 2), (3,))
    # a block given as a one-shot iterator is read once
    assert normalize_blocks(2, [iter((1, 2))]) == ((1, 2),)
    with pytest.raises(DomainError, match="repeated element inside block \\(1, 1\\)"):
        normalize_blocks(1, [iter((1, 1))])
    with pytest.raises(DomainError):
        normalize_blocks(3, [[1, 2]])
    with pytest.raises(DomainError):
        normalize_blocks(3, [[1, 2], [2, 3]])


def test_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    for bad in ("abc", "1/x", "", "1/0", 3):
        with pytest.raises(DomainError):
            parse_rational(bad)
    assert format_rational(Fraction(5, 10)) == "1/2"
    assert format_rational(Fraction(-3)) == "-3/1"
    # past the interpreter's int-to-text limit: a domain error naming the limit
    with pytest.raises(DomainError, match=f"more than {sys.get_int_max_str_digits()} digits"):
        format_rational(Fraction(1, 10 ** sys.get_int_max_str_digits()))


def test_tpoly_arithmetic():
    t = TPoly.t()
    p = (1 + t) * (1 + t)
    assert p.coeffs == (Fraction(1), Fraction(2), Fraction(1))
    assert (p - p).is_zero()
    assert p.evaluate(Fraction(-1)) == 0
    assert (t**3).degree() == 3
    assert TPoly.of(Fraction(1, 2)).constant_value() == Fraction(1, 2)
    with pytest.raises(DomainError):
        t.constant_value()


def test_onep_t_power_pins():
    assert onep_t_power(0) == TPoly.one()
    assert onep_t_power(2).coeffs == (Fraction(1), Fraction(2), Fraction(1))


def test_onep_t_power_keeps_no_row_past_its_cap():
    # a row grows as k^2, so only the rows below the cap are kept
    want = reference.onep_t_power(8000)
    assert onep_t_power(8000) == want == onep_t_power(8000)
    for k in range(8001, 8006):
        onep_t_power(k)
    assert onep_t_power(ONEP_T_CACHE_SIZE - 1) is onep_t_power(ONEP_T_CACHE_SIZE - 1)
    assert max(combinatorics._onep_t_rows) == ONEP_T_CACHE_SIZE - 1


def test_onep_t_transform_pins():
    t = TPoly.t()
    # t = (1+t) - 1
    assert t.onep_t_powers() == (Fraction(-1), Fraction(1))
    # t^2 = (1+t)^2 - 2(1+t) + 1
    assert (t * t).onep_t_powers() == (Fraction(1), Fraction(-2), Fraction(1))


def test_onep_t_rows_and_shifts_match_the_binomial_references():
    rng = random.Random(13)
    for k in range(301):
        assert onep_t_power(k) == reference.onep_t_power(k)
    for d in [*range(41), *range(50, 301, 50)]:
        ints = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(d)] + [rng.randint(1, 99)]
        fracs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(d + 1)]
        for coeffs in (ints, fracs):
            p = TPoly(coeffs)
            got, want = p.onep_t_powers(), reference.onep_t_powers(p)
            assert got == want and list(map(type, got)) == list(map(type, want)), d
            assert TPoly.from_onep_t_powers(coeffs) == reference.from_onep_t_powers(coeffs), d


@given(st.lists(st.integers(-9, 9), max_size=7))
def test_onep_t_transform_roundtrip(coeffs):
    p = TPoly([Fraction(c) for c in coeffs])
    assert TPoly.from_onep_t_powers(p.onep_t_powers()) == p


@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(-3, 3))
def test_onep_t_powers_evaluate_consistently(coeffs, v):
    p = TPoly([Fraction(c) for c in coeffs])
    direct = p.evaluate(Fraction(v))
    via = sum(
        c * (1 + Fraction(v)) ** k for k, c in enumerate(p.onep_t_powers())
    )
    assert direct == via


def test_tpoly_string_roundtrip():
    p = TPoly([Fraction(1, 2), Fraction(-3)])
    assert TPoly.from_strings(p.to_strings()) == p


def test_integral_strings_parse_to_ints():
    p = TPoly.from_strings(["3/1", "1/2", "-4/2"])
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    assert p.coeffs == (3, Fraction(1, 2), -2)


def test_multinomial():
    assert multinomial([2, 1, 1]) == 12
    assert multinomial([0, 0]) == 1


def test_resolve_bound(monkeypatch):
    monkeypatch.delenv("TUTTEKIT_MAX_N", raising=False)
    assert resolve_bound(10) == 10
    monkeypatch.setenv("TUTTEKIT_MAX_N", "13")
    assert resolve_bound(10) == 13
    monkeypatch.setenv("TUTTEKIT_MAX_N", "junk")
    with pytest.raises(DomainError):
        resolve_bound(10)
    monkeypatch.setenv("TUTTEKIT_MAX_N", "-5")
    with pytest.raises(DomainError, match="nonnegative"):
        resolve_bound(10)
