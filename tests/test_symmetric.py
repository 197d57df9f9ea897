"""Grid certification of the symmetric power expansions."""

import json
import random
from fractions import Fraction as F
from itertools import product
from math import prod
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import assume, given, strategies as st

from oracles import coeffs_by_fractions, random_params_by_fractions, term_rows, verdict_by_cleared
from triboconv import symmetric_identities
from triboconv.cli import main
from triboconv.identity_catalog import PRINTED
from triboconv.symmetric_identities import (
    DEPENDENT,
    FREE,
    TERMS,
    _blocks,
    _cleared,
    _combine,
    _draw_vector,
    _grid_equations,
    _projected_equations,
    coeffs,
    random_pairs,
    random_params,
    rhs,
    verify_draws,
    verify_sym_identity,
)


def _dependent(r, params):
    """Coefficients of the dependent terms, in name order."""
    cs = coeffs(r, params)
    return tuple(cs[k] for k in sorted(DEPENDENT[r]))


class TestConstraintFormulas:
    def test_coeffs3_at_zero(self):
        assert _dependent(3, {"D": F(0)}) == (-2, 6, 3)

    def test_coeffs3_at_three(self):
        assert _dependent(3, {"D": F(3)}) == (1, -3, 0)

    def test_coeffs3_at_two(self):
        assert _dependent(3, {"D": F(2)}) == (0, 0, 1)

    def test_coeffs4_remark_point(self):
        # D = 3 with E = G = H = 0 forces F = 0
        assert _dependent(4, {"D": F(3)}) == (-6, 4, 0, 12)

    def test_coeffs4_all_zero(self):
        assert _dependent(4, {}) == (-3, 4, 6, 0)

    def test_coeffs5_remark_point(self):
        # D = 15 with the other free parameters zero forces B = 0
        assert _dependent(5, {"D": F(15)}) == (-14, 0, 5, 5, 10)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_printed_free_point_gives_printed_literals(self, r):
        # the R form of T_(r-1), and P3 for r = 2, is GT_r's printed row
        point = {k: PRINTED[r].get(k, 0) for k in FREE[r]}
        assert coeffs(r, point) == {k: PRINTED[r].get(k, 0) for k in TERMS[r]}

    def test_free_names_in_draw_order(self):
        assert FREE == {2: (), 3: ("D",), 4: tuple("DEGH"), 5: tuple("DILNPQRS")}

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            coeffs(3, {"A": F(1)})


class TestGridCertification:
    def test_cubic_at_d_zero(self):
        assert verify_sym_identity(3, {"D": F(0)}, 6)

    def test_cubic_spot_value(self):
        # at (1,1,1) with D=0: 27 = -2*3 + 6 + 3*9
        assert F(3) ** 3 == rhs(3, {"D": F(0)}, F(1), F(1), F(1)) == -2 * 3 + 6 + 3 * 9

    def test_quartic_remark_point(self):
        assert verify_sym_identity(4, {"D": F(3)}, 6)

    def test_quintic_fixed_seed_random(self):
        rng = random.Random(7)
        assert verify_sym_identity(5, random_params(5, rng), 6)

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_twenty_fixed_seed_draws(self, degree):
        rng = random.Random(f"grid:{degree}")
        for _ in range(20):
            assert verify_sym_identity(degree, random_params(degree, rng), 6)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            verify_sym_identity(3, {"D": F(0)}, 3)

    def test_unknown_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_sym_identity(6, {"D": F(0)}, 7)

    def test_square(self):
        assert verify_sym_identity(2, {}, 3)

    @pytest.mark.parametrize("degree", [1, 6])
    def test_degree_outside_two_to_five_rejected(self, degree):
        with pytest.raises(ValueError):
            verify_sym_identity(degree, {}, degree + 1)
        with pytest.raises(ValueError):
            random_params(degree, random.Random(0))


def _fraction_grid(r, params, grid_size):
    """Oracle: the Fraction right side against (a+b+c)^r at every grid point."""
    return all(
        rhs(r, params, a, b, c) == (a + b + c) ** r
        for a, b, c in product(range(grid_size), repeat=3)
    )


#: a degree-5 draw whose coefficients carry large coprime denominators.
COPRIME_DRAW = {"D": F(1, 9973), "I": F(-7, 9967), "L": F(9972, 9973), "S": F(3, 9967)}


class TestIntegerGrid:
    """The integer grid path against the Fraction definition."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_term_rows_are_the_blocks_at_each_point(self, r):
        rows = term_rows(r, 6)
        points = list(product(range(6), repeat=3))
        assert len(rows) == len(points)
        for (a, b, c), (lhs, terms) in zip(points, rows):
            blocks = _blocks(a, b, c)
            assert lhs == (a + b + c) ** r
            assert terms == tuple(_combine(r, {j: int(j == k) for j in TERMS[r]}, blocks)
                                  for k in TERMS[r])

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_seeded_draws_agree_with_fractions(self, r):
        rng = random.Random(f"oracle:{r}")
        for _ in range(5):
            params = random_params(r, rng, bound=10**6)
            assert verify_sym_identity(r, params, 6) is _fraction_grid(r, params, 6) is True

    def test_coprime_denominators_agree_with_fractions(self):
        assert verify_sym_identity(5, COPRIME_DRAW, 6) is _fraction_grid(5, COPRIME_DRAW, 6) is True

    @pytest.mark.parametrize("r,term", [(r, k) for r in (2, 3, 4, 5) for k in DEPENDENT[r]])
    def test_constraint_shifted_by_a_small_fraction_fails_both(self, r, term, monkeypatch):
        const, form = DEPENDENT[r][term]
        monkeypatch.setitem(DEPENDENT[r], term, (const + F(1, 9973), form))
        params = COPRIME_DRAW if r == 5 else random_params(r, random.Random(r))
        assert verify_sym_identity(r, params, 6) is _fraction_grid(r, params, 6) is False


class TestIntegerCoefficients:
    """coeffs, the Fraction view of the integer constraint evaluation,
    against the constraints evaluated in Fractions."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_seeded_draws_match_the_fraction_loop(self, r):
        rng = random.Random(f"cleared:{r}")
        for _ in range(20):
            params = random_params(r, rng, bound=10**6)
            assert coeffs(r, params) == coeffs_by_fractions(r, params)

    def test_coprime_draw_matches_the_fraction_loop(self):
        assert coeffs(5, COPRIME_DRAW) == coeffs_by_fractions(5, COPRIME_DRAW)

    def test_fraction_constraint_entries_stay_integral(self, monkeypatch):
        # a Fraction constant and a Fraction coefficient of a Fraction
        # parameter: with den the lcm of all denominators, 1/3 * (den / 3)
        # would not be an integer
        const, form = DEPENDENT[4]["A"]
        monkeypatch.setitem(DEPENDENT[4], "A", (const + F(1, 9973), {**form, "D": F(1, 3)}))
        params = {"D": F(1, 3), "E": F(2, 9973), "H": F(-5, 7)}
        den, ns = _cleared(4, params)
        assert all(F(n).denominator == 1 for n in ns.values())
        assert coeffs(4, params) == coeffs_by_fractions(4, params)


def _point_row(r, point):
    """(-(a+b+c)^r, term values) at one point, from the blocks."""
    blocks = _blocks(*point)
    return (-sum(point) ** r, *(prod(blocks[x] for x in bs) for bs in TERMS[r].values()))


def _rank(rows):
    """Rank over Q by Fraction elimination."""
    rows, rank = [list(map(F, row)) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _null_basis(r):
    """Integer vectors (den, term coefficients) spanning every valid draw:
    den = 1 at all free parameters 0, and den = 0 with one free parameter 1."""
    zero = coeffs_by_fractions(r, {})
    vectors = [(1, *zero.values())]
    for k in FREE[r]:
        unit = coeffs_by_fractions(r, {k: 1})
        vectors.append((0, *(unit[t] - zero[t] for t in TERMS[r])))
    return [tuple(int(x) for x in v) for v in vectors]


@st.composite
def _grid_vectors(draw):
    """(r, grid, integer vector, whether it is a null-space combination):
    a combination of _null_basis, half of them with one coordinate off by 1."""
    r = draw(st.sampled_from([2, 3, 4, 5]))
    grid = draw(st.sampled_from([r + 1, 6, 12]))
    basis = _null_basis(r)
    weights = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(basis), max_size=len(basis)))
    vector = [sum(w * v[i] for w, v in zip(weights, basis)) for i in range(len(basis[0]))]
    shift = draw(st.none() | st.tuples(st.integers(0, len(vector) - 1), st.sampled_from([-1, 1])))
    if shift is not None:
        vector[shift[0]] += shift[1]
    return r, grid, tuple(vector), shift is None


class TestGridEquations:
    """The few basis rows against the rows of every grid point."""

    @pytest.mark.parametrize("r,grid", [(r, g) for r in (2, 3, 4, 5) for g in sorted({r + 1, 6, 12})])
    def test_rank_is_the_dependent_count(self, r, grid):
        rows = _grid_equations(r, grid)
        assert len(rows) == _rank(rows) == len(DEPENDENT[r])

    @pytest.mark.parametrize("r,grid", [(r, g) for r in (2, 3, 4, 5) for g in (6, 12)])
    def test_every_point_row_is_its_sorted_point_row_in_the_span(self, r, grid):
        basis = _grid_equations(r, grid)
        rows = set()
        for point in product(range(grid), repeat=3):
            row = _point_row(r, point)
            assert row == _point_row(r, sorted(point))
            rows.add(row)
        rank = _rank(basis)
        assert all(_rank([*basis, row]) == rank for row in rows)

    @given(_grid_vectors())
    def test_basis_check_is_the_all_points_check(self, case):
        r, grid, vector, in_null_space = case
        by_basis = all(sum(map(mul, vector, row)) == 0 for row in _grid_equations(r, grid))
        by_points = all(vector[0] * lhs == sum(map(mul, vector[1:], terms))
                        for lhs, terms in term_rows(r, grid))
        assert by_basis is by_points is in_null_space


def _columns_nonzero(rows, r):
    """Per column of the projected equations, whether any row is nonzero there."""
    return [any(row[j] for row in rows) for j in range(1 + len(FREE[r]))]


class TestProjectedEquations:
    """The grid equations projected onto a draw's (den, den * p for p in
    FREE[r]).  They are zero for the printed constraints: with
    test_rank_is_the_dependent_count, the printed family is the grid's whole
    solution space, and it holds at every parameter value."""

    @pytest.mark.parametrize("r,grid", [(r, g) for r in (2, 3, 4, 5) for g in sorted({r + 1, 6, 12})])
    def test_zero_for_the_printed_constraints(self, r, grid):
        assert _projected_equations(r, grid) == [[0] * (1 + len(FREE[r]))] * len(DEPENDENT[r])

    @pytest.mark.parametrize("r,term,shift", [(r, k, s) for r in (2, 3, 4, 5) for k in DEPENDENT[r]
                                              for s in (1, F(1, 9973))])
    def test_a_shifted_constant_makes_column_0_nonzero(self, r, term, shift, monkeypatch):
        const, form = DEPENDENT[r][term]
        monkeypatch.setitem(DEPENDENT[r], term, (const + shift, form))
        rows = _projected_equations(r, 6)
        assert all(type(x) is int for row in rows for x in row)
        assert _columns_nonzero(rows, r) == [True, *(False for _ in FREE[r])]

    @pytest.mark.parametrize("r,term,name", [(r, k, n) for r in (3, 4, 5) for k, (_, form) in DEPENDENT[r].items()
                                             for n in form])
    def test_a_shifted_form_coefficient_makes_its_column_nonzero(self, r, term, name, monkeypatch):
        const, form = DEPENDENT[r][term]
        monkeypatch.setitem(DEPENDENT[r], term, (const, {**form, name: form[name] + 1}))
        assert _columns_nonzero(_projected_equations(r, 6), r) == [False, *(k == name for k in FREE[r])]


def _pairs(r, params):
    """The draw's (numerator, denominator) pairs in FREE[r] order."""
    return [F(params.get(k, 0)).as_integer_ratio() for k in FREE[r]]


def _move(monkeypatch, r, constant=0, coefficient=0):
    """Move the first printed constraint of degree r: its constant by
    ``constant``, its first free parameter's coefficient by ``coefficient``."""
    term, (const, form) = next(iter(DEPENDENT[r].items()))
    name = FREE[r][0] if FREE[r] else None
    moved = {**form, name: form.get(name, 0) + coefficient} if coefficient else form
    monkeypatch.setitem(DEPENDENT[r], term, (const + constant, moved))


#: family name -> (constant shift, coefficient shift) of the first constraint
FAMILIES = {"printed": (0, 0), "constant": (F(1, 9973), 0), "coefficient": (0, 1)}


class TestProjectedVerdict:
    """The check on the projected equations against the cleared draw dotted
    with every grid equation (``verdict_by_cleared``), on printed and moved
    families."""

    @pytest.mark.parametrize("r,family", [(r, f) for r in (2, 3, 4, 5) for f in FAMILIES
                                          if r > 2 or f != "coefficient"])
    def test_seeded_draws_agree_with_the_cleared_check(self, r, family, monkeypatch):
        _move(monkeypatch, r, *FAMILIES[family])
        rng = random.Random(f"projected:{r}")
        for _ in range(5):
            params = random_params(r, rng, bound=10**6)
            expected = verdict_by_cleared(r, params, 6)
            assert expected is (family == "printed")
            assert verify_sym_identity(r, params, 6) is verify_draws(r, [_pairs(r, params)], 6) is expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_coprime_draw_agrees_with_the_cleared_check(self, family, monkeypatch):
        _move(monkeypatch, 5, *FAMILIES[family])
        expected = verdict_by_cleared(5, COPRIME_DRAW, 6)
        assert expected is (family == "printed")
        assert (verify_sym_identity(5, COPRIME_DRAW, 6) is verify_draws(5, [_pairs(5, COPRIME_DRAW)], 6)
                is expected)

    @pytest.mark.parametrize("r,name", [(r, k) for r in (3, 4, 5) for k in FREE[r]])
    def test_a_family_moved_through_the_draw_passes_only_there(self, r, name, monkeypatch):
        # the first constraint's constant falls by p and its coefficient of
        # name rises by 1: its term keeps its value at the draw only
        params = COPRIME_DRAW if r == 5 else random_params(r, random.Random(f"through:{r}"))
        term, (const, form) = next(iter(DEPENDENT[r].items()))
        p = params.get(name, 0)
        monkeypatch.setitem(DEPENDENT[r], term, (const - p, {**form, name: form.get(name, 0) + 1}))
        elsewhere = {**params, name: p + F(1, 3)}
        for point, expected in ((params, True), (elsewhere, False)):
            assert verdict_by_cleared(r, point, 6) is expected
            assert verify_sym_identity(r, point, 6) is verify_draws(r, [_pairs(r, point)], 6) is expected

    @given(_grid_vectors())
    def test_a_family_through_each_hypothesis_vector(self, case):
        # the constants are moved so that the family's cleared draw at the
        # vector's parameters is the vector itself, so its verdict is the
        # vector's
        r, grid, vector, in_null_space = case
        den = vector[0]
        assume(den != 0)
        position = {k: i for i, k in enumerate(TERMS[r], 1)}
        params = {k: F(vector[position[k]], den) for k in FREE[r]}
        moved = {t: (F(vector[position[t]], den) - sum(c * params[n] for n, c in form.items()), form)
                 for t, (_, form) in DEPENDENT[r].items()}
        sign = 1 if den > 0 else -1
        pairs = [(sign * vector[position[k]], sign * den) for k in FREE[r]]
        with patch.dict(DEPENDENT[r], moved):
            assert verdict_by_cleared(r, params, grid) is in_null_space
            assert verify_sym_identity(r, params, grid) is verify_draws(r, [pairs], grid) is in_null_space

    @pytest.mark.parametrize("r,family", [(r, f) for r in (3, 4, 5) for f in FAMILIES])
    def test_unreduced_pairs_give_a_positive_multiple_and_the_same_verdict(self, r, family, monkeypatch):
        _move(monkeypatch, r, *FAMILIES[family])
        rng = random.Random(f"unreduced:{r}")
        for k in (2, 7, 9973):
            pairs = random_pairs(r, rng)
            scaled = [(a * k, b * k) for a, b in pairs]
            v, w = _draw_vector(pairs), _draw_vector(scaled)
            assert w[0] > 0 and all(x * w[0] == y * v[0] for x, y in zip(v, w))
            params = {name: F(a, b) for name, (a, b) in zip(FREE[r], pairs)}
            assert verify_draws(r, [scaled], 6) is verify_draws(r, [pairs], 6) is verdict_by_cleared(r, params, 6)

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_cli_draws_reduce_to_random_params(self, degree):
        seed = f"0:sym{degree}"
        pair_rng, param_rng, oracle_rng = (random.Random(seed) for _ in range(3))
        for _ in range(20):
            drawn = {k: F(a, b) for k, (a, b) in zip(FREE[degree], random_pairs(degree, pair_rng))}
            assert drawn == random_params(degree, param_rng) == random_params_by_fractions(degree, oracle_rng)

    def test_draws_stop_at_the_first_failing_draw(self, monkeypatch):
        _move(monkeypatch, 4, 1)
        rng = random.Random(4)
        drawn = []

        def draws():
            for _ in range(3):
                drawn.append(random_pairs(4, rng))
                yield drawn[-1]

        assert not verify_draws(4, draws(), 6)
        assert len(drawn) == 1

    def test_symcheck_projects_once_per_degree(self, monkeypatch, capsys):
        calls = []
        project = symmetric_identities._projected_equations

        def counted(r, grid_size):
            calls.append((r, grid_size))
            return project(r, grid_size)

        monkeypatch.setattr(symmetric_identities, "_projected_equations", counted)
        assert main(["symcheck", "--draws", "20", "--grid", "7"]) == 0
        assert calls == [(3, 7), (4, 7), (5, 7)]

    @pytest.mark.parametrize("degree,grid", [(6, 7), (1, 6), (5, 5)])
    def test_draws_outside_the_families_or_on_a_small_grid_rejected(self, degree, grid):
        with pytest.raises(ValueError):
            verify_draws(degree, [], grid)


class TestFailurePath:
    """One printed constraint constant off by one must fail the grid."""

    @pytest.fixture
    def mutated(self, monkeypatch):
        const, form = DEPENDENT[5]["A"]
        monkeypatch.setitem(DEPENDENT[5], "A", (const + 1, form))

    def test_mutated_constant_fails_grid(self, mutated):
        assert DEPENDENT[5]["A"][0] == -13
        assert not verify_sym_identity(5, random_params(5, random.Random(7)), 6)

    def test_mutated_constant_fails_symcheck(self, mutated, capsys):
        assert main(["symcheck", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(row["degree"], row["status"]) for row in doc["rows"]] == [
            ("3", "pass"), ("4", "pass"), ("5", "fail")]
        assert doc["verdict"] == "fail"

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_shifted_constant_fails_symcheck_at_the_cap(self, r, monkeypatch, capsys):
        term = next(iter(DEPENDENT[r]))
        const, form = DEPENDENT[r][term]
        monkeypatch.setitem(DEPENDENT[r], term, (const + 1, form))
        assert main(["symcheck", "--draws", "2000", "--grid", "12", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [(row["degree"], row["status"]) for row in doc["rows"]] == [
            (str(d), "fail" if d == r else "pass") for d in (3, 4, 5)]
        assert doc["verdict"] == "fail"


class TestParameterLinearity:
    def test_cubic_rhs_is_parameter_independent(self):
        # the D-coefficient of the cubic right side vanishes identically,
        # so holding at one D certifies the family; spot check on a grid
        rng = random.Random(11)
        for _ in range(50):
            a, b, c = (F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3))
            assert rhs(3, {"D": F(1)}, a, b, c) == rhs(3, {"D": F(-4, 3)}, a, b, c)
