import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlecount import is_solution, is_trivial, jacobian, validate_system
from circlecount.errors import (
    ArityMismatchError,
    BadDegreeError,
    BadIndicesError,
    NonzeroSumError,
    NotASolutionError,
    ZeroCoefficientError,
)
from circlecount.system import split_halves

from conftest import trivial_count_bound


def _jacobian_closed_form_magnitude(system, x, indices):
    """|k!| * |prod lam_{i}| * |prod of pairwise coordinate differences|."""
    idx = sorted(indices)
    coeff = 1
    for i in idx:
        coeff *= abs(system.coefficients[i - 1])
    vand = 1
    for u in range(len(idx)):
        for v in range(u + 1, len(idx)):
            vand *= abs(x[idx[u] - 1] - x[idx[v] - 1])
    return math.factorial(system.degree) * coeff * vand


def _nonsingular(system, x):
    """True iff some k x k Jacobian minor is nonzero at x."""
    subsets = itertools.combinations(range(1, system.arity + 1), system.degree)
    return any(jacobian(system, x, idx) != 0 for idx in subsets)


class TestValidateSystem:
    def test_valid_quadratic(self):
        sys = validate_system(2, (1, 1, -1, -1))
        assert sys.degree == 2 and sys.arity == 4

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NonzeroSumError):
            validate_system(2, (1, 1, -1))

    def test_valid_linear(self):
        assert validate_system(1, (2, -1, -1)).arity == 3

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroCoefficientError):
            validate_system(2, (1, 0, -1))

    def test_bad_degree_rejected(self):
        with pytest.raises(BadDegreeError):
            validate_system(0, (1, -1))


class TestIsSolution:
    def test_classic_six_variable_solution(self, sys_quad6):
        # 1+5+6 = 2+3+7 and 1+25+36 = 4+9+49
        assert is_solution(sys_quad6, (1, 5, 6, 2, 3, 7))

    def test_equal_pair(self):
        sys = validate_system(1, (1, -1))
        assert is_solution(sys, (3, 3))
        assert not is_solution(sys, (3, 4))

    def test_arity_mismatch(self, sys_quad4):
        with pytest.raises(ArityMismatchError):
            is_solution(sys_quad4, (1, 2, 3))


class TestIsTrivial:
    def test_constant_tuple(self, sys_quad4):
        assert is_trivial(sys_quad4, (4, 4, 4, 4))

    def test_all_distinct_solution_is_nontrivial(self, sys_quad6):
        assert not is_trivial(sys_quad6, (1, 5, 6, 2, 3, 7))

    def test_singleton_classes_with_unbalanced_sums(self, sys_lin3):
        # 2*3 - 2 - 4 = 0 but classes {3}, {2}, {4} have sums 2, -1, -1
        assert not is_trivial(sys_lin3, (3, 2, 4))

    def test_non_solution_rejected(self, sys_quad4):
        with pytest.raises(NotASolutionError):
            is_trivial(sys_quad4, (1, 2, 3, 4))


class TestIsNonsingular:
    def test_two_values_suffice_for_k2(self, sys_quad4):
        assert _nonsingular(sys_quad4, (1, 2, 2, 1))

    def test_constant_tuple_singular(self, sys_quad4):
        assert not _nonsingular(sys_quad4, (5, 5, 5, 5))

    def test_six_distinct_values(self):
        sys = validate_system(3, (1, 1, 1, -1, -1, -1))
        assert _nonsingular(sys, (1, 5, 6, 2, 3, 7))


class TestJacobian:
    def test_two_by_two_example(self, sys_quad4):
        det = jacobian(sys_quad4, (1, 2, 2, 1), (1, 2))
        assert abs(det) == 2  # det [[1,1],[2,4]] up to row/column convention

    def test_repeated_value_vanishes(self, sys_quad4):
        assert jacobian(sys_quad4, (7, 7, 3, 1), (1, 2)) == 0

    def test_k1_is_the_coefficient(self, sys_lin3):
        assert jacobian(sys_lin3, (3, 2, 4), (1,)) == 2

    def test_bad_indices(self, sys_quad4):
        with pytest.raises(BadIndicesError):
            jacobian(sys_quad4, (1, 2, 3, 4), (1, 1))
        with pytest.raises(BadIndicesError):
            jacobian(sys_quad4, (1, 2, 3, 4), (0, 2))

    def test_closed_form_exhaustive_s4(self, sys_quad4):
        subsets = list(itertools.combinations(range(1, 5), 2))
        for x in itertools.product(range(1, 7), repeat=4):
            for idx in subsets:
                assert abs(jacobian(sys_quad4, x, idx)) == (
                    _jacobian_closed_form_magnitude(sys_quad4, x, idx)
                )

    def test_closed_form_and_nonsingularity_s6(self, sys_quad6):
        # exhaustive over [1,6]^6: closed-form magnitude everywhere, and
        # >= k distinct values iff some k-subset has a nonzero Jacobian
        subsets = list(itertools.combinations(range(1, 7), 2))
        for x in itertools.product(range(1, 7), repeat=6):
            nonzero = False
            for idx in subsets:
                det = jacobian(sys_quad6, x, idx)
                assert abs(det) == _jacobian_closed_form_magnitude(
                    sys_quad6, x, idx
                )
                if det != 0:
                    nonzero = True
            assert nonzero == (len(set(x)) >= sys_quad6.degree)


class TestSplitHalves:
    def test_mirrored_systems_take_their_positives(self):
        assert split_halves((1, 1, 1, -1, -1, -1)) == [(1, 1, 1)]
        assert split_halves((1, -1, 1, -1, 1, -1)) == [(1, 1, 1)]
        # mirrored by sign, though its first half does not negate its last
        assert split_halves((1, 1, -1, 2, -1, -2)) == [(1, 1, 2)]
        assert split_halves((2, -2, 1, -1, -3, 3)) == [(2, 1, 3)]

    def test_other_systems_split_by_position(self):
        assert split_halves((2, 1, -1, -1, -1)) == [(2, 1, -1), (1, 1)]
        assert split_halves((2, -1, -1)) == [(2, -1), (1,)]
        assert split_halves((3, -1, -1, 2, -2, -1)) == [(3, -1, -1), (-2, 2, 1)]


class TestTrivialCountBound:
    # the oracle is the square of floor(s/2)! * cardinality^(s/2)
    def test_small_values(self, sys_quad4):
        assert trivial_count_bound(sys_quad4, 3) == 18**2

    def test_two_variables(self):
        sys = validate_system(1, (1, -1))
        assert trivial_count_bound(sys, 10) == 10**2

    def test_six_variables(self, sys_quad6):
        assert trivial_count_bound(sys_quad6, 100) == (6 * 10**6) ** 2

    def test_huge_cardinality_is_exact(self, sys_quad6):
        assert trivial_count_bound(sys_quad6, 10**40) == (6 * 10**120) ** 2

    def test_odd_arity_needs_no_square_root(self, sys_lin3):
        # 1! * 3^(3/2) squared
        assert trivial_count_bound(sys_lin3, 3) == 27


class TestInvariances:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_dilation_and_translation(self, scale, seed):
        rnd = random.Random(seed)
        sys = validate_system(2, (1, 1, -1, -1))
        x = tuple(rnd.randint(1, 9) for _ in range(4))
        cx = tuple(scale * v for v in x)
        shift = rnd.randint(0, 5)
        shifted = tuple(v + shift for v in x)
        assert is_solution(sys, x) == is_solution(sys, cx)
        assert is_solution(sys, x) == is_solution(sys, shifted)
        assert _nonsingular(sys, x) == _nonsingular(sys, cx)
        if is_solution(sys, x):
            assert is_trivial(sys, x) == is_trivial(sys, cx)
            assert is_trivial(sys, x) == is_trivial(sys, shifted)

    def test_trivial_implies_solution_exhaustive(self, sys_quad4):
        for x in itertools.product(range(1, 5), repeat=4):
            sums: dict[int, int] = {}
            for c, v in zip(sys_quad4.coefficients, x):
                sums[v] = sums.get(v, 0) + c
            if all(t == 0 for t in sums.values()):
                assert is_solution(sys_quad4, x)
                assert is_trivial(sys_quad4, x)
