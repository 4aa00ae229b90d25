import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import DigitPoint
from skewtherm import BasePoint, CapacityExhaustedError, circle_distance


class TestBasePoint:
    def test_forward_of_dyadic(self):
        x = BasePoint.from_float(0.25, capacity=32)
        assert float(x.forward(1)) == 0.5

    def test_zero_is_fixed(self):
        x = BasePoint.from_float(0.0, capacity=16)
        for k in range(1, 17):
            assert float(x.forward(k)) == 0.0

    def test_forward_third_matches_rational_oracle(self):
        # rational oracle: 2*(2*(1/3) mod 1) mod 1 = 1/3, so two shifts must
        # reproduce the expansion of 1/3 truncated by two digits
        x = BasePoint.from_fraction(1, 3, capacity=128)
        fwd = x.forward(2)
        assert fwd == BasePoint.from_fraction(1, 3, capacity=126)
        assert abs(float(fwd) - 1.0 / 3.0) < 1e-15

    def test_forward_consumes_capacity(self):
        x = BasePoint.from_float(0.3, capacity=10)
        assert x.forward(4).capacity == 6

    def test_capacity_exhausted(self):
        x = BasePoint.from_float(0.3, capacity=5)
        with pytest.raises(CapacityExhaustedError):
            x.forward(6)

    def test_preimages_of_zero(self):
        x = BasePoint.from_float(0.0, capacity=8)
        lo, hi = x.preimages()
        assert float(lo) == 0.0 and float(hi) == 0.5
        assert lo.capacity == x.capacity + 1

    def test_preimages_of_half(self):
        lo, hi = BasePoint.from_float(0.5, capacity=8).preimages()
        assert float(lo) == 0.25 and float(hi) == 0.75

    def test_preimages_of_third_rational_oracle(self):
        x = BasePoint.from_fraction(1, 3, capacity=60)
        lo, hi = x.preimages()
        assert lo == BasePoint.from_fraction(1, 6, capacity=61)
        assert hi == BasePoint.from_fraction(2, 3, capacity=61)

    def test_preimages_invert_forward(self, rng):
        for _ in range(20):
            x = BasePoint.random(rng, capacity=40)
            for branch in x.preimages():
                assert branch.forward(1) == x

    def test_from_bits_round_trip(self):
        x = BasePoint.from_bits("0101")
        assert x.bit_string() == "0101"
        assert float(x) == 0.3125

    def test_add_dyadic_exact(self):
        x = BasePoint.from_fraction(1, 3, capacity=64)
        shifted = x.add_dyadic(1, 6)  # + 2^-6
        assert abs(float(shifted) - (1.0 / 3.0 + 2.0 ** -6)) < 1e-15

    def test_add_dyadic_wraps(self):
        x = BasePoint.from_float(0.75, capacity=16)
        shifted = x.add_dyadic(1, 1)  # + 0.5 wraps to 0.25
        assert float(shifted) == 0.25

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            BasePoint.from_bits("021")


class TestAgainstDigitOracle:
    """The integer BasePoint against digit-by-digit arithmetic, exactly."""

    CAPACITIES = (0, 1, 5, 96, 97, 200)

    @staticmethod
    def same(p, q):
        return (p.capacity == q.capacity and p.bit_string() == q.bit_string()
                and p.value() == q.value())

    @pytest.mark.parametrize("cap", CAPACITIES)
    def test_random_value_forward_preimages(self, cap):
        x = BasePoint.random(np.random.default_rng(cap), cap)
        ref = DigitPoint.random(np.random.default_rng(cap), cap)
        assert self.same(x, ref)
        for k in range(cap + 1):
            assert self.same(x.forward(k), ref.forward(k))
        for p, q in zip(x.preimages(), ref.preimages()):
            assert self.same(p, q)

    @pytest.mark.parametrize("cap", CAPACITIES)
    def test_add_dyadic(self, cap, rng):
        x = BasePoint.random(rng, cap)
        ref = DigitPoint(int(ch) for ch in x.bit_string())
        for scale in range(cap + 1):
            for num in (1, -1, 3, 2 ** 70 + 5):
                assert self.same(x.add_dyadic(num, scale),
                                 ref.add_dyadic(num, scale))

    @pytest.mark.parametrize("cap", CAPACITIES)
    def test_from_fraction(self, cap):
        for num, den in ((1, 3), (-2, 7), (5, 1), (22, 7), (1, 1024),
                         (2 ** 80 + 1, 3 ** 40)):
            assert self.same(BasePoint.from_fraction(num, den, cap),
                             DigitPoint.from_fraction(num, den, cap))

    @pytest.mark.parametrize("cap", CAPACITIES)
    def test_from_float(self, cap, rng):
        for x in (0.0, 0.5, 1.0 / 3.0, 0.999999999, -0.25, 1.75, 5e-324,
                  *rng.uniform(0.0, 1.0, 10)):
            assert self.same(BasePoint.from_float(x, cap),
                             DigitPoint.from_float(x, cap))


class TestCircleDistance:
    def test_wraparound(self):
        assert circle_distance(0.1, 0.9) == pytest.approx(0.2)

    def test_quarter(self):
        assert circle_distance(0.25, 0.5) == pytest.approx(0.25)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_self_distance_zero(self, a):
        assert circle_distance(a, a) == 0.0

    @given(st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_symmetric_and_bounded(self, a, b):
        assert circle_distance(a, b) == circle_distance(b, a)
        assert 0.0 <= circle_distance(a, b) <= 0.5

    @given(st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_triangle_inequality(self, a, b, c):
        assert circle_distance(a, c) <= circle_distance(a, b) + circle_distance(b, c) + 1e-12

    def test_doubling_expands_locally(self, rng):
        # distance doubles under the base map whenever the pair is <= 1/4 apart
        for _ in range(200):
            a = rng.uniform(0, 1)
            d = rng.uniform(0, 0.25)
            b = (a + d) % 1.0
            assert circle_distance((2 * a) % 1.0, (2 * b) % 1.0) == pytest.approx(
                2 * circle_distance(a, b), abs=1e-12)

    def test_array_input(self):
        d = circle_distance(np.array([0.1, 0.5]), np.array([0.9, 0.75]))
        assert d == pytest.approx([0.2, 0.25])
