"""Exact arithmetic for the doubling map on the circle.

A point x in [0,1) is stored as an exact dyadic rational num / 2**capacity,
with num a Python integer of capacity binary digits, most significant digit
first.  The doubling map drops the leading digit, so forward orbits are
exact: each iterate consumes one digit of capacity instead of losing one bit
of float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExhaustedError

DEFAULT_CAPACITY = 128

# Bits used when converting a digit sequence to float; anything past the
# leading ~60 bits is below double precision.
_FLOAT_BITS = 96


@dataclass(frozen=True)
class BasePoint:
    """The circle point num / 2**capacity.

    ``capacity`` is the number of binary digits that remain available, i.e.
    the number of forward iterates that can still be taken.  Dropped digits
    are gone for good: a point of capacity c carries exactly c digits.
    """

    num: int
    capacity: int

    def __post_init__(self):
        if self.capacity < 0 or not 0 <= self.num < 1 << self.capacity:
            raise ValueError("need 0 <= num < 2**capacity")

    @classmethod
    def from_bits(cls, s: str) -> "BasePoint":
        if s.strip("01"):
            raise ValueError("digits must be 0 or 1")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def from_float(cls, x: float, capacity: int = DEFAULT_CAPACITY) -> "BasePoint":
        """The leading capacity digits of x (mod 1), taken exactly."""
        if not 0.0 <= x < 1.0:
            x = x % 1.0
        p, q = float(x).as_integer_ratio()  # q is a power of two
        return cls((p << capacity) // q, capacity)

    @classmethod
    def from_fraction(cls, num: int, den: int, capacity: int = DEFAULT_CAPACITY) -> "BasePoint":
        """Exact binary expansion of the rational num/den (mod 1)."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        return cls(((num % den) << capacity) // den, capacity)

    @classmethod
    def random(cls, rng: np.random.Generator, capacity: int = DEFAULT_CAPACITY) -> "BasePoint":
        """capacity independent fair digits drawn from rng."""
        digits = rng.integers(0, 2, size=capacity)
        packed = int.from_bytes(np.packbits(digits).tobytes(), "big")
        return cls(packed >> (-capacity % 8), capacity)

    def value(self) -> float:
        """Float value of the stored expansion (truncated past double precision)."""
        k = min(self.capacity, _FLOAT_BITS)
        return math.ldexp(self.num >> (self.capacity - k), -k)

    def __float__(self) -> float:
        return self.value()

    def bit_string(self) -> str:
        return format(self.num, f"0{self.capacity}b") if self.capacity else ""

    def forward(self, n: int = 1) -> "BasePoint":
        """n-fold doubling map: drop the n leading digits."""
        if n < 0:
            raise ValueError("iterate count must be >= 0")
        if n > self.capacity:
            raise CapacityExhaustedError(
                f"need {n} digits, only {self.capacity} remain")
        cap = self.capacity - n
        return BasePoint(self.num & ((1 << cap) - 1), cap)

    def preimages(self) -> tuple["BasePoint", "BasePoint"]:
        """The two doubling-map preimages x/2 and (x+1)/2, branch 0 then 1."""
        cap = self.capacity + 1
        return BasePoint(self.num, cap), BasePoint(self.num | (1 << self.capacity), cap)

    def add_dyadic(self, num: int, scale: int) -> "BasePoint":
        """Exact circle addition of num * 2**-scale; needs scale <= capacity."""
        cap = self.capacity
        if scale > cap:
            raise CapacityExhaustedError(
                f"offset scale {scale} exceeds capacity {cap}")
        return BasePoint((self.num + num * (1 << (cap - scale))) % (1 << cap), cap)

    def __repr__(self) -> str:  # keep reprs short in test output
        head = self.bit_string()[:24]
        tail = "..." if self.capacity > 24 else ""
        return f"BasePoint(0.{head}{tail}, cap={self.capacity})"


def circle_distance(a, b):
    """L1 distance on the circle R/Z; accepts floats or arrays in [0,1)."""
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    d = np.minimum(diff, 1.0 - diff)
    if d.ndim == 0:
        return float(d)
    return d
