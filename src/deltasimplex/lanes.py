"""Fixed-width lanes of one Python int: the packed rows of the box walk and the character sweep.

A row packs the values of `count` items into one int, item j in a lane of
`bits` bits, in the host's byte order. Row values lie in [0, e). The lane is
the narrowest of 1, 2, 4 or 8 bytes whose lower half holds `terms` e, so
h = 2**(bits-1) >= terms e, and a sum of at most `terms` rows, one big-int
addition each, has lanes of at most terms (e-1) < h: no lane carries into
the next. The upper half is headroom for a compare: adding h - t to a lane x
with 0 < t <= h and x < h + t sets its top bit exactly where x >= t, and
never carries out of the lane. So a lane-wise reduction mod e, or a count of
the lanes >= t, is a few big-int operations and at most one popcount, and no
lane is unpacked.
"""

import sys
from array import array
from operator import sub


class RowFormat:
    """Rows of `count` lanes holding values mod `modulus`, for sums of up to `terms` rows.

    The lane constants are computed once per format. `name` names what is
    packed when even 8-byte lanes are too narrow, which raises ValueError.
    """

    __slots__ = ("count", "modulus", "terms", "code", "bits", "ones", "_bias", "_above_one", "_gap", "_tops")

    def __init__(self, count: int, modulus: int, terms: int, name: str):
        self.code = next((c for c in "BHIQ" if terms * modulus <= 1 << 8 * array(c).itemsize - 1), None)
        if self.code is None:
            raise ValueError(f"{name} needs lanes wider than 8 bytes")
        self.bits = 8 * array(self.code).itemsize
        self.count, self.modulus, self.terms = count, modulus, terms
        half = 1 << self.bits - 1
        self.ones = ones = self.pack([1] * count)
        self._bias, self._above_one, self._gap = ones * (half - modulus), ones * (half - 1), ones * (modulus - 1)
        self._tops = {count: ones << self.bits - 1}  # top bits of the lanes of the first `width` items, by width

    def pack(self, values) -> int:
        """The values as one int, value j in item j's lane."""
        return int.from_bytes(array(self.code, values).tobytes(), sys.byteorder)

    def unpack(self, packed: int) -> list:
        """The `count` lanes of a packed int, as a list in item order."""
        return memoryview(packed.to_bytes(self.count * self.bits // 8, sys.byteorder)).cast(self.code).tolist()

    def offset(self, item: int) -> int:
        """Bit offset of item's lane: lane j holds item j on a little-endian host, item count - 1 - j on a big-endian one."""
        return self.bits * (item if sys.byteorder == "little" else self.count - 1 - item)

    def row(self, steps, orders) -> int:
        """sum_j k_j steps[j] mod e for every k in the product of range(orders[j]), in `product` order, packed.

        The row is built one range at a time, in passes of n_1, n_1 n_2, ...
        values: fewer than twice the product of the orders in all.
        """
        row = [0]
        for step, n in zip(steps, orders):
            row = [(x + step * k) % self.modulus for x in row for k in range(n)]
        return self.pack(row)

    def add(self, x: int, y: int) -> int:
        """Lane-wise (x + y) mod e of two rows: e is subtracted from the lanes whose sum reaches it."""
        s = x + y
        return s - ((s + self._bias >> self.bits - 1) & self.ones) * self.modulus

    def multiples(self, total: int, width: int) -> list:
        """Counts of the first `width` lanes of a sum of rows equal to 0, e, 2e, ..., (terms-1) e.

        For t = 1, e, e+1, 2e, 2e+1, ..., the lanes >= t are counted with one
        subtraction, one mask of the top bits and one `int.bit_count`: 2 terms - 1
        whole-word passes. The lanes equal to j e are those >= j e less those
        >= j e + 1. The top bits of a narrower width are built on its first use.
        """
        top = self._tops.get(width)
        if top is None:
            top = self._tops[width] = self.pack([1 << self.bits - 1] * width + [0] * (self.count - width))
        shifted = total + self._above_one
        at_least = [width, (shifted & top).bit_count()]
        for _ in range(self.terms - 1):
            shifted -= self._gap
            at_least.append((shifted & top).bit_count())
            shifted -= self.ones
            at_least.append((shifted & top).bit_count())
        return list(map(sub, at_least[::2], at_least[1::2]))
