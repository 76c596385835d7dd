"""The packed-row format of `lanes`, held to plain lists: pack and unpack every row."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex.lanes import RowFormat

BITS = (8, 16, 32, 64)


@st.composite
def formats(draw, bits):
    """A format of the given lane width: `terms` e above the bound of the next narrower width, often at the top."""
    terms = draw(st.integers(1, 9))
    high = (1 << bits - 1) // terms
    low = (1 << bits // 2 - 1) // terms + 1 if bits > 8 else 1
    modulus = draw(st.one_of(st.just(high), st.integers(low, high)))
    return RowFormat(draw(st.integers(1, 40)), modulus, terms, "test rows")


@st.composite
def rows(draw, lanes, terms=1):
    """Packed rows of `lanes`, each value in [0, e), many at e - 1; with the summed values, item by item."""
    value = st.one_of(st.just(lanes.modulus - 1), st.integers(0, lanes.modulus - 1))
    lists = draw(st.lists(st.lists(value, min_size=lanes.count, max_size=lanes.count), min_size=terms, max_size=terms))
    return [lanes.pack(values) for values in lists], [sum(column) for column in zip(*lists)]


@pytest.mark.parametrize("bits", BITS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_formats_at_each_width(bits, data):
    lanes = data.draw(formats(bits))
    assert lanes.bits == bits
    (row,), values = data.draw(rows(lanes))
    assert lanes.unpack(row) == values
    assert [row >> lanes.offset(j) & (1 << bits) - 1 for j in range(lanes.count)] == values

    (x, y), _ = data.draw(rows(lanes, 2))
    assert lanes.unpack(lanes.add(x, y)) == [(a + b) % lanes.modulus for a, b in zip(lanes.unpack(x), lanes.unpack(y))]

    summed, totals = data.draw(rows(lanes, lanes.terms))
    total = sum(summed)
    assert lanes.unpack(total) == totals
    widths = {lanes.count, 1, max(lanes.count - 1, 1)}
    for width in sorted(widths):
        expected = [totals[:width].count(j * lanes.modulus) for j in range(lanes.terms)]
        assert lanes.multiples(total, width) == expected


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("terms", [1, 2, 3, 7])
def test_width_is_the_narrowest_whose_lower_half_holds_the_bound(bits, terms):
    modulus = (1 << bits - 1) // terms
    assert RowFormat(4, modulus, terms, "test rows").bits == bits
    if bits < 64:
        assert RowFormat(4, modulus + 1, terms, "test rows").bits == 2 * bits
    else:
        with pytest.raises(ValueError, match="^test rows needs lanes wider than 8 bytes$"):
            RowFormat(4, modulus + 1, terms, "test rows")


@pytest.mark.parametrize("steps, orders, modulus", [
    ((), (), 5),
    ((3,), (5,), 5),
    ((2, 3), (2, 3), 6),
    ((0, 6, 4), (2, 2, 3), 12),
    ((255, 1), (3, 4), 256),
])
def test_row_is_the_linear_form_in_product_order(steps, orders, modulus):
    lanes = RowFormat(prod(orders), modulus, 1, "test rows")
    expected = [sum(k * s for k, s in zip(ks, steps)) % modulus for ks in product(*map(range, orders))]
    assert lanes.unpack(lanes.row(steps, orders)) == expected

