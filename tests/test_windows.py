import random

import pytest

from circlecount import (
    SetWindow,
    balanced_function,
    format_set,
    parse_set_file,
    progression_window,
    random_density_window,
    squares_window,
)
from circlecount.errors import BadParamsError, ParseError


def test_basic_properties():
    w = SetWindow.from_elements(10, [1, 4, 9])
    assert w.cardinality == 3
    assert w.density == pytest.approx(0.3)
    assert w.elements() == (1, 4, 9)
    assert w.contains(4) and not w.contains(2)


def test_out_of_range_rejected():
    with pytest.raises(BadParamsError):
        SetWindow.from_elements(5, [6])


def test_list_form_roundtrip():
    w = SetWindow.from_elements(12, [2, 3, 11])
    assert parse_set_file(format_set(w, "list")) == w


def test_mask_form_roundtrip():
    w = SetWindow.from_elements(12, [1, 5, 10])
    text = format_set(w, "mask")
    assert text.splitlines()[1].startswith("mask ")
    assert parse_set_file(text) == w


def test_mask_bit_convention():
    # bit i-1 marks membership of i: 0x211 = bits 0, 4, 9 -> {1, 5, 10}
    w = parse_set_file("N 10\nmask 211\n")
    assert w.elements() == (1, 5, 10)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_set_file("no header\n1\n")
    with pytest.raises(ParseError):
        parse_set_file("N 5\n7\n")
    with pytest.raises(ParseError):
        parse_set_file("N 5\nmask fff\n")
    # the keywords are whole tokens, not prefixes
    with pytest.raises(ParseError):
        parse_set_file("Nonsense 5\n1\n3\n")
    with pytest.raises(ParseError):
        parse_set_file("N 8\nmaskara ff\n")


def test_squares():
    assert squares_window(10).elements() == (1, 4, 9)


def test_progression():
    assert progression_window(11, 2, 3).elements() == (2, 5, 8, 11)


def test_random_density_deterministic():
    a = random_density_window(100, 0.5, seed=7)
    b = random_density_window(100, 0.5, seed=7)
    c = random_density_window(100, 0.5, seed=8)
    assert a == b
    assert a != c
    assert 20 <= a.cardinality <= 80


def _peeled_elements(mask):
    """Reference decode: peel the lowest set bit off the mask until none is left."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def test_one_pass_decode_matches_bit_peeling():
    rnd = random.Random(41)
    windows = [SetWindow.empty(1), SetWindow.full(1), SetWindow.empty(5000),
               SetWindow.full(5000), SetWindow(5000, 1 << 4999)]
    for _ in range(60):
        n = rnd.randint(1, 5000)
        windows.append(SetWindow(n, rnd.getrandbits(n)))
    for w in windows:
        elems = _peeled_elements(w.mask)
        assert w.elements() == elems
        assert tuple(w.iter_elements()) == elems
        assert len(w.bits()) == w.length
        card, n = w.cardinality, w.length
        values = tuple(card - n * w.indicator(x) for x in range(1, n + 1))
        assert balanced_function(w).values == values
