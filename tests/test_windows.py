import random

import pytest

from circlecount import (
    DiagonalSystem,
    SetWindow,
    balanced_function,
    format_set,
    load_set,
    load_system,
    parse_set_file,
    progression_window,
    random_density_window,
    squares_window,
)
from circlecount.errors import BadParamsError, NonzeroSumError, ParseError


def test_basic_properties():
    w = SetWindow.from_elements(10, [1, 4, 9])
    assert w.cardinality == 3
    assert w.density == pytest.approx(0.3)
    assert w.elements() == (1, 4, 9)
    assert w.bits() == "1001000010"


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
        assert len(w.bits()) == w.length
        card, n = w.cardinality, w.length
        values = tuple(card - n * (w.mask >> (x - 1) & 1) for x in range(1, n + 1))
        assert balanced_function(w) == values


def _from_file(load, text):
    """A loader run on a file holding ``text``, or on a missing file."""

    def run(tmp_path):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        return load(str(path))

    return run


MALFORMED = {
    "system_missing_file": (_from_file(load_system, None), ParseError, "cannot read"),
    "system_bad_json": (_from_file(load_system, "{"), ParseError, "cannot read"),
    "system_not_an_object": (_from_file(load_system, "[2, [1, -1]]"), ParseError,
                             "expected an object"),
    "system_no_lambda": (_from_file(load_system, '{"k": 2}'), ParseError,
                         "expected an object"),
    "system_bool_k": (_from_file(load_system, '{"k": true, "lambda": [1, -1]}'),
                      ParseError, "k must be an integer"),
    "system_lambda_not_a_list": (_from_file(load_system, '{"k": 1, "lambda": 3}'),
                                 ParseError, "lambda must be a list"),
    "system_bool_coefficient": (_from_file(load_system, '{"k": 1, "lambda": [true, -1]}'),
                                ParseError, "lambda must be a list"),
    "system_one_coefficient": (_from_file(load_system, '{"k": 1, "lambda": [1]}'),
                               BadParamsError, "at least two coefficients"),
    "system_nonzero_sum": (_from_file(load_system, '{"k": 1, "lambda": [2, -1]}'),
                           NonzeroSumError, "sum to zero"),
    "set_missing_file": (_from_file(load_set, None), ParseError, "cannot read"),
    "set_empty": (_from_file(load_set, ""), ParseError, "header line"),
    "set_header_without_value": (_from_file(load_set, "N\n1\n"), ParseError,
                                 "malformed header"),
    "set_bad_n": (_from_file(load_set, "N ten\n1\n"), ParseError, "bad N value"),
    "set_zero_n": (_from_file(load_set, "N 0\n"), ParseError, "N must be >= 1"),
    "set_two_mask_lines": (_from_file(load_set, "N 8\nmask f\nmask 1\n"), ParseError,
                           "exactly one mask line"),
    "set_mask_without_value": (_from_file(load_set, "N 8\nmask\n"), ParseError,
                               "malformed mask line"),
    "set_bad_hex": (_from_file(load_set, "N 8\nmask zz\n"), ParseError, "bad hex mask"),
    "set_non_integer_element": (_from_file(load_set, "N 8\n1\nx\n"), ParseError,
                                "non-integer set element"),
    "system_one_variable": (lambda _: DiagonalSystem(1, (1,)), BadParamsError,
                            "at least two coefficients"),
    "window_length_zero": (lambda _: SetWindow(0, 0), BadParamsError,
                           "window length must be >= 1"),
    "window_mask_past_n": (lambda _: SetWindow(3, 0b1000), BadParamsError,
                           "bits outside"),
    "window_negative_mask": (lambda _: SetWindow(3, -1), BadParamsError, "bits outside"),
    "window_add_past_n": (lambda _: SetWindow.full(3).add(4), BadParamsError,
                          r"element 4 outside \[1, 3\]"),
    "format_unknown_form": (lambda _: format_set(SetWindow.full(3), "json"),
                            BadParamsError, "unknown set file form"),
    "random_density_above_one": (lambda _: random_density_window(10, 1.5, 0),
                                 BadParamsError, r"density must be in \[0, 1\]"),
    "progression_zero_step": (lambda _: progression_window(10, 1, 0), BadParamsError,
                              "start >= 1 and step >= 1"),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_refused(case, tmp_path):
    run, error, message = case
    with pytest.raises(error, match=message):
        run(tmp_path)
