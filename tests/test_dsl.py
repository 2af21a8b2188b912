"""Tests for the protocol-file parser, validator, and canonical formatter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import check_szilard_landauer, dsl

import docgen

LOG2 = math.log(2.0)

GOOD_SOURCE = """\
# comment lines vanish
system coin
  states heads tails
  temperature 1.0

dist sharp
  over coin
  probs 1 0   # trailing comments too

channel mix
  over coin
  from heads: heads 0.75 tails 0.25
  from tails: heads 0.25 tails 0.75

protocol demo
  check-correspondence
  apply mix
  evolve 10
  audit 50
  bitop erase
  report json
"""


def _parse_ok(source):
    result = dsl.parse(source)
    assert result.ok, [d.render() for d in result.diagnostics]
    return result.document


# -- parsing ---------------------------------------------------------------------

def test_parse_good_document():
    doc = _parse_ok(GOOD_SOURCE)
    assert list(doc.systems) == ["coin"]
    assert doc.systems["coin"].states == ("heads", "tails")
    assert doc.systems["coin"].boltzmann == 1.0  # default
    assert doc.systems["coin"].energies == (0.0, 0.0)  # default
    assert list(doc.dists) == ["sharp"]
    assert list(doc.channels) == ["mix"]
    assert doc.protocols["demo"].directives[0] == dsl.Directive("check-correspondence")
    assert doc.protocols["demo"].directives[2] == dsl.Directive("evolve", 10)


def test_parsed_document_feeds_the_correspondence_check():
    doc = _parse_ok(GOOD_SOURCE)
    landscape = doc.systems["coin"].to_landscape()
    report = check_szilard_landauer(landscape, doc.dists["sharp"].dist)
    assert report.available == pytest.approx(landscape.kT * LOG2, rel=1e-14)


def test_parse_empty_input():
    result = dsl.parse("")
    assert result.ok
    assert result.document.is_empty
    assert result.diagnostics == ()


def test_parse_comment_only_input():
    result = dsl.parse("# nothing here\n\n   # indented comment\n")
    assert result.ok
    assert result.document.is_empty


def test_probability_sum_diagnostic_carries_location():
    source = "system s\n  states a b\n  temperature 1\n\ndist d\n  over s\n  probs 0.5 0.6\n"
    result = dsl.parse(source)
    assert not result.ok
    (diag,) = result.errors()
    assert "probabilities sum to 1.1" in diag.message
    assert diag.line == 7
    assert diag.column == 3


def test_channel_row_sum_diagnostic():
    source = (
        "system s\n  states a b\n  temperature 1\n\n"
        "channel k\n  over s\n  from a: a 0.5 b 0.4\n  from b: b 1\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert any("sums to 0.9" in d.message and d.line == 7 for d in result.errors())


def test_missing_channel_row_diagnostic():
    source = "system s\n  states a b\n  temperature 1\n\nchannel k\n  over s\n  from a: a 1\n"
    result = dsl.parse(source)
    assert not result.ok
    assert any("missing a 'from' row for state 'b'" in d.message for d in result.errors())


def test_unresolved_references_and_unknown_keywords():
    source = "dist d\n  over ghost\n  probs 1\n\nblorp x\n  stuff 1\n"
    result = dsl.parse(source)
    assert not result.ok
    messages = " | ".join(d.message for d in result.errors())
    assert "unknown system 'ghost'" in messages
    assert "unknown block keyword 'blorp'" in messages


def test_duplicate_names_are_rejected():
    source = (
        "system s\n  states a\n  temperature 1\n\n"
        "system s\n  states b\n  temperature 2\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert any("duplicate system name 's'" in d.message for d in result.errors())


def test_parser_recovers_and_reports_all_errors_in_one_pass():
    source = (
        "system s\n  states a b\n  temperature 1\n\n"
        "dist bad1\n  over s\n  probs 0.5 0.6\n\n"
        "dist bad2\n  over nowhere\n  probs 1 0\n\n"
        "dist good\n  over s\n  probs 0.5 0.5\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert len(result.errors()) == 2


def test_error_count_is_deterministic():
    source = "dist d\n  probs 2\nnoise\n  indented\n"
    counts = {len(dsl.parse(source).errors()) for _ in range(5)}
    assert len(counts) == 1


def test_diagnostic_positions_lie_within_the_source():
    source = "system s\nwat\n  states a\n"
    result = dsl.parse(source)
    lines = source.splitlines()
    for diag in result.diagnostics:
        assert 1 <= diag.line <= len(lines)
        assert diag.column >= 1
        assert diag.column <= len(lines[diag.line - 1]) + 1


def test_protocol_directive_validation():
    base = "system s\n  states a\n  temperature 1\n\nprotocol p\n"
    for bad_line, needle in [
        ("  apply ghost", "unknown channel"),
        ("  evolve x", "non-negative integer"),
        ("  audit 0", "at least one step"),
        ("  bitop explode", "'bitop' takes one of"),
        ("  report yaml", "'report' takes one of"),
        ("  check-correspondence now", "takes no arguments"),
        ("  frobnicate", "unknown protocol directive"),
    ]:
        result = dsl.parse(base + bad_line + "\n")
        assert not result.ok, bad_line
        assert any(needle in d.message for d in result.errors()), bad_line


def test_temperature_must_be_positive():
    result = dsl.parse("system s\n  states a\n  temperature 0\n")
    assert not result.ok
    assert any("must be positive" in d.message for d in result.errors())


def test_duplicate_target_is_reported_even_when_its_first_value_is_zero():
    source = (
        "system s\n  states a b\n  temperature 1\n\n"
        "channel k\n  over s\n  from a: a 0 a 1\n  from b: b 1\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert (7, 15, "duplicate target 'a' in row") in [
        (d.line, d.column, d.message) for d in result.errors()
    ]


def test_duplicate_state_label_is_reported_once_at_its_column():
    result = dsl.parse("system s\n  states a b a\n  temperature 1\n")
    assert [(d.line, d.column, d.message) for d in result.errors()] == [
        (2, 14, "duplicate state label 'a'")
    ]


@pytest.mark.parametrize("source, message", [
    ("system s\n  states a\n  temperature hot\n",
     "temperature must be a number, got 'hot'"),
    ("system s\n  states a b\n  temperature 1\n\ndist d\n  over s\n  probs 0.5 x\n",
     "probability must be a number, got 'x'"),
], ids=["temperature", "probs"])
def test_a_bad_value_is_not_also_reported_as_a_missing_line(source, message):
    assert [d.message for d in dsl.parse(source).errors()] == [message]


@pytest.mark.parametrize("source, line, column, what", [
    ("system s\n  states a b\n  temperature 1\n  energy a 1e999\n",
     4, 12, "energy value"),
    ("system s\n  states a\n  temperature 1e999\n", 3, 15, "temperature"),
    ("system s\n  states a\n  temperature 1\n  boltzmann -1e999\n", 4, 13, "boltzmann"),
    ("system s\n  states a b\n  temperature 1\n\ndist d\n  over s\n  probs 1e999 0\n",
     7, 9, "probability"),
    ("system s\n  states a\n  temperature 1\n\nchannel k\n  over s\n  from a: a 1e999\n",
     7, 13, "transition probability"),
], ids=["energy", "temperature", "boltzmann", "probs", "from"])
def test_non_finite_numbers_are_rejected_at_their_position(source, line, column, what):
    result = dsl.parse(source)
    assert not result.ok
    ((got_line, got_column, message),) = [(d.line, d.column, d.message)
                                          for d in result.errors()]
    assert (got_line, got_column) == (line, column)
    assert message.startswith(f"{what} must be finite, got ")


# -- formatting and round trips -----------------------------------------------------

def test_format_empty_document():
    assert dsl.format_document(dsl.ProtocolSpec()) == ""


def test_round_trip_of_the_worked_example():
    doc = _parse_ok(GOOD_SOURCE)
    text = dsl.format_document(doc)
    assert dsl.parse(text).document == doc


def test_format_is_canonical_fixed_point():
    doc = _parse_ok(GOOD_SOURCE)
    text = dsl.format_document(doc)
    assert dsl.format_document(dsl.parse(text).document) == text


def test_round_trip_of_generated_documents():
    rng = np.random.default_rng(2161)
    for _ in range(150):
        doc = docgen.random_document(rng)
        reparsed = dsl.parse(dsl.format_document(doc))
        assert reparsed.ok, [d.render() for d in reparsed.diagnostics]
        assert reparsed.document == doc


# -- robustness ------------------------------------------------------------------------

def test_fuzz_random_bytes_never_crash():
    rng = np.random.default_rng(31337)
    for _ in range(2000):
        blob = rng.integers(0, 256, size=int(rng.integers(0, 80)), dtype=np.uint8)
        text = blob.tobytes().decode("utf-8", errors="replace")
        result = dsl.parse(text)  # must not raise
        assert (result.document is None) == bool(result.errors())


def test_fuzz_shuffled_grammar_tokens_never_crash():
    vocabulary = (
        "system dist channel protocol states temperature boltzmann energy over "
        "probs from apply evolve audit bitop report check-correspondence 1 0.5 "
        "-2e3 : # a b \n \n \n   "
    ).split(" ")
    rng = np.random.default_rng(271828)
    for _ in range(1000):
        words = rng.choice(vocabulary, size=int(rng.integers(1, 40)))
        dsl.parse(" ".join(words))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=300))
def test_parse_is_total_over_arbitrary_text(text):
    result = dsl.parse(text)
    assert isinstance(result.diagnostics, tuple)
