"""Tests for the protocol-file parser, validator, and canonical formatter."""

import math
import re

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


# -- the reader: words and columns -----------------------------------------------------

# Whitespace that does not end a line: the reader's words are what `\S+` matches
# between these, and `str.splitlines` keeps them inside one line.
_INLINE_SPACE = [chr(c) for c in range(0x110000)
                 if chr(c).isspace() and len(f"a{chr(c)}a".splitlines()) == 1]
_WORD = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="".join(_INLINE_SPACE) + "#"),
                min_size=1).filter(lambda w: not any(c.isspace() for c in w))
_GAP = st.text(st.sampled_from(_INLINE_SPACE), min_size=1, max_size=4)
_COMMENT = st.one_of(st.just(""), st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: len(f"a{c}a".splitlines()) == 1),
    max_size=20).map(lambda text: "#" + text))


def test_str_split_and_regex_agree_on_every_code_point():
    everything = "".join(map(chr, range(0x110000)))
    assert ({m.start() for m in re.finditer(r"\s", everything)}
            == {i for i, c in enumerate(everything) if c.isspace()})
    assert everything.split() == re.findall(r"\S+", everything)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(_WORD, min_size=1, max_size=8), gaps=st.lists(_GAP, min_size=9, max_size=9),
       comment=_COMMENT)
def test_words_and_columns_match_the_regex_oracle(words, gaps, comment):
    code = gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))
    source = f"system s\n{code}{comment}\n"
    [block] = dsl._Parser(source).collect_blocks()
    [line] = block.items
    oracle = list(re.finditer(r"\S+", code))
    assert line.number == 2
    assert line.words == [m.group() for m in oracle]
    assert [line.column(i) for i in range(len(oracle))] == [m.start() + 1 for m in oracle]


@settings(max_examples=200, deadline=None)
@given(good=st.lists(st.sampled_from(["0", "0.25", "1e-3", "+.5", "7.", "10", "100", "25e-3"]),
                     min_size=1, max_size=12),
       bad=_WORD.filter(lambda w: dsl._NUMBER_RE.fullmatch(w) is None),
       at=st.integers(min_value=0), gaps=st.lists(_GAP, min_size=14, max_size=14),
       comment=_COMMENT)
def test_a_bad_probability_is_reported_at_its_regex_column(good, bad, at, gaps, comment):
    words = ["probs", *good]
    at = 1 + at % len(good)
    words.insert(at, bad)
    code = gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))
    result = dsl.parse(f"system s\n  states a\n  temperature 1\ndist d\n  over s\n{code}{comment}")
    column = [m.start() + 1 for m in re.finditer(r"\S+", code)][at]
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (6, column, f"probability must be a number, got {bad!r}")]


@pytest.mark.parametrize("bad, problem", [
    ("x", "a number, got 'x'"), ("1e999", "finite, got '1e999'"), ("-0.5", "non-negative"),
])
def test_one_bad_word_among_4096_probabilities_is_reported_as_alone(bad, problem):
    def diagnostics(n):
        words = ["0.0"] * n
        words[n // 2] = bad
        source = (f"system s\n  states {' '.join(f'a{i}' for i in range(n))}\n"
                  f"  temperature 1\ndist d\n  over s\n  probs {' '.join(words)}\n")
        return [d.render() for d in dsl.parse(source).diagnostics]

    column = len("  probs ") + 4 * 2048 + 1
    assert diagnostics(4096) == [f"error: line 6, col {column}: probability must be {problem}"]
    assert diagnostics(2) == [f"error: line 6, col 13: probability must be {problem}"]

