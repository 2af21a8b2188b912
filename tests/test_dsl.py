"""Tests for the protocol-file parser, validator, and canonical formatter."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermobit import (Channel, Distribution, DomainError, EnergyLandscape,
                       check_szilard_landauer, dsl)

import docgen
from test_info import _parity_values

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
    assert doc.systems["coin"].landscape == EnergyLandscape([0.0, 0.0], temperature=1.0)
    assert list(doc.dists) == ["sharp"]
    assert list(doc.channels) == ["mix"]
    assert doc.protocols["demo"].directives[0] == dsl.Directive("check-correspondence")
    assert doc.protocols["demo"].directives[2] == dsl.Directive("evolve", 10)


def test_parsed_document_feeds_the_correspondence_check():
    doc = _parse_ok(GOOD_SOURCE)
    landscape = doc.systems["coin"].landscape
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
    (diag,) = result.diagnostics
    assert diag.message == "distribution must sum to 1 within 1e-09, got 1.1"
    assert diag.line == 7
    assert diag.column == 3


def test_channel_row_sum_diagnostic():
    source = (
        "system s\n  states a b\n  temperature 1\n\n"
        "channel k\n  over s\n  from a: a 0.5 b 0.4\n  from b: b 1\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert any(d.message == "row for state 'a' must sum to 1 within 1e-09, got 0.9"
               and d.line == 7 for d in result.diagnostics)


def _block_source(kind, values):
    """A system s0..s(n-1) and one dist d or channel k that spells `values`,
    each number in repr, so it parses back to the same float; the first
    'probs' or 'from' line is line 7."""
    states = [f"s{i}" for i in range(values.shape[-1])]
    source = f"system s\n  states {' '.join(states)}\n  temperature 1\n\n"
    if kind == "dist":
        return source + f"dist d\n  over s\n  probs {' '.join(map(repr, values.tolist()))}\n"
    return source + "channel k\n  over s\n" + "".join(
        f"  from {label}: " + " ".join(f"{target} {value!r}"
                                      for target, value in zip(states, row)) + "\n"
        for label, row in zip(states, values.tolist()))


@pytest.mark.parametrize("kind", ["dist", "channel"])
def test_the_parser_holds_probabilities_to_the_core_rule(kind):
    rng = np.random.default_rng(21)
    seen = set()
    for case in range(400):
        n = int(rng.integers(1, 7))
        values = _parity_values(rng, n, 1) if kind == "dist" else _parity_values(rng, (n, n), n)
        if case % 25 == 0:  # a row of 1e308s, whose sum overflows once n > 1
            rows = values.reshape(-1, n)
            rows[rng.integers(len(rows))] = 1e308
        try:
            expected = (Distribution(values).probs if kind == "dist"
                        else Channel(values).matrix)
        except DomainError as error:
            expected, message = None, str(error)
        result = dsl.parse(_block_source(kind, values))
        assert result.ok == (expected is not None)
        if result.ok:
            got = (result.document.dists["d"].dist.probs if kind == "dist"
                   else result.document.channels["k"].channel.matrix)
            assert got.tobytes() == expected.tobytes()
            seen.add("kept" if got.tobytes() == values.tobytes() else "renormalised")
            continue
        seen.add("rejected")
        words = np.isfinite(values).all() and (values >= 0.0).all()  # each a valid number
        if kind == "dist":
            (diag,) = result.diagnostics
            assert diag.line == 7
            assert not words or (diag.column, diag.message) == (3, message)
            continue
        # every row is held to the rule on its own, and faulted at its own line in
        # the words the core uses for a distribution
        bad = {}
        for i, row in enumerate(values):
            try:
                Distribution(row)
            except DomainError as error:
                bad[7 + i] = str(error).replace("distribution", f"row for state 's{i}'")
        assert {d.line for d in result.diagnostics} <= bad.keys()
        if words:
            assert {(d.line, d.column, d.message) for d in result.diagnostics} == {
                (line, 8, message) for line, message in bad.items()}
    assert seen == {"kept", "renormalised", "rejected"}


# (energies, temperature, boltzmann) of system blocks on either side of the
# EnergyLandscape rule: kT out of range, T or k_B not positive, each overflow
_SYSTEM_CASES = {
    "kT-underflow": ([0.0], 1e-300, 1e-300),
    "kT-overflow": ([0.0], 1e200, 1e200),
    "zero-temperature": ([0.0, 1.0], 0.0, 1.0),
    "negative-temperature": ([0.0, 1.0], -1.0, 1.0),
    "negative-boltzmann": ([0.0, 1.0], 1.0, -2.0),
    "spread": ([1e308, -1e308], 1.0, 1.0),
    "log-weights": ([1e300, 0.0], 1e-10, 1.0),
    "free-energy": ([0.0] * 8, 1e308, 1.0),
    "one-state": ([-3.5], 2.0, 1.0),
    "si": ([4e-21, -2.5e-21, 0.0], 300.0, 1.380649e-23),
}


@pytest.mark.parametrize("energies, temperature, boltzmann", _SYSTEM_CASES.values(),
                         ids=_SYSTEM_CASES)
def test_the_parser_holds_systems_to_the_core_rule(energies, temperature, boltzmann):
    try:
        expected = EnergyLandscape(energies, temperature=temperature, boltzmann=boltzmann)
    except DomainError as error:
        expected, message = None, str(error)
    states = [f"s{i}" for i in range(len(energies))]
    result = dsl.parse(
        f"system s\n  states {' '.join(states)}\n  temperature {temperature!r}\n"
        f"  boltzmann {boltzmann!r}\n"
        + "".join(f"  energy {label} {energy!r}\n" for label, energy in zip(states, energies)))
    assert result.ok == (expected is not None)
    if result.ok:
        assert result.document.systems["s"].landscape == expected
    else:
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [(1, 1, message)]


_SYSTEM_AB = "system s\n  states a b\n  temperature 1\n\n"


@pytest.mark.parametrize("block, expected", [
    ("channel k\n  over s\n  from a: a x b 0.5\n  from b: a 0.5 b 0.6\n",
     [(7, 13, "transition probability must be a number, got 'x'"),
      (8, 8, "row for state 'b' must sum to 1 within 1e-09, got 1.1")]),
    ("channel k\n  over s\n  from a: a x z 0.5\n  from c: a 1\n  from b: b 1\n",
     [(7, 13, "transition probability must be a number, got 'x'"),
      (7, 15, "transition to unknown state 'z'"),
      (8, 8, "'from' row for unknown state 'c'")]),
    ("channel k\n  over nowhere\n  from a: a -1 b 0.5\n  from b: b 1\n",
     [(7, 13, "transition probability must be non-negative"),
      (6, 8, "channel 'k' refers to unknown system 'nowhere'")]),
    ("dist d\n  over nowhere\n  probs 0.5 x\n",
     [(7, 13, "probability must be a number, got 'x'"),
      (6, 8, "dist 'd' refers to unknown system 'nowhere'")]),
    # a row with no source names no row, so no row is reported missing
    ("channel k\n  over s\n  from a a 1\n  from b: b 1\n",
     [(7, 3, "'from' needs a source label followed by ':'")]),
    # a row with an odd word is present, so 'a' is not reported missing
    ("channel k\n  over s\n  from a: a 1 b\n  from b: b 1\n",
     [(7, 3, "'from' row needs (target, value) pairs")]),
], ids=["row-sum", "unknown-source-and-target", "channel-system", "dist-system",
        "no-source", "odd-row"])
def test_a_bad_word_does_not_hide_the_other_faults_of_its_block(block, expected):
    diagnostics = dsl.parse(_SYSTEM_AB + block).diagnostics
    assert [(d.line, d.column, d.message) for d in diagnostics] == expected


@pytest.mark.parametrize("system, fault", [
    ("  temperature hot\n", (3, 15, "temperature must be a number, got 'hot'")),
    ("  temperature 1e-300\n  boltzmann 1e-300\n",
     (1, 1, "kT must be finite and positive, got 0.0")),
], ids=["bad-word", "core-rule"])
def test_a_rejected_block_is_not_called_unknown(system, fault):
    source = (f"system s\n  states a b\n{system}\ndist d\n  over s\n  probs 0.5 0.5\n"
              "\nchannel k\n  over s\n  from a: a 1\n  from b: b x\n"
              "\nprotocol p\n  apply k\n")
    diagnostics = dsl.parse(source).diagnostics
    bad_value = (len(source.splitlines()) - 3, 13,
                 "transition probability must be a number, got 'x'")
    assert [(d.line, d.column, d.message) for d in diagnostics] == [fault, bad_value]


def test_missing_channel_row_diagnostic():
    source = "system s\n  states a b\n  temperature 1\n\nchannel k\n  over s\n  from a: a 1\n"
    result = dsl.parse(source)
    assert not result.ok
    assert any("missing a 'from' row for state 'b'" in d.message for d in result.diagnostics)


def test_unresolved_references_and_unknown_keywords():
    source = "dist d\n  over ghost\n  probs 1\n\nblorp x\n  stuff 1\n"
    result = dsl.parse(source)
    assert not result.ok
    messages = " | ".join(d.message for d in result.diagnostics)
    assert "unknown system 'ghost'" in messages
    assert "unknown block keyword 'blorp'" in messages


def test_duplicate_names_are_rejected():
    source = (
        "system s\n  states a\n  temperature 1\n\n"
        "system s\n  states b\n  temperature 2\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert any("duplicate system name 's'" in d.message for d in result.diagnostics)


def test_parser_recovers_and_reports_all_errors_in_one_pass():
    source = (
        "system s\n  states a b\n  temperature 1\n\n"
        "dist bad1\n  over s\n  probs 0.5 0.6\n\n"
        "dist bad2\n  over nowhere\n  probs 1 0\n\n"
        "dist good\n  over s\n  probs 0.5 0.5\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert len(result.diagnostics) == 2


def test_error_count_is_deterministic():
    source = "dist d\n  probs 2\nnoise\n  indented\n"
    counts = {len(dsl.parse(source).diagnostics) for _ in range(5)}
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
        ("  evolve x", "'evolve' step count must be an integer of at least 0, got 'x'"),
        ("  audit 0", "'audit' step count must be an integer of at least 1, got '0'"),
        ("  bitop explode", "'bitop' takes one of"),
        ("  report yaml", "'report' takes one of"),
        ("  check-correspondence now", "takes no arguments"),
        ("  frobnicate", "unknown protocol directive"),
    ]:
        result = dsl.parse(base + bad_line + "\n")
        assert not result.ok, bad_line
        assert any(needle in d.message for d in result.diagnostics), bad_line


def test_temperature_must_be_positive():
    result = dsl.parse("system s\n  states a\n  temperature 0\n")
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (1, 1, "temperature must be finite and positive, got 0.0")
    ]


def test_duplicate_target_is_reported_even_when_its_first_value_is_zero():
    source = (
        "system s\n  states a b\n  temperature 1\n\n"
        "channel k\n  over s\n  from a: a 0 a 1\n  from b: b 1\n"
    )
    result = dsl.parse(source)
    assert not result.ok
    assert (7, 15, "duplicate target 'a' in row") in [
        (d.line, d.column, d.message) for d in result.diagnostics
    ]


def test_duplicate_state_label_is_reported_once_at_its_column():
    result = dsl.parse("system s\n  states a b a\n  temperature 1\n")
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (2, 14, "duplicate state label 'a'")
    ]


@pytest.mark.parametrize("source, expected", [
    ("system s\n  states a\n  temperature hot\n",
     (3, 15, "temperature must be a number, got 'hot'")),
    (_SYSTEM_AB + "dist d\n  over s\n  probs 0.5 x\n",
     (7, 13, "probability must be a number, got 'x'")),
    (_SYSTEM_AB + "channel k\n  over s\n  from : a 1\n  from a: a 1\n  from b: b 1\n",
     (7, 8, "'from' needs a source label before ':'")),
    (_SYSTEM_AB + "channel k\n  over s\n  from a: a 1\n  from a: b 1\n  from b: b 1\n",
     (8, 8, "duplicate 'from' row for state 'a'")),
    (_SYSTEM_AB + "channel k\n  over s\n  from a: a 0.5 x:y 0.5\n  from b: b 1\n",
     (7, 17, "invalid label 'x:y'")),
    (_SYSTEM_AB + "dist d\n  over s\n  probs 0.2 0.3 0.5\n",
     (7, 3, "dist 'd' has 3 probabilities but system 's' has 2 states")),
    ("system s\n  states a b:c\n  temperature 1\n", (2, 12, "invalid label 'b:c'")),
    ("system s\n  states a b\n  temperature 1\n  energy c 1\n",
     (4, 10, "energy for unknown state 'c'")),
    ("system s\n  states a b\n  temperature 1\n  energy a 1\n  energy a 2\n",
     (5, 10, "duplicate energy for state 'a'")),
], ids=["temperature", "probs", "from-no-source", "from-duplicate", "target-label",
        "probs-count", "state-label", "energy-unknown-state", "energy-duplicate"])
def test_a_bad_value_is_not_also_reported_as_a_missing_line(source, expected):
    diagnostics = dsl.parse(source).diagnostics
    assert [(d.line, d.column, d.message) for d in diagnostics] == [expected]


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
                                          for d in result.diagnostics]
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
        assert (result.document is None) == bool(result.diagnostics)


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

