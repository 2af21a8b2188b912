"""Parser and canonical formatter for the `.tbit` protocol format.

The format is line-oriented. `#` starts a comment that runs to the end of
the line; blank lines are ignored. A block begins with an unindented
header line and contains indented `key value...` lines:

    system <name>
        states <label>+
        temperature <x>
        boltzmann <x>          # optional, default 1
        energy <label> <x>     # one per state, default 0

    dist <name>
        over <system>
        probs <x>+

    channel <name>
        over <system>
        from <label>: <label> <x> [<label> <x>]...   # unlisted targets are 0

    protocol <name>
        apply <channel>
        evolve <steps>
        check-correspondence
        audit <steps>
        bitop <name>
        report table|json|csv

Numbers are finite decimals with an optional exponent. Names must be
unique within their kind, every reference must resolve, and dimensions
must be consistent; probability vectors and channel rows obey the core
modules' 1e-9 normalization tolerance. The parser recovers at block
granularity and reports every diagnostic in one pass; it never raises on
malformed input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bitops
from .errors import DomainError, ShapeError
from .info import SUM_TOLERANCE, Distribution
from .markov import Channel
from .thermo import EnergyLandscape

_NUMBER_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
_COUNT_RE = re.compile(r"^\d+$")
_TOKEN_RE = re.compile(r"\S+")

REPORT_FORMATS = ("table", "json", "csv")


class _Key(NamedTuple):
    """How `_Parser.lines` checks one key of a block kind."""

    fewest: int  # arguments
    most: float  # arguments (math.inf: no limit)
    once: bool  # may appear at most once per block
    takes: str  # ends the arity message "'<key>' <takes>"
    words: tuple[str, ...] | None = None  # the words its argument may be, if fixed


# Each block kind's keys; the builders below see only lines that fit them.
_GRAMMAR = {
    "system": {
        "states": _Key(1, math.inf, True, "needs at least one label"),
        "temperature": _Key(1, 1, True, "takes exactly one number"),
        "boltzmann": _Key(1, 1, True, "takes exactly one number"),
        "energy": _Key(2, 2, False, "takes a state label and a value"),
    },
    "dist": {
        "over": _Key(1, 1, True, "takes exactly one system name"),
        "probs": _Key(1, math.inf, True, "needs at least one value"),
    },
    "channel": {
        "over": _Key(1, 1, True, "takes exactly one system name"),
        "from": _Key(0, math.inf, False, ""),  # build_channel parses the row
    },
    "protocol": {
        "apply": _Key(1, 1, False, "takes exactly one channel name"),
        "evolve": _Key(1, 1, False, "takes exactly one step count"),
        "check-correspondence": _Key(0, 0, False, "takes no arguments", ()),
        "audit": _Key(1, 1, False, "takes exactly one step count"),
        "bitop": _Key(1, 1, False, "takes one of: " + ", ".join(bitops.OPS), tuple(bitops.OPS)),
        "report": _Key(1, 1, False, "takes one of: " + ", ".join(REPORT_FORMATS),
                       REPORT_FORMATS),
    },
}
_REQUIRED = {"system": ("states", "temperature"), "dist": ("over", "probs"),
             "channel": ("over",), "protocol": ()}
_BLOCK_KEYWORDS = tuple(_GRAMMAR)


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int  # 1-based
    column: int  # 1-based
    message: str

    def render(self) -> str:
        return f"error: line {self.line}, col {self.column}: {self.message}"


@dataclass(frozen=True)
class SystemDecl:
    name: str
    states: tuple[str, ...]
    temperature: float
    boltzmann: float
    energies: tuple[float, ...]

    def to_landscape(self) -> EnergyLandscape:
        return EnergyLandscape(
            np.array(self.energies),
            temperature=self.temperature,
            boltzmann=self.boltzmann,
            labels=self.states,
        )


@dataclass(frozen=True)
class DistDecl:
    name: str
    system: str
    dist: Distribution


@dataclass(frozen=True)
class ChannelDecl:
    name: str
    system: str
    channel: Channel


@dataclass(frozen=True)
class Directive:
    op: str
    arg: str | int | None = None


@dataclass(frozen=True)
class ProtocolDecl:
    name: str
    directives: tuple[Directive, ...]


@dataclass(frozen=True)
class ProtocolSpec:
    """A validated document: systems, distributions, channels, protocols."""

    systems: dict[str, SystemDecl] = field(default_factory=dict)
    dists: dict[str, DistDecl] = field(default_factory=dict)
    channels: dict[str, ChannelDecl] = field(default_factory=dict)
    protocols: dict[str, ProtocolDecl] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not (self.systems or self.dists or self.channels or self.protocols)


@dataclass(frozen=True)
class ParseResult:
    document: ProtocolSpec | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.document is not None

    def errors(self) -> list[ParseDiagnostic]:
        return list(self.diagnostics)


@dataclass(slots=True)
class _Token:
    text: str
    line: int
    column: int


@dataclass
class _RawBlock:
    kind: str
    name: str
    line: int
    column: int
    items: list[list[_Token]] = field(default_factory=list)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.diagnostics: list[ParseDiagnostic] = []

    def error(self, at: _Token | _RawBlock, message: str):
        self.diagnostics.append(ParseDiagnostic(at.line, at.column, message))

    # -- stage 1: group lines into raw blocks ------------------------------

    def collect_blocks(self) -> list[_RawBlock]:
        blocks: list[_RawBlock] = []
        current: _RawBlock | None = None  # None only before the first header
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            code = raw.split("#", 1)[0]
            tokens = [
                _Token(m.group(0), line_no, m.start() + 1)
                for m in _TOKEN_RE.finditer(code)
            ]
            if not tokens:
                continue
            head = tokens[0]
            if head.column > 1:
                if current is None:
                    self.error(head, "indented line outside any block")
                else:
                    current.items.append(tokens)
                continue
            # A bad header still opens a block, left out of `blocks`, so that
            # its lines are ignored up to the next header.
            name = tokens[1].text if len(tokens) > 1 else ""
            current = _RawBlock(head.text, name, head.line, head.column)
            if head.text not in _BLOCK_KEYWORDS:
                self.error(head, f"unknown block keyword {head.text!r}; expected one of "
                                 + ", ".join(_BLOCK_KEYWORDS))
            elif not name:
                self.error(head, f"{head.text!r} block needs a name")
            elif ":" in name:
                self.error(tokens[1], f"invalid block name {name!r}")
            else:
                if len(tokens) > 2:
                    self.error(tokens[2], "unexpected text after block name")
                blocks.append(current)
        return blocks

    # -- stage 2: check each line against the grammar ------------------------

    def lines(self, block: _RawBlock):
        """Yield (key, args) for each line of `block` that fits the grammar.

        The other lines -- an unknown key, a second once-only key, a wrong
        argument count or word -- are reported as they come; a required key
        that no line supplied is reported once the block is exhausted.
        """
        grammar = _GRAMMAR[block.kind]
        seen: set[str] = set()
        for key, *args in block.items:
            rule = grammar.get(key.text)
            if rule is None:
                noun = "directive" if block.kind == "protocol" else "key"
                self.error(key, f"unknown {block.kind} {noun} {key.text!r}")
            elif rule.once and key.text in seen:
                self.error(key, f"duplicate '{key.text}' line")
            elif not rule.fewest <= len(args) <= rule.most or (
                rule.words and args[0].text not in rule.words
            ):
                # a fixed word, or an argument to a key that takes none, is
                # faulted where it stands
                at = args[0] if rule.words is not None and args else key
                self.error(at, f"'{key.text}' {rule.takes}")
            else:
                seen.add(key.text)
                yield key, args
        for name in _REQUIRED[block.kind]:
            if name not in seen:
                article = "an" if name[0] in "aeiou" else "a"
                self.error(block, f"{block.kind} {block.name!r} is missing "
                                  f"{article} '{name}' line")

    # -- token helpers ------------------------------------------------------

    def number(self, token: _Token, what: str, sign: str | None = None) -> float | None:
        """The finite value `token` spells, or None once the reason is reported.

        `sign` ("positive" or "non-negative") narrows the accepted values.
        """
        if not _NUMBER_RE.match(token.text):
            problem = f"a number, got {token.text!r}"
        elif not math.isfinite(value := float(token.text)):
            problem = f"finite, got {token.text!r}"
        elif sign and (value < 0.0 or value == 0.0 and sign == "positive"):
            problem = sign
        else:
            return value
        self.error(token, f"{what} must be {problem}")
        return None

    def count(self, token: _Token, what: str) -> int | None:
        if not _COUNT_RE.match(token.text):
            self.error(token, f"{what} must be a non-negative integer, got {token.text!r}")
            return None
        return int(token.text)

    def check_label(self, token: _Token) -> bool:
        if ":" in token.text:
            self.error(token, f"invalid label {token.text!r}")
            return False
        return True

    def system_of(self, block: _RawBlock, over: _Token, decls: dict) -> SystemDecl | None:
        system = decls["system"].get(over.text)
        if system is None:
            self.error(over, f"{block.kind} {block.name!r} refers to unknown system "
                             f"{over.text!r}")
        return system

    # -- stage 3: per-block builders ----------------------------------------
    # Each returns None where a reported problem leaves nothing more to check;
    # build_document drops the declaration of any block that reported one.
    # `decls` holds the declarations built so far, by kind and name.

    def build_system(self, block: _RawBlock, decls: dict) -> SystemDecl | None:
        mark = len(self.diagnostics)
        states: dict[str, float] = {}  # label -> energy
        values = {"boltzmann": 1.0}
        energies: list[tuple[_Token, float | None]] = []
        for key, args in self.lines(block):
            if key.text == "states":
                for tok in args:
                    if not self.check_label(tok):
                        continue
                    if tok.text in states:
                        self.error(tok, f"duplicate state label {tok.text!r}")
                    else:
                        states[tok.text] = 0.0
            elif key.text == "energy":
                energies.append((args[0], self.number(args[1], "energy value")))
            else:
                values[key.text] = self.number(args[0], key.text, "positive")
        if len(self.diagnostics) > mark:
            return None
        assigned: set[str] = set()
        for label, value in energies:
            if label.text not in states:
                self.error(label, f"energy for unknown state {label.text!r}")
            elif label.text in assigned:
                self.error(label, f"duplicate energy for state {label.text!r}")
            else:
                assigned.add(label.text)
                states[label.text] = value
        return SystemDecl(name=block.name, states=tuple(states),
                          temperature=values["temperature"], boltzmann=values["boltzmann"],
                          energies=tuple(states.values()))

    def build_dist(self, block: _RawBlock, decls: dict) -> DistDecl | None:
        mark = len(self.diagnostics)
        for key, args in self.lines(block):
            if key.text == "over":
                over = args[0]
            else:
                probs_key = key
                probs = [self.number(tok, "probability", "non-negative") for tok in args]
        if len(self.diagnostics) > mark:
            return None
        total = float(np.sum(probs))
        if abs(total - 1.0) > SUM_TOLERANCE:
            self.error(probs_key, f"probabilities sum to {total:g}")
        system = self.system_of(block, over, decls)
        if system is None:
            return None
        if len(probs) != len(system.states):
            self.error(probs_key, f"dist {block.name!r} has {len(probs)} probabilities "
                                  f"but system {system.name!r} has {len(system.states)} states")
            return None
        if len(self.diagnostics) > mark:
            return None
        try:
            dist = Distribution(np.array(probs), labels=system.states)
        except (DomainError, ShapeError) as exc:
            self.error(probs_key, str(exc))
            return None
        return DistDecl(name=block.name, system=system.name, dist=dist)

    def build_channel(self, block: _RawBlock, decls: dict) -> ChannelDecl | None:
        mark = len(self.diagnostics)
        rows: list[tuple[_Token, list[tuple[_Token, float]]]] = []
        for key, args in self.lines(block):
            if key.text == "over":
                over = args[0]
                continue
            if not args or not args[0].text.endswith(":"):
                self.error(key, "'from' needs a source label followed by ':'")
                continue
            source = _Token(args[0].text[:-1], args[0].line, args[0].column)
            if not source.text:
                self.error(args[0], "'from' needs a source label before ':'")
                continue
            pairs = args[1:]
            if not pairs or len(pairs) % 2 != 0:
                self.error(key, "'from' row needs (target, value) pairs")
                continue
            row = []
            for target, value_tok in zip(pairs[0::2], pairs[1::2]):
                value = self.number(value_tok, "transition probability", "non-negative")
                if value is not None and self.check_label(target):
                    row.append((target, value))
            rows.append((source, row))
        if len(self.diagnostics) > mark:
            return None
        system = self.system_of(block, over, decls)
        if system is None:
            return None
        index = {label: i for i, label in enumerate(system.states)}
        matrix = np.zeros((len(index), len(index)))
        seen_rows: set[str] = set()
        for source, row in rows:
            i = index.get(source.text)
            if i is None:
                self.error(source, f"'from' row for unknown state {source.text!r}")
                continue
            if source.text in seen_rows:
                self.error(source, f"duplicate 'from' row for state {source.text!r}")
                continue
            seen_rows.add(source.text)
            seen_targets: set[str] = set()
            for target, value in row:
                if target.text not in index:
                    self.error(target, f"transition to unknown state {target.text!r}")
                elif target.text in seen_targets:
                    self.error(target, f"duplicate target {target.text!r} in row")
                else:
                    seen_targets.add(target.text)
                    matrix[i, index[target.text]] = value
            row_sum = float(matrix[i].sum())
            if abs(row_sum - 1.0) > SUM_TOLERANCE:
                self.error(source, f"row for state {source.text!r} sums to {row_sum:g}")
        for label in system.states:
            if label not in seen_rows:
                self.error(block, f"channel {block.name!r} is missing a 'from' row "
                                  f"for state {label!r}")
        if len(self.diagnostics) > mark:
            return None
        try:
            channel = Channel(matrix, labels=system.states)
        except (DomainError, ShapeError) as exc:
            self.error(block, str(exc))
            return None
        return ChannelDecl(name=block.name, system=system.name, channel=channel)

    def build_protocol(self, block: _RawBlock, decls: dict) -> ProtocolDecl:
        directives: list[Directive] = []
        for key, args in self.lines(block):
            op = key.text
            arg = args[0].text if args else None
            if op == "apply" and arg not in decls["channel"]:
                self.error(args[0], f"'apply' refers to unknown channel {arg!r}")
            elif op in ("evolve", "audit"):
                arg = self.count(args[0], f"'{op}' step count")
                if op == "audit" and arg == 0:
                    self.error(args[0], "'audit' needs at least one step")
            directives.append(Directive(op, arg))
        return ProtocolDecl(name=block.name, directives=tuple(directives))

    # -- stage 4: document assembly ------------------------------------------

    def build_document(self, blocks: list[_RawBlock]) -> ProtocolSpec | None:
        first: dict[tuple[str, str], _RawBlock] = {}
        for block in blocks:
            key = (block.kind, block.name)
            if key in first:
                self.error(block, f"duplicate {block.kind} name {block.name!r} "
                                  f"(first declared on line {first[key].line})")
            else:
                first[key] = block
        decls: dict[str, dict] = {kind: {} for kind in _GRAMMAR}
        # systems first, then what refers to a system, then what refers to a channel
        for stage in (("system",), ("dist", "channel"), ("protocol",)):
            for block in first.values():
                if block.kind in stage:
                    mark = len(self.diagnostics)
                    decl = getattr(self, f"build_{block.kind}")(block, decls)
                    if len(self.diagnostics) == mark:
                        decls[block.kind][decl.name] = decl
        if self.diagnostics:
            return None
        return ProtocolSpec(decls["system"], decls["dist"], decls["channel"],
                            decls["protocol"])


def parse(source: str) -> ParseResult:
    """Parse DSL text into a validated document.

    Never raises on bad input: all problems come back as diagnostics with
    1-based line/column positions, and the document is None whenever any
    diagnostic was produced.
    """
    parser = _Parser(source)
    blocks = parser.collect_blocks()
    document = parser.build_document(blocks)
    return ParseResult(document=document, diagnostics=tuple(parser.diagnostics))


def _fmt(value: float) -> str:
    return repr(float(value))


def format_document(doc: ProtocolSpec) -> str:
    """Canonical pretty-print; parse(format_document(doc)) reproduces doc."""
    chunks: list[str] = []
    for system in doc.systems.values():
        lines = [f"system {system.name}"]
        lines.append("  states " + " ".join(system.states))
        lines.append(f"  temperature {_fmt(system.temperature)}")
        lines.append(f"  boltzmann {_fmt(system.boltzmann)}")
        for label, energy in zip(system.states, system.energies):
            lines.append(f"  energy {label} {_fmt(energy)}")
        chunks.append("\n".join(lines))
    for dist in doc.dists.values():
        lines = [f"dist {dist.name}"]
        lines.append(f"  over {dist.system}")
        lines.append("  probs " + " ".join(_fmt(x) for x in dist.dist.probs))
        chunks.append("\n".join(lines))
    for decl in doc.channels.values():
        lines = [f"channel {decl.name}"]
        lines.append(f"  over {decl.system}")
        labels = decl.channel.labels
        for i, source in enumerate(labels):
            row = decl.channel.matrix[i]
            cells = " ".join(
                f"{labels[j]} {_fmt(row[j])}" for j in range(len(labels)) if row[j] != 0.0
            )
            lines.append(f"  from {source}: {cells}")
        chunks.append("\n".join(lines))
    for protocol in doc.protocols.values():
        lines = [f"protocol {protocol.name}"]
        for directive in protocol.directives:
            if directive.arg is None:
                lines.append(f"  {directive.op}")
            else:
                lines.append(f"  {directive.op} {directive.arg}")
        chunks.append("\n".join(lines))
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
