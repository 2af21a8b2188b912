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
must be consistent. A system is held to EnergyLandscape's rule at its
header, a `probs` line and each `from` row to Distribution's at that line,
each in the core's words. The parser recovers at block granularity and
reports every diagnostic in one pass; it never raises on malformed input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bitops
from .errors import DomainError
from .info import Distribution, _probability_rows
from .markov import Channel
from .thermo import REPORT_FORMATS, EnergyLandscape

# No two parts of the pattern can take the same digit, so a word matches in one way.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\d+|\.\d+)(?:[eE][+-]?\d+)?")


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
    """A system block: its state labels and the landscape its lines spell."""

    name: str
    states: tuple[str, ...]
    landscape: EnergyLandscape


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


@dataclass(slots=True)
class _Line:
    """One line that holds code: its words are `code.split()`, which splits
    exactly where the runs of `\\S+` end (both follow `str.isspace`)."""

    number: int  # 1-based
    code: str  # the text before any '#'
    words: list[str]
    columns: list[int] | None = None  # 1-based, of each word; set by `column`

    def column(self, index: int) -> int:
        """The 1-based column of `words[index]`. The first diagnostic on the
        line finds every word's column in one scan: each word is the first
        match of its text after the previous word."""
        if self.columns is None:
            self.columns, end = [], 0
            for word in self.words:
                start = self.code.index(word, end)
                self.columns.append(start + 1)
                end = start + len(word)
        return self.columns[index]


@dataclass
class _RawBlock:
    kind: str
    name: str
    header: _Line
    items: list[_Line] = field(default_factory=list)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.diagnostics: list[ParseDiagnostic] = []
        # the first block of each (kind, name), whether or not it builds
        self.declared: dict[tuple[str, str], _RawBlock] = {}

    def error(self, line: _Line, index: int, message: str):
        """Report `message` at word `index` of `line`."""
        self.diagnostics.append(ParseDiagnostic(line.number, line.column(index), message))

    def block_error(self, block: _RawBlock, message: str):
        self.error(block.header, 0, message)

    # -- stage 1: group lines into raw blocks ------------------------------

    def collect_blocks(self) -> list[_RawBlock]:
        blocks: list[_RawBlock] = []
        current: _RawBlock | None = None  # None only before the first header
        for number, raw in enumerate(self.source.splitlines(), start=1):
            code = raw.partition("#")[0]
            words = code.split()
            if not words:
                continue
            line = _Line(number, code, words)
            if code[0].isspace():
                if current is None:
                    self.error(line, 0, "indented line outside any block")
                else:
                    current.items.append(line)
                continue
            # A bad header still opens a block, left out of `blocks`, so that
            # its lines are ignored up to the next header.
            head = words[0]
            name = words[1] if len(words) > 1 else ""
            current = _RawBlock(head, name, line)
            if head not in _BLOCK_KEYWORDS:
                self.error(line, 0, f"unknown block keyword {head!r}; expected one of "
                                    + ", ".join(_BLOCK_KEYWORDS))
            elif not name:
                self.error(line, 0, f"{head!r} block needs a name")
            elif ":" in name:
                self.error(line, 1, f"invalid block name {name!r}")
            else:
                if len(words) > 2:
                    self.error(line, 2, "unexpected text after block name")
                blocks.append(current)
        return blocks

    # -- stage 2: check each line against the grammar ------------------------

    def lines(self, block: _RawBlock):
        """Yield (line, key, args) for each line of `block` that fits the grammar.

        The other lines -- an unknown key, a second once-only key, a wrong
        argument count or word -- are reported as they come; a required key
        that no line supplied is reported once the block is exhausted.
        Word i of `args` is word i + 1 of `line`.
        """
        grammar = _GRAMMAR[block.kind]
        seen: set[str] = set()
        for line in block.items:
            key, *args = line.words
            rule = grammar.get(key)
            if rule is None:
                noun = "directive" if block.kind == "protocol" else "key"
                self.error(line, 0, f"unknown {block.kind} {noun} {key!r}")
            elif rule.once and key in seen:
                self.error(line, 0, f"duplicate '{key}' line")
            elif not rule.fewest <= len(args) <= rule.most or (
                rule.words and args[0] not in rule.words
            ):
                # a fixed word, or an argument to a key that takes none, is
                # faulted where it stands
                self.error(line, 1 if rule.words is not None and args else 0,
                           f"'{key}' {rule.takes}")
            else:
                seen.add(key)
                yield line, key, args
        for name in _REQUIRED[block.kind]:
            if name not in seen:
                article = "an" if name[0] in "aeiou" else "a"
                self.block_error(block, f"{block.kind} {block.name!r} is missing "
                                        f"{article} '{name}' line")

    # -- word helpers -------------------------------------------------------

    def number(self, line: _Line, index: int, what: str,
               non_negative: bool = False) -> float | None:
        """The finite (and, if asked, non-negative) value word `index` of `line`
        spells, or None once the reason is reported; the rest is the core's rule."""
        text = line.words[index]
        if not _NUMBER_RE.fullmatch(text):
            problem = f"a number, got {text!r}"
        elif not math.isfinite(value := float(text)):
            problem = f"finite, got {text!r}"
        elif non_negative and value < 0.0:
            problem = "non-negative"
        else:
            return value
        self.error(line, index, f"{what} must be {problem}")
        return None

    def non_negative_numbers(self, line: _Line, what: str) -> list[float] | None:
        """The values of `line`'s arguments, each checked as `number` checks
        a non-negative value: in one pass, and word by word only to
        report what is wrong (then None)."""
        args = line.words[1:]
        if all(map(_NUMBER_RE.fullmatch, args)):
            values = list(map(float, args))
            if all(map(math.isfinite, values)) and min(values) >= 0.0:
                return values
        for index in range(1, len(line.words)):
            self.number(line, index, what, non_negative=True)
        return None

    def check_label(self, line: _Line, index: int) -> bool:
        label = line.words[index]
        if ":" in label:
            self.error(line, index, f"invalid label {label!r}")
            return False
        return True

    def system_of(self, block: _RawBlock, over: _Line, decls: dict) -> SystemDecl | None:
        """The system that word 1 of the `over` line names, or None: reported
        if no system block declares that name, silent if its block was rejected."""
        name = over.words[1]
        system = decls["system"].get(name)
        if system is None and ("system", name) not in self.declared:
            self.error(over, 1, f"{block.kind} {block.name!r} refers to unknown system "
                                f"{name!r}")
        return system

    # -- stage 3: per-block builders ----------------------------------------
    # Each returns None where a reported problem, or a rejected system, leaves
    # nothing more to check; build_document drops the declaration of any block
    # that reported one.
    # `decls` holds the declarations built so far, by kind and name.

    def build_system(self, block: _RawBlock, decls: dict) -> SystemDecl | None:
        mark = len(self.diagnostics)
        states: dict[str, float] = {}  # label -> energy
        values: dict[str, float | None] = {}  # temperature and, if given, boltzmann
        energies: list[tuple[_Line, float | None]] = []
        for line, key, args in self.lines(block):
            if key == "states":
                for index, label in enumerate(args, start=1):
                    if not self.check_label(line, index):
                        continue
                    if label in states:
                        self.error(line, index, f"duplicate state label {label!r}")
                    else:
                        states[label] = 0.0
            elif key == "energy":
                energies.append((line, self.number(line, 2, "energy value")))
            else:
                values[key] = self.number(line, 1, key)
        if len(self.diagnostics) > mark:
            return None
        assigned: set[str] = set()
        for line, value in energies:
            label = line.words[1]
            if label not in states:
                self.error(line, 1, f"energy for unknown state {label!r}")
            elif label in assigned:
                self.error(line, 1, f"duplicate energy for state {label!r}")
            else:
                assigned.add(label)
                states[label] = value
        try:
            landscape = EnergyLandscape(list(states.values()), **values)
        except DomainError as exc:
            self.block_error(block, str(exc))
            return None
        return SystemDecl(name=block.name, states=tuple(states), landscape=landscape)

    def build_dist(self, block: _RawBlock, decls: dict) -> DistDecl | None:
        mark = len(self.diagnostics)
        over = probs = None
        for line, key, args in self.lines(block):
            if key == "over":
                over = line
            else:
                probs_line = line
                probs = self.non_negative_numbers(line, "probability")
        if probs is not None:
            try:
                dist = Distribution(probs)
            except DomainError as exc:
                self.error(probs_line, 0, str(exc))
        system = self.system_of(block, over, decls) if over else None
        if system and probs is not None and len(probs) != len(system.states):
            self.error(probs_line, 0, f"dist {block.name!r} has {len(probs)} probabilities "
                                      f"but system {system.name!r} has "
                                      f"{len(system.states)} states")
        if system is None or len(self.diagnostics) > mark:
            return None
        return DistDecl(name=block.name, system=system.name, dist=dist)

    def build_channel(self, block: _RawBlock, decls: dict) -> ChannelDecl | None:
        mark = len(self.diagnostics)
        # each 'from' line that names its source (word 1, with its ':'), with the
        # (word index, value) of its targets, nan for a bad value, and whether
        # all its words are good
        rows: list[tuple[_Line, list[tuple[int, float]], bool]] = []
        over, placed = None, True  # placed: every 'from' line names its source
        for line, key, args in self.lines(block):
            if key == "over":
                over = line
                continue
            if not args or not args[0].endswith(":"):
                self.error(line, 0, "'from' needs a source label followed by ':'")
                placed = False
                continue
            if args[0] == ":":
                self.error(line, 1, "'from' needs a source label before ':'")
                placed = False
                continue
            if len(args) == 1 or len(args) % 2 == 0:
                self.error(line, 0, "'from' row needs (target, value) pairs")
                rows.append((line, [], False))
                continue
            row_mark, row = len(self.diagnostics), []
            for index in range(2, len(line.words), 2):
                value = self.number(line, index + 1, "transition probability", non_negative=True)
                if self.check_label(line, index):
                    row.append((index, math.nan if value is None else value))
            rows.append((line, row, len(self.diagnostics) == row_mark))
        system = self.system_of(block, over, decls) if over else None
        if system is None:
            return None
        index = {label: i for i, label in enumerate(system.states)}
        matrix = np.zeros((len(index), len(index)))
        seen_rows: set[str] = set()
        for line, row, whole in rows:
            source = line.words[1][:-1]
            i = index.get(source)
            if i is None:
                self.error(line, 1, f"'from' row for unknown state {source!r}")
                continue
            if source in seen_rows:
                self.error(line, 1, f"duplicate 'from' row for state {source!r}")
                continue
            seen_rows.add(source)
            seen_targets: set[str] = set()
            for at, value in row:
                target = line.words[at]
                if target not in index:
                    self.error(line, at, f"transition to unknown state {target!r}")
                elif target in seen_targets:
                    self.error(line, at, f"duplicate target {target!r} in row")
                else:
                    seen_targets.add(target)
                    matrix[i, index[target]] = value
            if not whole:  # its bad words are reported; its sum is not checked
                continue
            try:
                _probability_rows(matrix[i][None], f"row for state {source!r}")
            except DomainError as exc:
                self.error(line, 1, str(exc))
        for label in system.states if placed else ():
            if label not in seen_rows:
                self.block_error(block, f"channel {block.name!r} is missing a 'from' row "
                                        f"for state {label!r}")
        if len(self.diagnostics) > mark:
            return None
        return ChannelDecl(name=block.name, system=system.name, channel=Channel(matrix))

    def build_protocol(self, block: _RawBlock, decls: dict) -> ProtocolDecl:
        directives: list[Directive] = []
        for line, op, args in self.lines(block):
            arg = args[0] if args else None
            if op == "apply" and ("channel", arg) not in self.declared:
                self.error(line, 1, f"'apply' refers to unknown channel {arg!r}")
            elif op in ("evolve", "audit"):
                least = int(op == "audit")  # the rule and message of errors._count
                if arg.isdecimal() and int(arg) >= least:
                    arg = int(arg)
                else:
                    self.error(line, 1, f"'{op}' step count must be an integer of at least "
                                        f"{least}, got {arg!r}")
            directives.append(Directive(op, arg))
        return ProtocolDecl(name=block.name, directives=tuple(directives))

    # -- stage 4: document assembly ------------------------------------------

    def build_document(self, blocks: list[_RawBlock]) -> ProtocolSpec | None:
        for block in blocks:
            first = self.declared.setdefault((block.kind, block.name), block)
            if first is not block:
                self.block_error(block, f"duplicate {block.kind} name {block.name!r} "
                                        f"(first declared on line {first.header.number})")
        decls: dict[str, dict] = {kind: {} for kind in _GRAMMAR}
        # systems first, then what refers to a system, then what refers to a channel
        for stage in (("system",), ("dist", "channel"), ("protocol",)):
            for block in self.declared.values():
                if block.kind in stage:
                    mark = len(self.diagnostics)
                    decl = getattr(self, f"build_{block.kind}")(block, decls)
                    if decl is not None and len(self.diagnostics) == mark:
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
        lines.append(f"  temperature {_fmt(system.landscape.temperature)}")
        lines.append(f"  boltzmann {_fmt(system.landscape.boltzmann)}")
        for label, energy in zip(system.states, system.landscape.energies):
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
        states = doc.systems[decl.system].states
        for source, row in zip(states, decl.channel.matrix):
            cells = " ".join(
                f"{target} {_fmt(x)}" for target, x in zip(states, row) if x != 0.0
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
