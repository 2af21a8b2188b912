"""Command-line front end.

Exit codes: 0 = pass, 1 = usage or parse errors, 2 = a checked property
was violated. All output is deterministic for a fixed seed and inputs;
information quantities appear in both nats and bits, and non-finite
values are rendered as the literal strings "inf"/"-inf".

Importing this module loads no numpy. Only the subcommand named on the
command line gets its arguments, and imports the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from .errors import ThermobitError

SEED_ENV_VAR = "THERMOBIT_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Subcommand(_Parser):
    """A subcommand's parser. Its arguments, and the modules their choices
    and defaults come from, are added only once the command line names it."""

    def __init__(self, *args, add_arguments: Callable[[argparse.ArgumentParser], None],
                 **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            self._add_arguments(self)
            self._add_arguments = None
        return super().parse_known_args(args, namespace)


def _int_at_least(minimum: int):
    """argparse type for a count: a value below `minimum` is a usage error."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type for a tolerance: a value that is not finite and
    non-negative is a usage error (nan or -1 would fail every check, inf
    would pass every one)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _seed(text: str) -> int:
    """argparse type for a sweep seed: an integer in any base int(text, 0)
    reads, at least 0 (numpy seeds have no negative values)."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _resolve_seed(flag_value: int | None, default: int) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise ThermobitError(f"{SEED_ENV_VAR} {exc}") from None
    return default


def _boltzmann(args) -> float:
    """--kB if given, else the Boltzmann constant of --units."""
    from .thermo import SI_BOLTZMANN

    if args.kB is not None:
        return args.kB
    return SI_BOLTZMANN if args.units == "si" else 1.0


def _jsonify(value):
    """Make a structure JSON-safe: non-finite floats become strings."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonify(payload), indent=2) + "\n"


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _print_pairs(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {_fmt_value(v)}" for k, v in pairs) + "\n"


def _csv_line(cells) -> str:
    return ",".join(_fmt_value(c) for c in cells)


def _load_document(path: str):
    from . import dsl

    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ThermobitError(f"cannot read {path}: {exc}") from None
    result = dsl.parse(source)
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    if not result.ok:
        return None
    return result.document


def _lookup(decls: dict, kind: str, name: str, path: str, system: str | None = None):
    """The declaration of `kind` called `name` in `decls` (over `system`, if
    given)."""
    decl = decls.get(name)
    if decl is None:
        raise ThermobitError(f"no {kind} named {name!r} in {path}")
    if system is not None and decl.system != system:
        raise ThermobitError(f"{kind} {name!r} is over system {decl.system!r}, not {system!r}")
    return decl


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_check(args) -> int:
    from .thermo import check_szilard_landauer

    doc = _load_document(args.file)
    if doc is None:
        return EXIT_USAGE
    decl = _lookup(doc.dists, "dist", args.dist, args.file)
    report = check_szilard_landauer(doc.systems[decl.system].landscape, decl.dist)
    passed = report.passes(args.tolerance)
    if args.format == "json":
        payload = report.to_json_dict()
        payload["tolerance"] = args.tolerance
        payload["passed"] = passed
        sys.stdout.write(_dump_json(payload))
    elif args.format == "csv":
        header = [
            "partition_value", "log_partition", "average_energy", "free_energy_p",
            "free_energy_gibbs", "available", "kl_nats", "kl_bits", "residual",
            "scale", "passed",
        ]
        row = [
            report.partition_value, report.log_partition, report.average_energy,
            report.free_energy_p, report.free_energy_gibbs, report.available,
            report.kl_nats.nats, report.kl_nats.bits, report.residual,
            report.scale, passed,
        ]
        sys.stdout.write(_csv_line(header) + "\n" + _csv_line(row) + "\n")
    else:
        sys.stdout.write(_print_pairs([
            ("partition Z", report.partition_value),
            ("log Z", report.log_partition),
            ("gibbs", list(map(float, report.gibbs.probs))),
            ("average energy", report.average_energy),
            ("F(p)", report.free_energy_p),
            ("F(gibbs)", report.free_energy_gibbs),
            ("available", report.available),
            ("D(p||gibbs) nats", report.kl_nats.nats),
            ("D(p||gibbs) bits", report.kl_nats.bits),
            ("residual", report.residual),
            ("tolerance", args.tolerance * report.scale),
            ("passed", passed),
        ]))
    return EXIT_OK if passed else EXIT_VIOLATION


def _cmd_audit(args) -> int:
    from .markov import second_law_audit

    doc = _load_document(args.file)
    if doc is None:
        return EXIT_USAGE
    channel = _lookup(doc.channels, "channel", args.channel, args.file)
    p0 = _lookup(doc.dists, "dist", args.p0, args.file, channel.system)
    reference = None
    if args.reference is not None:
        reference = _lookup(doc.dists, "dist", args.reference, args.file, channel.system)
    verdict = second_law_audit(p0.dist, channel.channel, args.steps,
                               reference=None if reference is None else reference.dist)
    if args.trajectory_csv:
        try:
            with open(args.trajectory_csv, "w", encoding="utf-8") as handle:
                verdict.trajectory.to_csv(handle)
        except OSError as exc:
            raise ThermobitError(f"cannot write {args.trajectory_csv}: {exc}") from None
    if args.format == "json":
        payload = verdict.to_json_dict()
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(_print_pairs([
            ("stationary", list(map(float, verdict.stationary.probs))),
            ("detailed balance", verdict.detailed_balance),
            ("monotone", verdict.monotone),
            ("max violation", verdict.max_violation),
            ("steps checked", verdict.steps_checked),
        ]))
    return EXIT_OK if verdict.monotone else EXIT_VIOLATION


# each --input value, by the BitState constructor it names
_BIT_BY_FLAG = {"0": "zero", "1": "one", "star": "star"}


def _cmd_bitop(args) -> int:
    from . import bitops

    op = bitops.OPS[args.op]
    if args.input is not None and not isinstance(op.nominal, bitops.BitState):
        raise ThermobitError(f"{args.op} takes no --input: it acts on a pair of bits")
    given = (args.from_value, args.to_value)
    if not op.values and given != (None, None):
        raise ThermobitError(f"{args.op} takes no --from or --to")
    values = tuple(default if v is None else v for v, default in zip(given, op.values))
    op = bitops.operation(args.op, *values)
    state = op.nominal if args.input is None else getattr(bitops.BitState,
                                                          _BIT_BY_FLAG[args.input])()
    # looked up on the module, so that a wrapper put in its place sees the call
    _, ledger = getattr(bitops, op.function)(state, *values, temperature=args.temperature,
                                             boltzmann=_boltzmann(args), mode=args.mode)
    sys.stdout.write(_dump_json(ledger.to_json_dict()))
    return EXIT_OK


def _cmd_szilard(args) -> int:
    from . import engine

    cfg = engine.EngineConfig(temperature=args.temperature, boltzmann=_boltzmann(args),
                              steps=args.steps)
    rows = engine.convergence_table(cfg, args.ratio, levels=args.levels)
    exact = engine.exact_isothermal_work(cfg, 1.0, 1.0 / args.ratio)
    if args.format == "json":
        payload = {
            "ratio": args.ratio,
            "exact_work": exact,
            "rows": [{"steps": n, "work": w, "abs_error": e} for n, w, e in rows],
        }
        sys.stdout.write(_dump_json(payload))
    elif args.format == "csv":
        sys.stdout.write(_csv_line(["N", "work", "abs_error"]) + "\n")
        for n, work, err in rows:
            sys.stdout.write(_csv_line([n, work, err]) + "\n")
    else:
        sys.stdout.write(f"exact work kT*log({_fmt_value(args.ratio)}): {exact!r}\n")
        sys.stdout.write(f"{'N':>10}  {'work':<24}{'abs_error'}\n")
        for n, work, err in rows:
            sys.stdout.write(f"{n:>10}  {work!r:<24}{err!r}\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import sweeps

    seed = _resolve_seed(args.seed, sweeps.DEFAULT_SEED)
    identity = sweeps.identity_sweep(args.instances, args.max_states, seed)
    dpi = sweeps.dpi_sweep(args.instances, min(args.max_states, 8), seed)
    monotone = sweeps.monotonicity_sweep(args.instances, min(args.max_states, 32), args.steps,
                                         seed)
    all_passed = identity.all_passed and dpi.all_passed and monotone.all_passed
    if args.format == "json":
        payload = {
            "seed": seed,
            "identity": identity.to_json_dict(),
            "data_processing": dpi.to_json_dict(),
            "second_law": monotone.to_json_dict(),
            "all_passed": all_passed,
        }
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(_print_pairs([
            ("seed", seed),
            ("identity instances", identity.instances),
            ("identity failures", identity.identity_failures),
            ("identity worst residual/scale", identity.identity_worst),
            ("proof-step failures", identity.proof_failures),
            ("proof-step worst residual/scale", identity.proof_worst),
            ("optimality failures", identity.optimality_failures),
            ("min available", identity.min_available),
            ("DPI instances", dpi.instances),
            ("DPI failures", dpi.failures),
            ("DPI worst excess", dpi.worst_excess),
            ("second-law instances", monotone.instances),
            ("second-law failures", monotone.failures),
            ("second-law worst violation", monotone.worst_violation),
            ("non-detailed-balance chains", monotone.non_detailed_balance),
            ("all passed", all_passed),
        ]))
    return EXIT_OK if all_passed else EXIT_VIOLATION


def _cmd_fmt(args) -> int:
    from . import dsl

    doc = _load_document(args.file)
    if doc is None:
        return EXIT_USAGE
    sys.stdout.write(dsl.format_document(doc))
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring: each adder imports only what its choices and defaults need
# --------------------------------------------------------------------------


def _check_arguments(check: argparse.ArgumentParser) -> None:
    from .thermo import IDENTITY_TOLERANCE, REPORT_FORMATS

    check.add_argument("file", help="protocol file (.tbit)")
    check.add_argument("--dist", required=True, help="name of the dist to check")
    check.add_argument("--tolerance", type=_tolerance, default=IDENTITY_TOLERANCE,
                       help=f"residual tolerance per unit scale (default {IDENTITY_TOLERANCE})")
    check.add_argument("--format", choices=REPORT_FORMATS, default="table")


def _audit_arguments(audit: argparse.ArgumentParser) -> None:
    audit.add_argument("file", help="protocol file (.tbit)")
    audit.add_argument("--channel", required=True)
    audit.add_argument("--p0", required=True, help="name of the starting dist")
    audit.add_argument("--steps", type=_int_at_least(1), default=100)
    audit.add_argument("--reference",
                       help="audit against this dist instead of the stationary one")
    audit.add_argument("--trajectory-csv", help="write the trajectory to this CSV file")
    audit.add_argument("--format", choices=("table", "json"), default="table")


def _bitop_arguments(bitop: argparse.ArgumentParser) -> None:
    from .bitops import OPS

    bitop.add_argument("op", choices=OPS)
    bitop.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    bitop.add_argument("--temperature", type=float, default=1.0)
    bitop.add_argument("--kB", type=float, default=None,
                       help="Boltzmann constant (default per --units)")
    bitop.add_argument("--units", choices=("natural", "si"), default="natural")
    bitop.add_argument("--input", choices=tuple(_BIT_BY_FLAG), default=None,
                       help="input bit for single-bit ops (default: the op's nominal type)")
    bitop.add_argument("--from", dest="from_value", type=int, choices=(0, 1),
                       help="switch only: the value switched from (default 0)")
    bitop.add_argument("--to", dest="to_value", type=int, choices=(0, 1),
                       help="switch only: the value switched to (default 1)")


def _szilard_arguments(szilard: argparse.ArgumentParser) -> None:
    from .engine import EngineConfig
    from .thermo import REPORT_FORMATS

    szilard.add_argument("--ratio", type=float, default=2.0)
    szilard.add_argument("--steps", type=_int_at_least(1), default=EngineConfig().steps)
    szilard.add_argument("--temperature", type=float, default=1.0)
    szilard.add_argument("--kB", type=float, default=None)
    szilard.add_argument("--units", choices=("natural", "si"), default="natural")
    szilard.add_argument("--levels", type=_int_at_least(1), default=6,
                         help="number of N-halving rows in the table")
    szilard.add_argument("--format", choices=REPORT_FORMATS, default="table")


def _sweep_arguments(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--instances", type=_int_at_least(1), default=1000)
    sweep.add_argument("--max-states", type=_int_at_least(2), default=64)
    sweep.add_argument("--steps", type=_int_at_least(1), default=100,
                       help="audit steps per second-law instance")
    sweep.add_argument("--seed", type=_seed, default=None,
                       help=f"sweep seed, a non-negative integer (default {SEED_ENV_VAR} "
                            f"or 0xC0FFEE)")
    sweep.add_argument("--format", choices=("table", "json"), default="table")


def _fmt_arguments(fmt: argparse.ArgumentParser) -> None:
    fmt.add_argument("file")


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "check": _Command("verify the free-energy/information identity", _check_arguments,
                      _cmd_check),
    "audit": _Command("Second-Law audit of a channel", _audit_arguments, _cmd_audit),
    "bitop": _Command("run one bit operation and print its ledger", _bitop_arguments,
                      _cmd_bitop),
    "szilard": _Command("isothermal work table for compression by a ratio",
                        _szilard_arguments, _cmd_szilard),
    "sweep": _Command("randomized property sweeps", _sweep_arguments, _cmd_sweep),
    "fmt": _Command("canonically format a protocol file", _fmt_arguments, _cmd_fmt),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermobit",
        description="Information-thermodynamics checks over finite state spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, add_arguments=command.add_arguments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command].run(args)
    except ThermobitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a step count too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
