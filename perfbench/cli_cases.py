"""Inputs, argument lists and known answers for the cli workload.

The .tbit files are written from the seed into a work directory. Each
command carries the exit code it must return (0 pass, 1 usage, 2
violation) and, where the answer is known independently of thermobit, a
check of its stdout. The checks use only the standard library and numpy.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

FMT_BLOCKS = 1000  # size of the document given to `fmt`
LOG2 = math.log(2.0)


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], str | None] | None = None  # stdout -> problem or None
    output_file: str | None = None  # a file the command writes, compared across runs
    output_lines: int = 0  # the number of lines that file must have
    # The identity check scales its 1e-12 tolerance by max(1, |F(p)|), but
    # rounding grows with |F(gibbs)|, which reaches ~|E| when |E|/kT >= 1e3;
    # rounding alone can then fail the check (exit 2). Such a false
    # violation is a known defect: counted wrong, not a benchmark failure.
    # `rounding` reads the output of an exit 2 and returns None when
    # rounding explains it, or the reason it does not.
    rounding: Callable[[str], str | None] | None = None


# --------------------------------------------------------------------------
# .tbit writers
# --------------------------------------------------------------------------


def _num(x: float) -> str:
    return repr(float(x))


def _system_block(name: str, n: int, energies: np.ndarray | None, temperature: float) -> str:
    lines = [f"system {name}", "  states " + " ".join(f"s{i}" for i in range(n)),
             f"  temperature {_num(temperature)}"]
    if energies is not None:
        lines += [f"  energy s{i} {_num(e)}" for i, e in enumerate(energies)]
    return "\n".join(lines)


def _dist_block(name: str, system: str, probs: np.ndarray) -> str:
    return f"dist {name}\n  over {system}\n  probs " + " ".join(_num(p) for p in probs)


def _channel_block(name: str, system: str, matrix: np.ndarray) -> str:
    rows = [
        f"  from s{i}: " + " ".join(f"s{j} {_num(x)}" for j, x in enumerate(row) if x != 0.0)
        for i, row in enumerate(matrix)
    ]
    return f"channel {name}\n  over {system}\n" + "\n".join(rows)


def _write(path: Path, blocks: list[str]) -> str:
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# known answers
# --------------------------------------------------------------------------


def _kl_to_gibbs(probs: np.ndarray, energies: np.ndarray, kt: float) -> tuple[float, float]:
    """D(p||gibbs) in nats by a max-shifted log-sum-exp in math.fsum, and
    the size of the terms it sums (for a relative tolerance)."""
    logw = [-float(e) / kt for e in energies]
    top = max(logw)
    log_z = top + math.log(math.fsum(math.exp(w - top) for w in logw))
    terms = [float(p) * (math.log(float(p)) - (w - log_z))
             for p, w in zip(probs, logw) if p > 0.0]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _check_json_identity(expected_nats: float, magnitude: float) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload.get("passed") is not True:
            return "identity check did not pass"
        got = payload["kl"]["nats"]
        if abs(got - expected_nats) > 1e-9 * max(1.0, magnitude):
            return f"D(p||gibbs) = {got!r}, expected {expected_nats!r}"
        return None
    return check


# Rounding in F(p) - F(gibbs) and in kT*D is a few ulps of the largest term.
ROUNDING_PER_SCALE = 1e-11


def _identity_fields(fmt: str, stdout: str) -> dict[str, float]:
    """F(p), F(gibbs), D(p||gibbs) in nats and the residual, from a `check`
    report in any of its three formats."""
    if fmt == "json":
        payload = json.loads(stdout)
        return {"f_p": payload["free_energy_p"], "f_gibbs": payload["free_energy_gibbs"],
                "kl": payload["kl"]["nats"], "residual": payload["residual"]}
    if fmt == "csv":
        header, row = (line.split(",") for line in stdout.splitlines()[:2])
        values = dict(zip(header, row))
        return {"f_p": float(values["free_energy_p"]), "f_gibbs": float(values["free_energy_gibbs"]),
                "kl": float(values["kl_nats"]), "residual": float(values["residual"])}
    labels = {"f_p": "F(p)", "f_gibbs": "F(gibbs)", "kl": "D(p||gibbs) nats", "residual": "residual"}
    return {key: float(re.search(rf"^{re.escape(label)}\s+(\S+)$", stdout, re.MULTILINE).group(1))
            for key, label in labels.items()}


def _rounding_explains(fmt: str, expected_nats: float, magnitude: float) -> Callable[[str], str | None]:
    """Excuse a false violation only when D(p||gibbs) is right and the
    residual is within rounding of the largest free energy."""
    def check(stdout: str) -> str | None:
        got = _identity_fields(fmt, stdout)
        if abs(got["kl"] - expected_nats) > 1e-9 * max(1.0, magnitude):
            return f"D(p||gibbs) = {got['kl']!r}, expected {expected_nats!r}"
        scale = max(1.0, abs(got["f_p"]), abs(got["f_gibbs"]))
        if got["residual"] > ROUNDING_PER_SCALE * scale:
            return f"residual {got['residual']!r} exceeds rounding ({ROUNDING_PER_SCALE} x {scale!r})"
        return None
    return check


def _check_lines(*patterns: str) -> Callable[[str], str | None]:
    compiled = [re.compile(p, re.MULTILINE) for p in patterns]

    def check(stdout: str) -> str | None:
        for pattern in compiled:
            if not pattern.search(stdout):
                return f"stdout lacks a line matching {pattern.pattern!r}"
        return None
    return check


def _check_csv_passed(stdout: str) -> str | None:
    rows = stdout.splitlines()
    if len(rows) != 2 or not rows[1].endswith(",True"):
        return "csv report does not end with passed True"
    return None


def _check_audit_json(monotone: bool, steps: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload["monotone"] is not monotone or payload["steps_checked"] != steps:
            return f"audit gave monotone={payload['monotone']}, steps={payload['steps_checked']}"
        return None
    return check


def _check_ledger(op: str, min_energy: float) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload["op"] != op or abs(payload["min_energy"] - min_energy) > 1e-12 * max(1.0, abs(min_energy)):
            return f"{op} ledger min_energy {payload['min_energy']!r}, expected {min_energy!r}"
        return None
    return check


def _check_szilard_json(ratio: float) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        exact = math.log(ratio)
        if abs(payload["exact_work"] - exact) > 1e-12:
            return f"exact work {payload['exact_work']!r}, expected {exact!r}"
        finest = payload["rows"][0]
        if abs(finest["work"] - exact) > 1e-6:
            return f"finest work {finest['work']!r} is not near {exact!r}"
        return None
    return check


def _check_sweep_json(instances: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        payload = json.loads(stdout)
        if payload["all_passed"] is not True:
            return "sweep did not pass"
        if payload["second_law"]["instances"] != instances:
            return "sweep ran the wrong number of instances"
        return None
    return check


def _check_block_count(blocks: int) -> Callable[[str], str | None]:
    header = re.compile(r"^(system|dist|channel|protocol) \S+$", re.MULTILINE)

    def check(stdout: str) -> str | None:
        found = len(header.findall(stdout))
        return None if found == blocks else f"fmt printed {found} blocks, expected {blocks}"
    return check


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

# (states, |E|/kT) of the generated `check` systems
_CHECK_SYSTEMS = [(2, 1.0), (2, 1e6), (64, 1.0), (64, 1e3), (64, 1e6), (512, 1e3),
                  (1024, 1.0), (1024, 1e6), (4096, 1.0), (4096, 1e3), (4096, 1e6)]
_AUDIT_SIZES = (4, 16, 64)
_FORMATS = ("table", "json", "csv")


def _fmt_document(rng: np.random.Generator, blocks: int) -> tuple[str, int]:
    """A ~`blocks`-block document assembled from tests/docgen.py documents,
    with every name prefixed so the pieces do not collide."""
    import docgen
    from thermobit import dsl

    parts, total, k = [], 0, 0
    while total < blocks:
        doc = docgen.random_document(rng)
        pre = f"g{k}_"
        spec = dsl.ProtocolSpec(
            systems={pre + n: replace(s, name=pre + n) for n, s in doc.systems.items()},
            dists={pre + n: replace(d, name=pre + n, system=pre + d.system)
                   for n, d in doc.dists.items()},
            channels={pre + n: replace(c, name=pre + n, system=pre + c.system)
                      for n, c in doc.channels.items()},
            protocols={pre + n: replace(p, directives=tuple(
                replace(d, arg=pre + d.arg) if d.op == "apply" else d for d in p.directives),
                name=pre + n) for n, p in doc.protocols.items()},
        )
        parts.append(dsl.format_document(spec))
        total += len(spec.systems) + len(spec.dists) + len(spec.channels) + len(spec.protocols)
        k += 1
    return "\n".join(parts), total


def generate(seed: int, workdir: Path, demo_path: Path) -> list[CliCase]:
    """Write the inputs into `workdir` and return one pass of commands."""
    rng = np.random.default_rng([seed, 0xC11])
    demo = str(demo_path)
    cases = [
        CliCase(("check", demo, "--dist", "sharp"), 0,
                _check_lines(r"^D\(p\|\|gibbs\) bits\s+1\.0$", r"^passed\s+True$")),
        CliCase(("check", demo, "--dist", "tilted", "--format", "json"), 0,
                _check_json_identity(*_kl_to_gibbs(np.array([0.1, 0.9]), np.zeros(2), 1.0))),
        CliCase(("check", demo, "--dist", "fair", "--format", "csv"), 0, _check_csv_passed),
        CliCase(("check", demo, "--dist", "nosuch"), 1),
        CliCase(("audit", demo, "--channel", "mix", "--p0", "sharp"), 0,
                _check_lines(r"^monotone\s+True$")),
        CliCase(("audit", demo, "--channel", "mix", "--p0", "tilted", "--reference", "tilted",
                 "--format", "json"), 2, _check_audit_json(False, 100)),
        CliCase(("audit", demo, "--channel", "drift", "--p0", "tilted", "--steps", "0"), 1),
    ]
    csv_path = str(workdir / "trajectory.csv")
    cases.append(CliCase(("audit", demo, "--channel", "drift", "--p0", "tilted", "--steps", "10000",
                          "--trajectory-csv", csv_path, "--format", "json"), 0,
                         _check_audit_json(True, 10000), output_file=csv_path,
                         output_lines=10002))  # header and steps 0..10000

    for k, (n, ratio) in enumerate(_CHECK_SYSTEMS):
        temperature = float(rng.uniform(0.5, 2.0))
        energies = rng.uniform(-1.0, 1.0, n) * ratio * temperature
        energies[int(rng.integers(n))] = ratio * temperature * float(rng.choice([-1.0, 1.0]))
        probs = rng.dirichlet(np.ones(n))
        sharp = np.zeros(n)
        sharp[int(rng.integers(n))] = 1.0
        path = _write(workdir / f"check{k}.tbit", [
            _system_block("sys", n, energies, temperature),
            _dist_block("p", "sys", probs),
            _dist_block("sharp", "sys", sharp),
        ])
        fmt = _FORMATS[k % 3]
        kl_p = _kl_to_gibbs(probs, energies, temperature)
        check = {"table": _check_lines(r"^passed\s+True$"), "csv": _check_csv_passed,
                 "json": _check_json_identity(*kl_p)}[fmt]
        large = ratio >= 1e3
        cases.append(CliCase(("check", path, "--dist", "p", "--format", fmt), 0, check,
                             rounding=_rounding_explains(fmt, *kl_p) if large else None))
        if n >= 1024:
            kl_sharp = _kl_to_gibbs(sharp, energies, temperature)
            cases.append(CliCase(("check", path, "--dist", "sharp", "--format", "json"), 0,
                                 _check_json_identity(*kl_sharp),
                                 rounding=_rounding_explains("json", *kl_sharp) if large else None))

    for n in _AUDIT_SIZES:
        matrix = rng.dirichlet(np.ones(n), size=n)
        p0 = rng.dirichlet(np.ones(n))
        skew = rng.dirichlet(np.full(n, 0.3))
        path = _write(workdir / f"audit{n}.tbit", [
            _system_block("sys", n, None, 1.0),
            _dist_block("p0", "sys", p0),
            _dist_block("skew", "sys", skew),
            _channel_block("k", "sys", matrix),
        ])
        cases.append(CliCase(("audit", path, "--channel", "k", "--p0", "p0", "--format", "json"), 0,
                             _check_audit_json(True, 100)))
        cases.append(CliCase(("audit", path, "--channel", "k", "--p0", "p0", "--steps", "1000"), 0,
                             _check_lines(r"^monotone\s+True$")))
        cases.append(CliCase(("audit", path, "--channel", "k", "--p0", "skew", "--reference", "skew",
                              "--format", "json"), 2, _check_audit_json(False, 100)))

    source, blocks = _fmt_document(rng, FMT_BLOCKS)
    doc_path = _write(workdir / "document.tbit", [source.rstrip("\n")])
    cases.append(CliCase(("fmt", doc_path), 0, _check_block_count(blocks)))
    bad_path = _write(workdir / "bad.tbit", ["system s\n  states a b\n  temperature -1",
                                             "dist d\n  over nowhere\n  probs 0.5 0.6"])
    cases.append(CliCase(("fmt", bad_path), 1))
    cases.append(CliCase(("check", bad_path, "--dist", "d"), 1))

    cases += [
        CliCase(("szilard",), 0, _check_lines(r"^exact work kT\*log\(2\.0\): ")),
        CliCase(("szilard", "--ratio", "4", "--format", "json"), 0, _check_szilard_json(4.0)),
        CliCase(("szilard", "--ratio", "3", "--levels", "3", "--format", "csv"), 0,
                _check_lines(r"\AN,work,abs_error\n(\d+,[^\n]+\n){3}\Z")),
        CliCase(("szilard", "--ratio", "-1"), 1),
        CliCase(("bitop", "erase"), 0, _check_ledger("erase", LOG2)),
        CliCase(("bitop", "erase", "--units", "si", "--temperature", "300"), 0,
                _check_ledger("erase", 1.380649e-23 * 300.0 * LOG2)),
        CliCase(("bitop", "erase", "--input", "0"), 1),
        CliCase(("bitop", "not"), 0, _check_ledger("not", 0.0)),
        CliCase(("bitop", "randomize"), 0, _check_ledger("randomize", -LOG2)),
        CliCase(("bitop", "switch", "--from", "0", "--to", "1"), 0, _check_ledger("switch(0->1)", 0.0)),
        CliCase(("bitop", "copy-szilard"), 0, _check_ledger("copy_szilard", LOG2)),
        CliCase(("bitop", "copy-landauer"), 0, _check_ledger("copy_landauer", 0.0)),
        CliCase(("sweep", "--instances", "50", "--seed", str(seed)), 0,
                _check_lines(r"^all passed\s+True$")),
        CliCase(("sweep", "--instances", "50", "--seed", str(seed + 1), "--format", "json"), 0,
                _check_sweep_json(50)),
        CliCase(("frobnicate",), 1),
    ]
    return cases
