"""thermobit benchmark: time to a trusted verdict.

    python3 perfbench/run.py --workload {sweep,audit-hard,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; thermobit is imported from
``src/``. One caller drives each workload in a closed loop: the next
verdict is asked for only when the previous one has returned. With
``--trace 0`` the run measures the end-to-end metrics with no tracing;
with ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics and the tracing overhead. Every metric is printed
by name with its unit and sample count; the last stdout line is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEMO = ROOT / "tests" / "data" / "demo.tbit"

# The benchmark's own environment: BLAS threads pinned to nproc, before
# numpy is first imported here or in any child process.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("THERMOBIT_SEED", None)
os.environ["PYTHONPATH"] = str(SRC)
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

SETUP_PROBES = 5
IMPORT_PROBES = 5
CLI_TIMEOUT_S = 120.0
SWEEP_INSTANCES = 1000
SWEEP_STEPS = 100


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "os_cpu_count": os.cpu_count(),
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "cpu_pinning": "cli only: the run and its children share one CPU, BLAS threads 1",
        "cache_control": "none possible in the sandbox",
    }


class PassResult:
    """One closed-loop pass: per-verdict (start, end) times and what went wrong."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.wrong = 0  # verdicts that disagree with the known answer
        self.failed = 0  # verdicts that raised, timed out or printed a traceback
        self.problems: list[str] = []  # wrong verdicts outside the documented defects
        self.known: list[str] = []  # wrong verdicts from documented program defects
        self.start = self.end = time.perf_counter()

    @property
    def verdicts(self) -> int:
        return len(self.spans)

    @property
    def wall(self) -> float:
        return self.end - self.start


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class SweepWorkload:
    """The `thermobit sweep` defaults, one call per sweep per pass."""

    in_process = True  # verdicts run in this process

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed  # the sweeps draw every instance from it

    def run_pass(self) -> PassResult:
        from thermobit import sweeps

        result = PassResult()
        # A sweep is one call, so an instance's span runs from the return of
        # the previous instance's check to the return of its own.
        hooked = ("check_szilard_landauer", "data_processing_check", "second_law_audit")
        originals = {name: getattr(sweeps, name) for name in hooked if hasattr(sweeps, name)}
        spans: list[tuple[float, float]] = []
        # One identity instance can fail three checks; flag each instance once.
        identity_flags: list[bool] = []
        for name, fn in originals.items():
            judge = _identity_judge(identity_flags) if name == "check_szilard_landauer" else None
            setattr(sweeps, name, _spanned(fn, spans, judge))
        result.start = time.perf_counter()
        try:
            outcomes = []
            for call in (
                lambda: sweeps.identity_sweep(SWEEP_INSTANCES, 64, self.seed),
                lambda: sweeps.dpi_sweep(SWEEP_INSTANCES, 8, self.seed),
                lambda: sweeps.monotonicity_sweep(SWEEP_INSTANCES, 32, SWEEP_STEPS, self.seed),
            ):
                begin = time.perf_counter()
                spans[:] = [(begin, 0.0)]  # opens the first instance's span
                outcomes.append(call())
                end = time.perf_counter()
                spans.pop()  # the span opened after the last instance
                if len(spans) != SWEEP_INSTANCES:
                    # the sweep no longer checks one instance at a time:
                    # give each instance an equal share of the call
                    step = (end - begin) / SWEEP_INSTANCES
                    spans[:] = [(begin + i * step, begin + (i + 1) * step)
                                for i in range(SWEEP_INSTANCES)]
                result.spans += spans
                if len(outcomes) == 1:  # the identity sweep
                    identity_checked = list(identity_flags)
        finally:
            for name, fn in originals.items():
                setattr(sweeps, name, fn)
        result.end = time.perf_counter()
        identity, dpi, mono = outcomes
        if len(identity_checked) == SWEEP_INSTANCES:
            wrong_identity = sum(identity_checked)
        else:
            # not checked one instance at a time: the instances that failed
            # are at least as many as the most failures of one kind
            wrong_identity = max(identity.identity_failures, identity.proof_failures,
                                 identity.optimality_failures)
        if (wrong_identity > 0) == identity.all_passed:
            result.problems.append(f"the benchmark flags {wrong_identity} identity instances, "
                                   f"the sweep reports all_passed {identity.all_passed}")
        # a DPI or monotonicity instance fails at most once
        result.wrong = wrong_identity + dpi.failures + mono.failures
        for name, res in (("identity", identity), ("dpi", dpi), ("monotonicity", mono)):
            if not res.all_passed:
                result.problems.append(f"{name} sweep reported failures")
            if res.instances != SWEEP_INSTANCES:
                result.problems.append(f"{name} sweep ran {res.instances} instances")
        if mono.non_detailed_balance <= 0.9 * mono.instances:
            result.problems.append(
                f"only {mono.non_detailed_balance} of {mono.instances} monotonicity "
                "chains lack detailed balance; the check could pass vacuously")
        return result

    def self_test(self, stats: dict) -> list[str]:
        """Compare the traced counts with those the workload implies under
        the seed commit's call structure. A change that batches these calls
        changes them legitimately, so a difference is printed for
        information only; `_check_coverage` is the check that can fail."""
        expected = {
            ("markov.evolve", "steps"): SWEEP_INSTANCES * SWEEP_STEPS,
            ("markov.evolve", "calls"): SWEEP_INSTANCES,
            # DPI: two per instance; monotonicity: one per trajectory point
            ("info.relative_entropy", "calls"): 2 * SWEEP_INSTANCES + (SWEEP_STEPS + 1) * SWEEP_INSTANCES,
            ("markov.stationary_distribution", "calls"): SWEEP_INSTANCES,
            ("markov.second_law_audit", "calls"): SWEEP_INSTANCES,
            ("thermo.check_szilard_landauer", "calls"): SWEEP_INSTANCES,
            ("markov.data_processing_check", "calls"): SWEEP_INSTANCES,
            ("markov.apply_channel", "calls"): 2 * SWEEP_INSTANCES + SWEEP_STEPS * SWEEP_INSTANCES,
        }
        got = {k: stats.get(k[0], {}).get(k[1], 0) for k in expected}
        differences = [f"seed call structure: {layer}.{key} = {got[layer, key]}, "
                       f"{want} at the seed commit (information only)"
                       for (layer, key), want in expected.items() if got[layer, key] != want]
        return differences or [f"seed call structure: all {len(expected)} exact counts match"]


def _spanned(fn, spans: list[tuple[float, float]], judge=None):
    """Close the open span when `fn` returns, and open the next. `judge`,
    if given, sees each call's arguments and result between the two."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        spans[-1] = (spans[-1][0], time.perf_counter())
        if judge is not None:
            judge(args, out)
        spans.append((time.perf_counter(), 0.0))
        return out
    return wrapper


def _identity_judge(flags: list[bool]):
    """Flag an identity instance that fails any of the identity sweep's
    three checks: the identity, the proof step and F(p) >= F(gibbs)."""
    from thermobit.sweeps import IDENTITY_TOLERANCE

    def judge(args, report) -> None:
        landscape = args[0]
        proof = abs(report.free_energy_gibbs + landscape.kT * report.log_partition)
        flags.append(report.residual > IDENTITY_TOLERANCE * report.scale
                     or proof > IDENTITY_TOLERANCE * report.scale
                     or report.available < 0.0)
    return judge


class AuditHardWorkload:
    """Second-Law audits of chains whose verdict is known by construction."""

    in_process = True

    def __init__(self, seed: int, workdir: Path):
        import audit_cases
        from thermobit import Channel, Distribution

        self.cases = audit_cases.generate(seed)
        self.inputs = [
            (Distribution(c.p0), Channel(c.matrix), c.steps,
             None if c.reference is None else Distribution(c.reference))
            for c in self.cases
        ]
        self.expected_pi = [c.exact_pi_float for c in self.cases]
        self.tolerance = audit_cases.PI_TOLERANCE

    def run_pass(self) -> PassResult:
        import numpy as np
        from thermobit import markov

        result = PassResult()
        result.start = time.perf_counter()
        for case, (p0, channel, steps, reference), pi in zip(self.cases, self.inputs, self.expected_pi):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    verdict = markov.second_law_audit(p0, channel, steps, reference=reference)
                    error = None
                except Exception as exc:  # any exception is a wrong verdict
                    verdict, error = None, exc
                result.spans.append((start, time.perf_counter()))
            warned = any(issubclass(w.category, markov.StationaryMultiplicityWarning)
                         for w in caught)
            if error is not None:
                result.failed += 1
                problem = f"raised {type(error).__name__}: {error}"
            elif verdict.monotone != case.expect_monotone:
                problem = f"monotone={verdict.monotone}, expected {case.expect_monotone}"
            elif pi is not None and verdict.stationary is None:
                problem = "no stationary distribution returned"
            elif pi is not None and float(np.max(np.abs(verdict.stationary.probs - pi))) > self.tolerance:
                problem = f"pi off by {float(np.max(np.abs(verdict.stationary.probs - pi))):.3e}"
            elif warned != (case.closed_classes > 1):
                problem = f"multiplicity warning {warned} with {case.closed_classes} closed classes"
            else:
                continue
            result.wrong += 1
            message = f"{case.family} (n={len(case.p0)}): {problem}"
            if case.known_defect:
                result.known.append(f"stationary solver at its iteration cap: {message}")
            else:
                result.problems.append(message)
        result.end = time.perf_counter()
        return result


class CliWorkload:
    """`python -m thermobit` subprocesses; each command runs twice per pass."""

    in_process = False

    def __init__(self, seed: int, workdir: Path):
        import cli_cases

        if not DEMO.is_file():
            raise SystemExit(f"error: {DEMO} is missing")
        self.workdir = workdir
        self.cases = cli_cases.generate(seed, workdir, DEMO)

    def _judge(self, case, code: int, stdout: str, stderr: str) -> tuple[str | None, str | None]:
        """The problem with one invocation's exit code and stdout, and the
        known defect that explains a false violation instead of a problem."""
        if "Traceback" in stderr:
            return "traceback on stderr", None
        if code != case.expect_exit:
            problem = f"exit {code}, expected {case.expect_exit}"
            if case.rounding is None or code != 2 or case.expect_exit != 0:
                return problem, None
            try:
                unexplained = case.rounding(stdout)
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                unexplained = f"unreadable output: {exc!r}"
            if unexplained is not None:
                return f"{problem}; {unexplained}", None
            return None, f"identity tolerance scaled by |F(p)| only: {problem}"
        if case.check is not None:
            try:
                return case.check(stdout), None
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"unreadable output: {exc!r}", None
        return None, None

    @staticmethod
    def _tally(case, result: PassResult, problems: list[str], known: str | None,
               failed: bool) -> None:
        """Record one invocation: however many problems it has, it is one
        wrong verdict."""
        result.failed += failed
        if not problems and known is None:
            return
        result.wrong += 1
        command = f"thermobit {' '.join(case.argv)}"
        result.problems += [f"{command}: {problem}" for problem in problems]
        if known is not None:
            result.known.append(f"{known}: {command}")

    def run_pass(self, between=None) -> PassResult:
        """`between`, if given, is called before each invocation, untimed."""
        result = PassResult()
        first: dict[int, tuple[bytes, bytes | None]] = {}  # outputs of the first run
        result.start = time.perf_counter()
        for rep in range(2):
            for k, case in enumerate(self.cases):
                if case.output_file:
                    Path(case.output_file).unlink(missing_ok=True)
                if between is not None:
                    between()
                start = time.perf_counter()
                try:
                    proc = subprocess.run(
                        [sys.executable, "-m", "thermobit", *case.argv],
                        capture_output=True, cwd=self.workdir, timeout=CLI_TIMEOUT_S)
                    code, out, err = proc.returncode, proc.stdout, proc.stderr
                except subprocess.TimeoutExpired:
                    code, out, err = None, b"", b""
                result.spans.append((start, time.perf_counter()))
                if code is None:
                    self._tally(case, result, ["timed out"], None, failed=True)
                    continue
                stderr = err.decode("utf-8", "replace")
                problem, known = self._judge(case, code, out.decode("utf-8", "replace"), stderr)
                problems = [] if problem is None else [problem]
                written = None
                if case.output_file and Path(case.output_file).is_file():
                    written = Path(case.output_file).read_bytes()
                if case.output_file and (written or b"").count(b"\n") != case.output_lines:
                    problems.append(f"{case.output_file} lacks {case.output_lines} lines")
                if rep == 0:
                    first[k] = (out, written)
                elif k in first and first[k] != (out, written):
                    problems.append("output differs between two runs")
                self._tally(case, result, problems, known, failed="Traceback" in stderr)
        result.end = time.perf_counter()
        return result

    def run_in_process(self) -> PassResult:
        """The same argument lists through cli.main, for the traced run."""
        from thermobit import cli

        result = PassResult()
        result.start = time.perf_counter()
        for _ in range(2):
            for case in self.cases:
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(case.argv))
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # a traceback in a subprocess
                        code = None
                        print(f"Traceback: {exc!r}", file=err)
                result.spans.append((start, time.perf_counter()))
                problem, known = self._judge(case, code, out.getvalue(), err.getvalue())
                self._tally(case, result, [] if problem is None else [problem], known,
                            failed="Traceback" in err.getvalue())
        result.end = time.perf_counter()
        return result


WORKLOADS = {"sweep": SweepWorkload, "audit-hard": AuditHardWorkload, "cli": CliWorkload}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _run_passes(run_pass, seconds: float) -> list[PassResult]:
    """Whole passes, as many as fit in `seconds` (at least one)."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def _probe(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__)), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of fresh interpreters."""
    import calibration

    probes = [_probe(["--setup-probe", "--workload", name, "--seed", str(seed)])
              for _ in range(SETUP_PROBES)]
    return ([p["seconds"] * calibration.NOMINAL_S / p["kernel_s"] for p in probes],
            [p["seconds"] for p in probes])


def _import_seconds() -> list[float]:
    return [_probe(["--import-probe"])["seconds"] for _ in range(IMPORT_PROBES)]


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _timings(latencies: list[float], setup: list[float]) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "verdicts_per_s": _metric(len(latencies) / sum(latencies), "1/s", len(latencies)),
        "verdict_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "verdict_p90_ms": _metric(deciles[8] * 1e3, "ms", len(latencies)),
    }


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU the kernel runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_VARS:
        os.environ[var] = "1"


def measure_end_to_end(name: str, workload, seed: int, seconds: float):
    """Scaled metrics for the JSON result, and the raw timings for the log."""
    from calibration import SpeedTrack

    track = SpeedTrack()
    if workload.in_process:
        run_pass = workload.run_pass
    else:
        # The verdicts run in child processes: the kernel runs between
        # them, on the same CPU, instead of on a timer inside them.
        _pin_to_one_cpu()
        run_pass = functools.partial(workload.run_pass, between=track.probe)
    with track.running(timer=workload.in_process):
        passes = _run_passes(run_pass, seconds)
    rss = _peak_rss_mb(children=not workload.in_process)  # before any probe runs
    spans = [span for p in passes for span in p.spans]
    attempted = sum(p.verdicts for p in passes)
    wrong = sum(p.wrong for p in passes)
    setup, setup_raw = _setup_seconds(name, seed)
    metrics = _timings([track.scaled(a, b) for a, b in spans], setup)
    raw = _timings([b - a for a, b in spans], setup_raw)
    raw["calibration_kernel_ms"] = _metric(track.median_s() * 1e3, "ms", len(track.starts))
    metrics["right_verdict_share"] = _metric((attempted - wrong) / attempted, "ratio", attempted)
    metrics["peak_rss_mb"] = _metric(rss, "MB", 1)
    return passes, metrics, raw


# per-layer metrics: (layer, counter) pairs reported as "<layer>.<counter>"
LAYER_METRICS = [
    ("markov.stationary_distribution", ("calls", "self_s", "errors", "multiplicity_warnings")),
    ("markov.evolve", ("calls", "self_s", "steps")),
    ("markov.apply_channel", ("calls", "self_s")),
    ("info.Distribution", ("calls", "self_s")),
    ("info.relative_entropy", ("calls", "self_s")),
    ("markov.second_law_audit", ("self_s",)),
    ("markov.check_detailed_balance", ("self_s",)),
    ("markov.data_processing_check", ("self_s",)),
    ("sweeps.identity_sweep", ("self_s",)),
    ("sweeps.dpi_sweep", ("self_s",)),
    ("sweeps.monotonicity_sweep", ("self_s",)),
    ("sweeps.random_channel", ("self_s",)),
    ("thermo.check_szilard_landauer", ("calls", "self_s")),
    ("thermo.log_partition_function", ("self_s",)),
    ("thermo.gibbs_distribution", ("self_s",)),
    ("dsl.parse", ("calls", "self_s", "lines")),
    ("dsl.format_document", ("self_s",)),
    ("engine.isothermal_work", ("self_s",)),
    ("engine.convergence_table", ("self_s",)),
    ("bitops.ops", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]


# The workloads whose traced run also checks that the wrappers see every
# call: `sweeps` and `cli` bind functions by name. (An audit-hard pass is
# too long to run a third time within a run's time limit.)
COVERAGE_CHECKED = ("sweep", "cli")


def _check_coverage(run) -> PassResult:
    """One more pass under fresh wrappers, with every execution of the
    wrapped functions' code counted independently of them. A wrapper that
    saw fewer calls than its function ran misses a call site, and makes
    the per-layer figures wrong."""
    from tracing import Tracer, counting_calls

    tracer = Tracer()
    try:
        with counting_calls(tracer.code_layers) as ran:
            result = run()
    finally:
        tracer.close()
    missed = [f"tracing missed calls: {layer} wrapper saw {tracer.stats[layer]['calls']} "
              f"calls, the function ran {count} times"
              for layer, count in sorted(ran.items()) if tracer.stats[layer]["calls"] != count]
    result.problems += missed
    if not missed:
        print(f"  self-test: the wrappers saw every call of all {len(ran)} traced layers "
              f"({sum(ran.values())} calls)")
    return result


def measure_per_layer(name: str, workload):
    from calibration import SpeedTrack
    from tracing import Tracer

    run = workload.run_in_process if name == "cli" else workload.run_pass
    track = SpeedTrack()  # kernel runs only around the passes, not inside
    with track.running(timer=False):
        untraced = run()
        track.probe()
        tracer = Tracer()
        try:
            traced = run()
        finally:
            tracer.close()
    passes = [untraced, traced]
    untraced_s = track.scaled(untraced.start, untraced.end)
    if name in COVERAGE_CHECKED:
        passes.append(_check_coverage(run))
    if name == "sweep":
        for line in workload.self_test(tracer.stats):
            print(f"  {line}")
    metrics = {}
    for layer, keys in LAYER_METRICS:
        stats = tracer.stats.get(layer, {})
        for key in keys:
            unit = "s" if key.endswith("_s") else "count"
            metrics[f"{layer}.{key}"] = _metric(stats.get(key, 0), unit, 1)
    imports = _import_seconds()
    metrics["cli.import_s"] = _metric(statistics.median(imports), "s", len(imports))
    # scaled like the end-to-end times, so a change of machine speed
    # between the two passes does not read as overhead
    metrics["trace.untraced_wall_s"] = _metric(untraced_s, "s", 1)
    metrics["trace.overhead_s"] = _metric(track.scaled(traced.start, traced.end) - untraced_s, "s", 1)
    return passes, metrics


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def _import_thermobit():
    import thermobit

    where = Path(thermobit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported thermobit from {where}, not from {SRC}")
    return thermobit


def _setup_probe(name: str, seed: int) -> None:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        start = time.perf_counter()
        _import_thermobit()
        WORKLOADS[name](seed, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import calibration  # after the timed span: it imports numpy

    kernel_s = statistics.median(calibration.kernel_seconds() for _ in range(5))
    print(json.dumps({"seconds": elapsed, "kernel_s": kernel_s}))


def _import_probe() -> None:
    start = time.perf_counter()
    _import_thermobit()
    print(json.dumps({"seconds": time.perf_counter() - start}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "thermobit" / "__init__.py").is_file():
        print(f"error: no thermobit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.import_probe:
        _import_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        _import_thermobit()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            passes, metrics = measure_per_layer(args.workload, workload)
            raw = {}
        else:
            passes, metrics, raw = measure_end_to_end(args.workload, workload, args.seed,
                                                      args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for res in passes for p in res.problems]
    print(f"environment {json.dumps(_environment(), sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  verdicts {sum(p.verdicts for p in passes)}")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    for name, m in raw.items():
        print(f"  raw {name:<42} {m['value']:>14.10g} {m['unit']:<6} (n={m['samples']})")
    for known in sorted({k for res in passes for k in res.known}):
        print(f"  known defect: {known}")
    for problem in problems:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.verdicts for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
