#!/usr/bin/env python3
"""Benchmark for shiish: three in-process workloads, end to end and per module.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload verify_n5 --seed 1 --seconds 36 --trace 0

Everything runs in this one process on one thread, with ``--workers 1``.
The seed reaches only the word generator of ``classify_words``; the program
receives only the generated inputs.

Workloads
    verify_n5       ``shiish verify --n-max 5 --workers 1 --json FILE`` through
                    ``shiish.cli.main``: the repo's own gate.  Mostly region
                    enumeration, then the word sweeps; the only workload that
                    runs the verify harness, the subset sweep and
                    ``parks_all_tail``.  Fixed inputs.
    regions_n6_k3   ``shiish regions --n 6 --k 3 --format json --out FILE``:
                    16,807 regions, mostly enumeration, then record export.
                    k = 3 lies strictly between Shi (k = 2) and Ish (k = n).
                    Fixed inputs.
    classify_words  one closed-loop client (one request outstanding) feeding a
                    seeded stream of words through the calls behind
                    ``shiish check WORD --k all --trace``.  n is uniform in
                    6..12 (n > 9 takes the comma-list parse path); half the
                    words are uniform over [n]^n, half are uniform parking
                    functions.  No enumeration at all.

One operation ("op") is one request a user makes: one ``verify`` or
``regions`` run, or one word checked.  A pass is one op for the two CLI
workloads and a batch of ``BATCH`` words for ``classify_words``.

Checks: exit code 0, ``overall: pass`` and the SHA-256 of the report for
``verify_n5``; exit code 0, the SHA-256 and 16,807 records for
``regions_n6_k3``; for every word, a per-word oracle (burn success, k-partial
and witness agree for every k, ``parking`` matches ``partial["2"]`` and an
independent parking test, ``ish`` matches ``partial[str(n)]``).  A failed
check or an exception counts the op as failed.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
A speed probe sampled during every pass (see SpeedProbe) tells which passes
ran while the host gave full speed; the times are medians (and the p99 of
op latency) over those passes, scaled to a fixed reference speed, and the
line before the result lists every pass with its unscaled time and probe
reading.
With ``--trace 1`` untraced and traced passes over the same inputs alternate;
every public function of every ``shiish`` module is wrapped in each module
that binds it, and the traced passes give per-module call counts and self
times.  Spans are kept in memory and written to
``.perfbench-out/trace-<workload>-seed<seed>.jsonl.gz`` when the run ends.

The last line of stdout is the JSON result; the line before it records the
environment.  Exit code 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import functools
import gzip
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

MODULES = ("arrangement", "verify", "parking", "graphs", "core", "cli")

# SHA-256 of the CLI outputs, captured before any optimisation: README
# promises byte-identical files for identical invocations.
VERIFY_N5_SHA256 = "39b2a8b156500d219501e5db4cbeeb28ff12a0f45c9b8bf144ff3f3606ac6f36"
REGIONS_N6_K3_SHA256 = "8fa9a63f9201e97064faffd9e4fa38b1b86d05ebcb5ba7e46240ff288dfa4319"

# Words per classify_words pass: about half a second of work.
BATCH = 500
# Fresh-process set-up measurements per run; the median is reported.
SETUP_REPEATS = 15
# Spans kept in memory per run; calls beyond it are still counted.
SPAN_LIMIT = 250_000
# Seconds between speed-probe samples; how much slower than the fastest
# pass of a run a pass's probe may read and still count as run at full
# speed; and the probe's time at the reference speed that timings are
# scaled to, about its full-speed time on a 2-vCPU Xeon VM (2.0 GHz) with
# CPython 3.11.
PROBE_INTERVAL_S = 0.05
FULL_SPEED_TOLERANCE = 0.15
PROBE_REF_S = 0.00045


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
}

# Functions whose calls and self time are reported by name.
TRACKED = (
    "arrangement.enumerate_regions",
    "arrangement.region_record",
    "cli.main",
    "verify.cross_validate",
    "verify.count_sweep",
    "verify.reproduce_tables",
    "graphs.is_g_parking_bruteforce",
    "graphs.build_rooted",
    "graphs.dfs_burn",
    "parking.parks_all_tail",
    "parking.classification_report",
    "parking.is_k_partial",
    "parking.sigma_characterization",
    "parking.sort_tail",
    "parking.centre",
    "core.Word.parse",
    "core.compose",
)

# Argument tuples that identify repeated work: calls / distinct is the
# share of calls that rebuild something already built.
DISTINCT_KEYS = {
    "arrangement.enumerate_regions": lambda args: (args[0].n, args[0].k),
    "graphs.build_rooted": lambda args: (args[0], args[1]),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module in MODULES:
        units[f"{module}.calls"] = "count"
        units[f"{module}.self_s"] = "s"
    for name in TRACKED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in DISTINCT_KEYS:
        units[f"{name}.distinct"] = "count"
        units[f"{name}.calls_per_distinct"] = "ratio"
    units["arrangement.regions_per_s"] = "1/s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# --------------------------------------------------------------------------
# Workloads.  run(batch, clock) is the timed part of a pass and returns
# (seconds, output) per op; check() returns how many of its ops failed and
# runs outside the timing.


def _run_cli(argv: list[str]):
    from shiish import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


class CliWorkload:
    """One ``shiish`` command-line run per pass, through ``shiish.cli.main``."""

    def run(self, argv, clock):
        start = clock()
        try:
            result = _run_cli(argv)
        except Exception as exc:
            result = exc
        return [(clock() - start, result)]


class VerifyWorkload(CliWorkload):
    """``shiish verify --n-max N`` with its JSON report checked byte for byte."""

    def __init__(self, n_max: int = 5, sha256: str = VERIFY_N5_SHA256):
        self.n_max = n_max
        self.sha256 = sha256

    def prepare(self, seed: int, workdir: Path) -> None:
        self.path = workdir / "verify.json"

    def batch(self, index: int):
        return [
            "verify", "--n-max", str(self.n_max), "--workers", "1",
            "--json", str(self.path),
        ]

    def check(self, argv, results) -> int:
        (_, result), = results
        if isinstance(result, Exception):
            _report(result)
            return 1
        code, stdout = result
        if code != 0 or not self.path.is_file():
            return 1
        data = self.path.read_bytes()
        self.path.unlink()
        ok = (
            stdout.splitlines()[-1:] == ["overall: pass"]
            and hashlib.sha256(data).hexdigest() == self.sha256
            and json.loads(data)["pass"] is True
        )
        return 0 if ok else 1


class RegionsWorkload(CliWorkload):
    """``shiish regions --n N --k K --format json`` checked byte for byte."""

    def __init__(self, n: int = 6, k: int = 3, sha256: str = REGIONS_N6_K3_SHA256):
        self.n = n
        self.k = k
        self.sha256 = sha256

    def prepare(self, seed: int, workdir: Path) -> None:
        self.path = workdir / "regions.json"

    def batch(self, index: int):
        return [
            "regions", "--n", str(self.n), "--k", str(self.k),
            "--format", "json", "--out", str(self.path),
        ]

    def check(self, argv, results) -> int:
        (_, result), = results
        if isinstance(result, Exception):
            _report(result)
            return 1
        code, _ = result
        if code != 0 or not self.path.is_file():
            return 1
        data = self.path.read_bytes()
        self.path.unlink()
        ok = (
            hashlib.sha256(data).hexdigest() == self.sha256
            and len(json.loads(data)) == (self.n + 1) ** (self.n - 1)
        )
        return 0 if ok else 1


def random_parking_function(rng: random.Random, n: int) -> list[int]:
    """Uniform classical parking function, by Pollak's circle argument.

    Preferences are uniform on a circle of n + 1 spots and cars take the
    first free spot clockwise, so exactly one spot stays empty.  Rotating
    that spot to position n + 1 gives a parking function, and each rotation
    class of n + 1 preference vectors holds exactly one.
    """
    prefs = [rng.randrange(n + 1) for _ in range(n)]
    taken = [False] * (n + 1)
    for p in prefs:
        while taken[p]:
            p = (p + 1) % (n + 1)
        taken[p] = True
    empty = taken.index(False)
    return [(p - empty - 1) % (n + 1) + 1 for p in prefs]


def random_word(rng: random.Random, n_lo: int, n_hi: int, parking: bool):
    """(values, text) for a word with n uniform in [n_lo, n_hi].

    The word is a uniform parking function when `parking` is set and uniform
    over [n]^n otherwise; the text is a digit string for n <= 9 and a comma
    list above.
    """
    n = rng.randint(n_lo, n_hi)
    if parking:
        values = random_parking_function(rng, n)
    else:
        values = [rng.randint(1, n) for _ in range(n)]
    sep = "" if n <= 9 else ","
    return values, sep.join(map(str, values))


def _is_parking(values: list[int]) -> bool:
    return all(v <= i for i, v in enumerate(sorted(values), start=1))


def word_agrees(values: list[int], text: str) -> bool:
    """Per-word oracle over the JSON that ``check WORD --k all --trace`` prints."""
    report = json.loads(text)
    n = len(values)
    ks = [str(k) for k in range(2, n + 1)]
    partial, sigma, burn = report["partial"], report["sigma"], report["burn"]
    return (
        report["word"] == values
        and sorted(partial) == sorted(sigma) == sorted(burn) == sorted(ks)
        and all(
            partial[k] == burn[k]["success"] == (sigma[k] is not None) for k in ks
        )
        and report["parking"] == partial["2"] == _is_parking(values)
        and report["ish"] == partial[str(n)]
    )


class ClassifyWorkload:
    """Seeded words through Word.parse, classification_report and dfs_burn."""

    def __init__(self, n_lo: int = 6, n_hi: int = 12, batch_size: int = BATCH):
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.batch_size = batch_size

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def batch(self, index: int):
        """Batch `index` of the stream; half its words are parking functions."""
        rng = random.Random(f"{self.seed}:{index}")
        return [
            random_word(rng, self.n_lo, self.n_hi, parking=i % 2 == 0)
            for i in range(self.batch_size)
        ]

    def run(self, words, clock):
        from shiish import core, graphs, parking

        results = []
        for _, text in words:
            start = clock()
            try:
                word = core.Word.parse(text)
                ks = list(range(2, word.n + 1))
                report = parking.classification_report(word, ks)
                report["burn"] = {
                    str(k): graphs.dfs_burn(graphs.build_rooted(word.n, k), word).to_json()
                    for k in ks
                }
                result = json.dumps(report, indent=2, sort_keys=True) + "\n"
            except Exception as exc:
                result = exc
            results.append((clock() - start, result))
        return results

    def check(self, words, results) -> int:
        failed = 0
        for (values, _), (_, result) in zip(words, results):
            if isinstance(result, Exception):
                _report(result)
                failed += 1
            elif not word_agrees(values, result):
                failed += 1
        return failed


WORKLOADS = {
    "verify_n5": VerifyWorkload,
    "regions_n6_k3": RegionsWorkload,
    "classify_words": ClassifyWorkload,
}


# --------------------------------------------------------------------------
# Tracing from outside the program.


class Tracer:
    """Wraps every public shiish function and records one span per call.

    A span is (id, name, start, end, parent id, run id).  Self time is the
    span's duration minus the durations of its direct children; calls nest
    on one thread, so children never overlap.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._next_id = 0
        self._stack: list[list] = []  # [span id, seconds spent in children]
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT_KEYS}
        self.regions = 0
        self.span_count = 0

    def _wrap(self, name: str, fn):
        key_of = DISTINCT_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.span_count += 1
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((span_id, name, start, end, parent, self.run_id))
            if key_of is not None:
                self.keys[name].add(key_of(args))
            if name == "arrangement.enumerate_regions":
                self.regions += len(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap each public function in every shiish module that binds it."""
        import shiish

        modules = [importlib.import_module(f"shiish.{m}") for m in MODULES]
        namespaces = [shiish, *modules]
        try:
            for short, module in zip(MODULES, modules):
                for attr, fn in list(vars(module).items()):
                    if (
                        attr.startswith("_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)
                    ):
                        continue
                    wrapped = self._wrap(f"{short}.{attr}", fn)
                    for ns in namespaces:
                        if vars(ns).get(attr) is fn:
                            self._patch(ns, attr, wrapped)
            word = modules[MODULES.index("core")].Word
            parse = vars(word)["parse"].__func__
            self._patch(word, "parse", classmethod(self._wrap("core.Word.parse", parse)))
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-module and per-function figures of the calls since reset()."""
        metrics: dict[str, float] = {}
        for module in MODULES:
            names = [n for n in self.calls if n.split(".", 1)[0] == module]
            metrics[f"{module}.calls"] = sum(self.calls[n] for n in names)
            metrics[f"{module}.self_s"] = sum(self.self_s[n] for n in names)
        for name in TRACKED:
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
            metrics[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name, keys in self.keys.items():
            metrics[f"{name}.distinct"] = len(keys)
            calls = self.calls.get(name, 0)
            metrics[f"{name}.calls_per_distinct"] = calls / len(keys) if keys else 0.0
        enum_s = self.total_s.get("arrangement.enumerate_regions", 0.0)
        metrics["arrangement.regions_per_s"] = self.regions / enum_s if enum_s else 0.0
        metrics["trace.spans"] = self.span_count
        return metrics

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------------
# Measurement.


def probe_work() -> int:
    """Fixed pure-Python work, independent of shiish: ints, tuples, a dict, a sort."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(1500):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        total += i * i % 11
    return total + sum(v for _, v in sorted(table.items()))


class SpeedProbe:
    """Samples how fast the host runs Python, and dodges a contended CPU.

    On a shared host each virtual CPU can switch, every few seconds and
    independently of the others, between full speed and a contended state;
    on a 2-vCPU Xeon VM Python ran 1.2x to 1.8x slower there, depending on
    the code.  While
    a pass runs, a SIGALRM handler times probe_work() every
    PROBE_INTERVAL_S; when it reads slower than the run's best by more than
    FULL_SPEED_TOLERANCE, the process moves to the next allowed CPU and
    stays there if that one reads faster.  Pass and op times are taken on
    clock(), which stops while the probe runs, and scale(t, reading) puts a
    time measured at a given probe reading on the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.best = math.inf
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]

    def _time(self) -> float:
        start = time.perf_counter()
        probe_work()
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        self.best = min(self.best, elapsed)
        return elapsed

    def sample(self) -> None:
        self.samples.append(self._time())

    def choose_cpu(self) -> None:
        """Start on the allowed CPU that reads fastest now."""
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = min(self._time() for _ in range(5))
        os.sched_setaffinity(0, self.cpus)
        self.cpu = min(speeds, key=speeds.get)

    def _on_alarm(self, *_signal_args) -> None:
        reading = self._time()
        if len(self.cpus) > 1 and reading > self.best * (1 + FULL_SPEED_TOLERANCE):
            here = self.cpu
            self.cpu = self.cpus[(self.cpus.index(here) + 1) % len(self.cpus)]
            os.sched_setaffinity(0, {self.cpu})
            moved = self._time()
            if moved < reading:
                reading = moved
            else:
                self.cpu = here
                os.sched_setaffinity(0, {here})
        self.samples.append(reading)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def reading(self, since: int) -> float:
        """Median probe time of the samples from index `since` on."""
        return statistics.median(self.samples[since:])

    @staticmethod
    def scale(seconds: float, reading: float) -> float:
        return seconds * PROBE_REF_S / reading

    @contextlib.contextmanager
    def running(self):
        """Pin to the chosen CPU and sample on a timer until exit."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        os.sched_setaffinity(0, {self.cpu})
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.sched_setaffinity(0, self.cpus)


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def full_speed(readings: list[float]) -> list[int]:
    """Indices of the samples whose probe reading is within tolerance of the best."""
    limit = min(readings) * (1 + FULL_SPEED_TOLERANCE)
    return [i for i, reading in enumerate(readings) if reading <= limit]


SETUP_SCRIPT = inspect.getsource(probe_work) + """
import time
readings = []
for _ in range(3):
    t = time.perf_counter()
    probe_work()
    readings.append(time.perf_counter() - t)
t = time.perf_counter()
import shiish, shiish.cli
shiish.cli.build_parser()
print(time.perf_counter() - t, sorted(readings)[1])
"""


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median seconds to import shiish and shiish.cli and build the parser.

    Each sample is a fresh interpreter, timed from inside right after it
    reads the speed probe itself; one unmeasured run first fills the
    bytecode cache, as an installed package would have it.  Children that
    read full speed count, scaled to the reference speed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    readings = []
    for i in range(repeats + 1):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            seconds, reading = map(float, child.stdout.split())
            samples.append(seconds)
            readings.append(reading)
    return statistics.median(
        SpeedProbe.scale(samples[i], readings[i]) for i in full_speed(readings)
    )


def environment(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "shiish").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run passes for about `seconds`; return the result object and a summary.

    A pass starts only if it is expected to end within `seconds`, judged by
    the longest pass so far; at least one pass (one of each kind when
    tracing) always runs.  Untraced runs sample a SpeedProbe during every
    pass; the end-to-end times come from the passes it read at full speed,
    scaled to the reference speed.
    When tracing, untraced and traced passes alternate over the inputs of
    pass 0, and every pass counts.
    """
    workload.prepare(seed, workdir)
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    if not trace:
        probe.choose_cpu()
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled_walls: list[float] = []
    cpus: list[float] = []
    latencies: list[array.array] = []  # per pass, scaled
    readings: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        batch = workload.batch(0 if trace else index)
        mark = len(probe.samples)
        if trace:
            clock, timing = time.perf_counter, contextlib.nullcontext()
        else:
            probe.sample()
            clock, timing = probe.clock, probe.running()
        with timing, tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                tracer.reset()
                tracer.run_id = f"pass{index}"
            cpu0 = _cpu_s() - probe.spent
            wall0 = clock()
            results = workload.run(batch, clock)
            wall = clock() - wall0
            cpu = _cpu_s() - probe.spent - cpu0
        walls[traced].append(wall)
        if traced:
            layers.append(tracer.layer_metrics())
        elif not trace:
            reading = probe.reading(since=mark)
            readings.append(reading)
            scaled_walls.append(probe.scale(wall, reading))
            cpus.append(probe.scale(cpu, reading))
            latencies.append(
                array.array("d", (probe.scale(lat, reading) for lat, _ in results))
            )
        attempted += len(results)
        failed += workload.check(batch, results)
        index += 1
        elapsed = time.perf_counter() - started
        if index >= (2 if trace else 1) and elapsed + max(walls[False] + walls[True]) > seconds:
            break

    if trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers) for name in layers[0]
        }
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        units = per_layer_units()
        chosen, ops = [], []
    else:
        chosen = full_speed(readings)
        ops = [lat for i in chosen for lat in latencies[i]]
        metrics = {
            "setup_s": measure_setup(),
            "wall_s": statistics.median(scaled_walls[i] for i in chosen),
            "cpu_s": statistics.median(cpus[i] for i in chosen),
            "peak_rss_mb": _peak_rss_mb(),
            "ops_per_s": len(ops) / sum(scaled_walls[i] for i in chosen),
            "op_ms_p50": 1000 * statistics.median(ops),
            "op_ms_p99": 1000 * _percentile(ops, 99),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    summary = {
        "pass_s": {"untraced": walls[False], "traced": walls[True]},
        "probe_s": readings,
        "full_speed_passes": chosen,
        "op_samples": len(ops),
        "error_rate": failed / attempted,
    }
    return {"result": result, "summary": summary, "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiish" / "__init__.py").is_file():
        print(f"error: no shiish sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The region budget is part of the input; an inherited override would change it.
    os.environ.pop("SHIISH_MAX_N", None)

    env = environment(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        run = measure(
            WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
            Path(workdir),
        )
    if run["tracer"] is not None:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        run["tracer"].write(path, {"workload": args.workload, "env": env, **run["summary"]})
    print(json.dumps({"workload": args.workload, "env": env, **run["summary"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
