"""Run one larmour benchmark workload and print its metrics.

    python3 perfbench/run.py --workload boundary-fresh --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  The package is imported from the
checkout's ``src/`` (never from an installed copy).  One client calls the
program in a closed loop: the next op starts when the previous one has
returned.  Inputs come from ``random.Random(seed)`` and are built before
the window of ops that uses them is timed; every answer is checked
outside the timed region.

The timed phase is cut into windows of whole rounds with the same mix of
inputs.  The host this was built on runs the same code up to 1.6 times
slower for spells of seconds to minutes, so every time is scaled to one
host speed (see reference.py): a fixed pure-Python routine is timed at
each window boundary, and the window's op times are multiplied by
REFERENCE_MS over its time.  Throughput and median latency are medians
over windows.  The raw, unscaled figures are in the run information.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
op stream twice, first with spans installed around each layer and then
without, and reports the per-layer metrics; the spans go to
``perfbench/traces/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6  # before and again after the timed phase
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
VALUE_BUCKETS = ((1000, ">=1000"), (300, "300-999"), (100, "100-299"), (4, "4-99"), (1, "1-3"),
                 (0.5, "1/2"), (0, "0"))

sys.path.insert(0, str(SRC))

import tracer as T  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import workloads as W  # noqa: E402
from reference import REFERENCE_MS, reference_ms  # noqa: E402


class SetupError(Exception):
    pass


def fresh_setup(workload):
    """Import larmour afresh and build the workload's algebras."""
    for name in [n for n in sys.modules if n == "larmour" or n.startswith("larmour.")]:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        W._lm()
    except ImportError as e:
        raise SetupError(f"cannot import larmour from {SRC}: {e}")
    state = workload.setup()
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["larmour"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"larmour was imported from {origin}, not from {SRC}")
    return elapsed, state


class Stream:
    """The seeded op stream, generated a window at a time."""

    def __init__(self, workload, state, seed):
        self.workload, self.state = workload, state
        self.rng = random.Random(seed)
        self.ops = []
        self.rounds = 0

    def ensure(self, n):
        while len(self.ops) < n:
            self.ops.extend(self.workload.round(self.rng, self.state, self.rounds))
            self.rounds += 1


class Phase:
    """Answers and latencies of one timed pass over the stream.

    ``windows`` holds (first op, raw op time, scale) per window; scale is
    REFERENCE_MS over the reference time around the window.
    """

    def __init__(self):
        self.answers, self.latencies, self.windows = [], [], []
        self.busy = 0.0

    def scaled(self, size):
        """Per window: scaled throughput and median latency; all scaled latencies."""
        rates, medians, latencies = [], [], []
        for lo, busy, scale in self.windows:
            window = [x * scale for x in self.latencies[lo : lo + size]]
            rates.append(size / (busy * scale))
            medians.append(statistics.median(window))
            latencies.extend(window)
        return rates, medians, latencies

    def scaled_busy(self):
        return sum(busy * scale for _, busy, scale in self.windows)


def run_phase(workload, stream, seconds, tracer=None, after_window=None) -> Phase:
    """Closed loop over whole windows until `seconds` of op time."""
    fns = W.dispatch()
    size = workload.round_size * workload.window_rounds
    phase = Phase()
    i = 0
    while phase.busy < seconds:
        stream.ensure(i + size)
        before = reference_ms()
        window_busy = 0.0
        for op in stream.ops[i : i + size]:
            fn = fns[op.fn]
            if tracer is not None:
                tracer.op_id = len(phase.answers)
            start = time.perf_counter()
            try:
                answer = fn(*op.args)
            except Exception as e:  # a failed op is counted, not fatal
                answer = e
            elapsed = time.perf_counter() - start
            phase.answers.append(answer)
            phase.latencies.append(elapsed)
            window_busy += elapsed
        phase.windows.append((i, window_busy, 2 * REFERENCE_MS / (before + reference_ms())))
        phase.busy += window_busy
        if after_window is not None:
            after_window(i, i + size, phase)
        i += size
    return phase


def tail(latencies, preferred):
    """Highest percentile (from the preferred one down) with >= 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in (preferred,) + tuple(x for x in TAIL_LADDER if x < preferred):
        rank = max(math.ceil(q / 100 * n), 1)
        if n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


class Ledger:
    """Checks, canonical answers and input properties, window by window.

    With ``drop`` set, the ops and answers of a window are released once
    they are checked, so memory does not grow with the number of ops run
    and peak RSS stays a property of the program, not of the run length.
    """

    def __init__(self, workload, stream, drop):
        self.workload, self.stream, self.drop = workload, stream, drop
        self.bad = {}
        self.canonical = {}
        self.dims, self.values, self.primes = Counter(), Counter(), Counter()
        self.seen = set()
        self.entries = self.dense = self.repeated = 0

    def absorb(self, lo, hi, phase):
        ops, answers = self.stream.ops[lo:hi], phase.answers[lo:hi]
        for k, a in enumerate(answers):
            if isinstance(a, Exception):
                self.bad[lo + k] = f"raised {type(a).__name__}: {a}"
        try:
            found = self.workload.check(ops, answers, self.stream.state)
        except Exception as e:  # an answer the checker cannot even read
            found = {k: f"checker raised {type(e).__name__}: {e}" for k in range(len(ops))}
        self.bad.update({lo + k: r for k, r in found.items()})
        for k in range(lo, min(hi, W.DIGEST_OPS)):
            self.canonical[k] = self.workload.canonical(ops[k - lo], answers[k - lo])
        for op in ops:
            self._properties(op)
        if self.drop:
            self.stream.ops[lo:hi] = [None] * (hi - lo)
            phase.answers[lo:hi] = [None] * (hi - lo)

    def _properties(self, op):
        for form in self.workload.entries_of(op):
            self.dims[len(form)] += 1
            for u in form:
                self.entries += 1
                v = abs(W.half_units(u)) / 2
                self.values[next(b for lo, b in VALUE_BUCKETS if v >= lo)] += 1
                self.primes[str(u.algebra.descriptor()["p"])] += 1
                self.dense += W.is_dense(u)
                key = hash(W.entry_key(u))
                self.repeated += key in self.seen
                self.seen.add(key)

    def digest(self, answers=None):
        """Hash of the canonical answers of the first DIGEST_OPS ops.

        Ops the run did not reach are answered here, untimed.
        """
        self.stream.ensure(W.DIGEST_OPS)
        fns = W.dispatch()
        lines = []
        for i in range(W.DIGEST_OPS):
            op = self.stream.ops[i]
            if answers is not None and i < len(answers):
                lines.append(self.workload.canonical(op, answers[i]))
            elif answers is None and i in self.canonical:
                lines.append(self.canonical[i])
            else:
                lines.append(self.workload.canonical(op, fns[op.fn](*op.args)))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def properties(self, ops_run):
        share = (lambda k: round(k / self.entries, 4)) if self.entries else (lambda k: 0.0)
        return {
            "ops": ops_run,
            "entries": self.entries,
            "dims": dict(sorted(self.dims.items())),
            "abs_value_hist": dict(self.values),
            "p_mix": dict(self.primes),
            "dense_entry_share": share(self.dense),
            "repeated_entry_share": share(self.repeated),
        }


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "larmour_file": str(Path(sys.modules["larmour"].__file__).resolve().relative_to(ROOT.resolve())),
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def expected_digest(workload, seed):
    table = json.loads((BENCH / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = W.make(args.workload, str(BENCH / "work" / f"{args.workload}-{os.getpid()}"))
    try:
        return measure(workload, args)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        workload.cleanup()


def timed_setups(workload, samples):
    """Append (raw, scaled) set-up times to samples; return the last state."""
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_MS / reference_ms()
        elapsed, state = fresh_setup(workload)
        samples.append((elapsed, elapsed * scale))
    return state


def measure(workload, args) -> int:
    setups = []
    state = timed_setups(workload, setups)
    stream = Stream(workload, state, args.seed)
    ledger = Ledger(workload, stream, drop=not args.trace)
    notes = []

    if args.trace:
        tracer = T.Tracer()
        tracer.install()
        try:
            workload.setup()  # traced once, so set-up layers get spans (op id -1)
            tracer.start_ops()
            traced = run_phase(workload, stream, args.seconds, tracer)
        finally:
            tracer.remove()
        phase = run_phase(workload, stream, args.seconds)
        size = workload.round_size * workload.window_rounds
        for lo in range(0, max(len(phase.answers), len(traced.answers)), size):
            ledger.absorb(lo, lo + size, phase if lo < len(phase.answers) else traced)
    else:
        phase = run_phase(workload, stream, args.seconds, after_window=ledger.absorb)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    found = ledger.digest()
    expected = expected_digest(workload.name, args.seed)
    if expected is not None and expected != found:
        notes.append(f"answer digest {found} != expected {expected} for seed {args.seed}")
    attempted = len(phase.answers)
    bad = ledger.bad

    if args.trace:
        for i in range(min(len(traced.answers), len(phase.answers))):
            op = stream.ops[i]
            if workload.canonical(op, traced.answers[i]) != workload.canonical(op, phase.answers[i]):
                bad[i] = "traced answer differs from untraced answer"
        if ledger.digest(traced.answers) != found:
            notes.append("traced and untraced answer digests differ")
        missing = tracer.missing(workload.name)
        if missing:
            notes.append("wrapped functions recorded no span: " + ", ".join(missing))
        attempted = max(attempted, len(traced.answers))
        envelope_bytes = sum(len(a[1]) for a in traced.answers if isinstance(a, tuple))
        overhead = (len(traced.answers) / traced.scaled_busy()) / (len(phase.answers) / phase.scaled_busy())
        values = tracer.metrics(len(traced.answers), envelope_bytes, overhead)
        units = T.METRICS
        trace_dir = BENCH / "traces"
        trace_dir.mkdir(exist_ok=True)
        span_file = trace_dir / f"{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write_spans(span_file)
        extra = {"span_file": str(span_file.relative_to(ROOT)), "traced_ops": len(traced.answers),
                 "untraced_ops": len(phase.answers)}
    else:
        timed_setups(workload, setups)  # after every use of the modules the ops hold
        rates, medians, latencies = phase.scaled(workload.round_size * workload.window_rounds)
        q, tail_value, beyond = tail(latencies, workload.tail_percentile)
        values = {
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(medians),
            "latency_tail_ms": 1e3 * tail_value,
            "ok_ratio": (attempted - len(bad)) / attempted,
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        extra = {
            "tail_percentile": q,
            "tail_samples_beyond": beyond,
            "windows": len(phase.windows),
            "window_scales": [round(scale, 4) for _, _, scale in phase.windows],
            "raw_ops_per_s": attempted / phase.busy,
            "raw_latency_p50_ms": 1e3 * statistics.median(phase.latencies),
            "raw_setup_s": statistics.median(raw for raw, _ in setups),
        }

    failed = len(bad)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, single thread",
        "failed_ratio": f"{failed}/{attempted} = {failed / attempted:.6f}",
        "failures": [f"op {i}: {r}" for i, r in sorted(bad.items())[:10]],
        "notes": notes,
        "digest": found,
        "digest_expected": expected,
        "inputs": ledger.properties(len(phase.answers)),
        **extra,
        **environment(),
    }
    print(json.dumps(info, sort_keys=True))
    for name, value in values.items():
        print(f"{workload.name}  {name:40s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"{workload.name}  {'failed_ratio':40s} {failed / attempted:14.6f} ratio  (base {attempted} ops)")
        print(f"{workload.name}  latency_tail_ms is p{q:g} with {beyond} of {len(latencies)} samples beyond it")
    result = {
        "correct": not bad and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
