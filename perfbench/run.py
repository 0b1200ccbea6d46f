"""kedl benchmark: one seeded, single-process, closed-loop run of a workload.

Run from the repository root:

    python3 perfbench/run.py --workload km-classify --seed 1 --seconds 55 --trace 0

One thread issues each op only after the previous verdict has returned, as
a user waiting on ``kedl`` would.  A run imports kedl from ``src/``, builds
the workload from the seed (set-up, repeated after every sweep and reported
as the median), then executes the ops for ``--seconds``: sweeps over the
ops, with the few heaviest ones, which the workload marks, run once each
between sweeps.  An op's latency is the mean of its executions.
Every verdict is checked against the workload's independent reference; a
wrong verdict, an error, a recursion overflow or an op that outruns the
per-op limit counts as a failed op and the run goes on.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same ops and prints the per-layer
metrics (per pass), the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

OP_LIMIT_S = 20.0  # per-op wall limit, enforced with SIGALRM
RUN_LIMIT_S = 150.0  # ops not started by then count as failed
WARM_UP_S = 2.0  # untimed ops before the timed ones
TAIL_BEYOND = 10  # samples above the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tableau.self_s": "s",
    "tableau.calls": "count",
    "tableau.is_satisfiable_calls": "count",
    "tableau.is_consistent_calls": "count",
    "tableau.sat_calls": "count",
    "tableau.unsat_calls": "count",
    "tableau.subsumes_calls": "count",
    "tableau.classify_calls": "count",
    "tableau.classify_tests": "count",
    "tableau.clash_trace_len": "count",
    "tableau.witness_elements": "count",
    "tableau.merged_individuals": "count",
    "tableau.limit_errors": "count",
    "syntax.s": "s",
    "syntax.spans": "count",
    "syntax.concept_to_str_calls": "count",
    "syntax.concept_to_str_s": "s",
    "syntax.desugar_calls": "count",
    "semantics.recheck_s": "s",
    "semantics.recheck_calls": "count",
    "semantics.oracle_check_s": "s",
    "semantics.oracle_check_calls": "count",
    "oracle.self_s": "s",
    "oracle.calls": "count",
    "oracle.models": "count",
    "oracle.no_model": "count",
    "oracle.validity_calls": "count",
    "axioms.checks": "count",
    "axioms.passed": "count",
    "parser.s": "s",
    "parser.bytes": "bytes",
    "km.s": "s",
    "km.elements": "count",
    "trace.op_wall_s": "s",
    "trace.untraced_op_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.glue_s": "s",
}

# per-layer counters fixed by the seed: identical in every traced pass
DETERMINISTIC = [name for name, unit in PER_LAYER.items()
                 if unit != "s" and not name.startswith(("parser.", "km."))]


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op ran past {OP_LIMIT_S:g} s")


def load_kedl():
    """Import kedl from ``src/`` afresh, dropping any earlier import."""
    if not (SRC / "kedl" / "__init__.py").is_file():
        raise SystemExit(f"error: no kedl package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "kedl" or m.startswith("kedl.")]:
        del sys.modules[name]
    kedl = importlib.import_module("kedl")
    if Path(kedl.__file__).resolve().parent != SRC / "kedl":
        raise SystemExit(f"error: imported kedl from {kedl.__file__}, not {SRC}")
    return kedl


def setup(name: str, seed: int, tracer=None):
    """Import, input generation, km compile, KB parse and Tableau
    construction: everything before the first timed op."""
    start = time.perf_counter()
    load_kedl()
    if tracer is not None:
        spans.instrument(tracer)
        tracer.install()
    workload = workloads.build(name, seed)
    return workload, time.perf_counter() - start


def time_setup(name: str, seed: int) -> float:
    """One more set-up, timed and thrown away; the kedl modules the running
    workload uses are put back afterwards.  Collections of earlier garbage
    run before it, and of its own after it, outside the timing."""
    kept = {m: mod for m, mod in sys.modules.items() if m == "kedl" or m.startswith("kedl.")}
    gc.collect()
    _, seconds = setup(name, seed)
    for m in [m for m in sys.modules if m == "kedl" or m.startswith("kedl.")]:
        del sys.modules[m]
    sys.modules.update(kept)
    # typing's caches hold the classes of every import, and through their
    # methods the whole module graph: about 0.5 MB a set-up, which would
    # make peak_rss_mb grow with the number of sweeps
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    return seconds


@dataclass
class PassResult:
    """Executions of a workload's ops: one pass over every op, or a whole
    scheduled run."""
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # op wall time of every execution
    latency: dict[str, list[float]] = field(default_factory=dict)  # op id -> seconds per execution
    verdicts: dict[str, object] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)  # op id -> reason
    wrong: dict[str, str] = field(default_factory=dict)  # subset of failures
    kinds: Counter = field(default_factory=Counter)


def run_op(op) -> tuple[float, object, Optional[str]]:
    """One timed execution: (seconds, result, failure or None)."""
    from kedl.syntax import KedlError
    from kedl.tableau import TableauLimitError

    raw, failure = None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        start = time.perf_counter()
        try:
            raw = op.call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout as err:
        failure = f"timeout: {err}"
    except TableauLimitError as err:
        failure = f"limit: {err}"
    except KedlError as err:
        failure = f"kedl-error: {err}"
    except RecursionError as err:
        failure = f"recursion: {err}"
    except Exception as err:  # the loop must go on; keep the traceback
        failure = f"crash-{type(err).__name__}: {err}"
        traceback.print_exc(file=sys.stderr)
    return elapsed, raw, failure


def execute(op, out: PassResult, run_start: float, tracer=None) -> None:
    """Execute one op once and record it in ``out``."""
    out.attempted += 1
    if time.perf_counter() - run_start > RUN_LIMIT_S:
        failure = "run-limit: not started before the run limit"
    else:
        if tracer is not None:
            tracer.begin_op(op.op_id)
        elapsed, raw, failure = run_op(op)
        out.wall_s += elapsed
        if failure is None:
            verdict = op.verdict(raw)
            if out.verdicts.setdefault(op.op_id, verdict) != verdict:
                failure = "nondeterministic: verdict changed between executions"
    if failure is not None:
        out.failures[op.op_id] = failure
        out.kinds[failure.split(":")[0]] += 1
        out.failed += 1
        return
    out.latency.setdefault(op.op_id, []).append(elapsed)


def settle(workload, out: PassResult) -> PassResult:
    """Check the verdicts against the workload's reference; every execution
    of an op with a wrong verdict is a failed one."""
    verdicts = {op_id: v for op_id, v in out.verdicts.items() if op_id not in out.failures}
    out.wrong = workload.check(verdicts)
    for op_id, reason in out.wrong.items():
        executions = len(out.latency.pop(op_id))
        out.failures[op_id] = reason
        out.kinds["wrong-verdict"] += executions
        out.failed += executions
    return out


def run_pass(workload, run_start: float, tracer=None) -> PassResult:
    """One execution of every op, in the workload's order."""
    out = PassResult()
    for op in workload.ops:
        execute(op, out, run_start, tracer)
    return settle(workload, out)


def run_scheduled(workload, seconds: float, run_start: float,
                  between: Callable[[], None]) -> tuple[PassResult, int]:
    """Execute every op for ``seconds``: sweeps over the ops the workload
    repeats, each followed by ``between()``, with each op it marks ``once``
    run a single time between two sweeps.  Those are spread evenly over the
    sweeps' time: the next one runs once the sweeps have used its share of
    what the once-ops, at their mean duration so far, leave of ``seconds``.
    A sweep starts only if it should end in time; there is always at least
    one.  Returns the executions and the number of sweeps."""
    once = [op for op in workload.ops if op.once]
    repeated = [op for op in workload.ops if not op.once]
    out = PassResult()
    start = time.perf_counter()
    once_s = sweep_s = last_sweep = 0.0
    done = sweeps = 0
    while True:
        while done < len(once):
            if done and repeated:
                left = seconds - once_s / done * len(once)  # for the sweeps
                if sweep_s < left * done / len(once):
                    break
            t = time.perf_counter()
            execute(once[done], out, run_start)
            once_s += time.perf_counter() - t
            done += 1
        elapsed = time.perf_counter() - start
        if done == len(once) and (not repeated or sweeps and elapsed + last_sweep > seconds):
            break
        t = time.perf_counter()
        for op in repeated:
            execute(op, out, run_start)
        between()
        last_sweep = time.perf_counter() - t
        sweep_s += last_sweep
        sweeps += 1
    return settle(workload, out), sweeps


def warm_up(workload) -> None:
    """Run the repeated ops untimed and uncounted for WARM_UP_S, so the
    interpreter has specialised the hot code, as in a process that has been
    answering for a while.  Failures are counted when the same ops run
    again, timed."""
    deadline = time.perf_counter() + WARM_UP_S
    for op in [op for op in workload.ops if not op.once] or workload.ops:
        if time.perf_counter() > deadline:
            break
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            op.call()
        except Exception:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def op_latencies(runs: list[PassResult]) -> list[float]:
    """Each op's latency, ascending: the mean of its executions.  An op is
    a deterministic computation, so the spread of its executions is
    interference from the rest of the machine, which alternates between
    slower and faster phases of several seconds to tens of seconds.
    Executions spread over the whole run, and their mean, weigh the phases
    by the time the run spent in each; a median or a minimum would pick one
    phase, which flips from run to run."""
    by_op: dict[str, list[float]] = {}
    for r in runs:
        for op_id, seconds in r.latency.items():
            by_op.setdefault(op_id, []).extend(seconds)
    return sorted(statistics.fmean(v) for v in by_op.values())


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile that
    still has TAIL_BEYOND samples above it (the maximum if there are fewer)."""
    n = len(samples)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return samples[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(passes: list[PassResult], setup_s: float) -> dict[str, float]:
    samples = op_latencies(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    tail_value, _, _ = tail(samples)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": 1000.0 * statistics.median(samples),
        "op_tail_ms": 1000.0 * tail_value,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


@dataclass
class TracedPass:
    result: PassResult
    seconds: Counter
    counts: Counter
    top_s: float
    op_counts: dict[str, Counter]


def per_layer(workload, traced: list[TracedPass], untraced: list[PassResult],
              setup_counts: Counter, setup_seconds: Counter) -> dict[str, float]:
    """Per-layer figures for one execution of every op: times averaged over
    the traced passes, counters from the first."""
    k = len(traced)

    def mean_s(key: str) -> float:
        return sum(t.seconds[key] for t in traced) / k

    first = traced[0]
    suite_ops = [op.op_id for op in workload.ops if op.engine == "suite"]
    traced_wall = sum(t.result.wall_s for t in traced) / k
    untraced_wall = sum(p.wall_s for p in untraced) / len(untraced)

    def count(name: str) -> float:
        return float(first.counts[name])

    m = {name: count(name) for name in PER_LAYER if PER_LAYER[name] == "count"}
    m.update({
        "tableau.self_s": mean_s("tableau"),
        "tableau.limit_errors": float(first.result.kinds["limit"]),
        "syntax.s": mean_s("syntax") + mean_s("syntax.concept_to_str") + mean_s("syntax.desugar"),
        "syntax.concept_to_str_s": mean_s("syntax.concept_to_str"),
        "semantics.recheck_s": mean_s("semantics.recheck"),
        "semantics.recheck_calls": count("semantics.recheck.spans"),
        "semantics.oracle_check_s": mean_s("semantics.oracle_check"),
        "semantics.oracle_check_calls": count("semantics.oracle_check.spans"),
        "oracle.self_s": mean_s("oracle"),
        "axioms.checks": float(len(suite_ops)),
        "axioms.passed": float(sum(1 for op_id in suite_ops if op_id in first.result.verdicts
                                   and op_id not in first.result.failures)),
        "parser.s": float(setup_seconds["parser"]),
        "parser.bytes": float(setup_counts["parser.bytes"]),
        "km.s": float(setup_seconds["km"]),
        "km.elements": float(setup_counts["km.elements"]),
        "trace.op_wall_s": traced_wall,
        "trace.untraced_op_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.glue_s": traced_wall - sum(t.top_s for t in traced) / k,
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    run_start = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)

    if args.trace:
        tracer = spans.Tracer()
        workload, _ = setup(args.workload, args.seed, tracer)
        setup_counts, setup_seconds = Counter(tracer.counts), Counter(tracer.seconds)
        tracer.uninstall()
        tracer.reset()
    else:
        tracer = None
        gc.collect()
        workload, seconds = setup(args.workload, args.seed)
        setups = [seconds]
    print(f"workload {workload.name} seed {args.seed}: {len(workload.ops)} ops, "
          f"inputs {workload.fingerprint[:16]}")
    passes: list[PassResult] = []
    traced: list[TracedPass] = []

    def traced_pass() -> None:
        tracer.install()
        result = run_pass(workload, run_start, tracer)
        tracer.uninstall()
        traced.append(TracedPass(result, Counter(tracer.seconds), Counter(tracer.counts),
                                 tracer.top_s, dict(tracer.op_counts)))
        tracer.reset()
        tracer.keep_spans = False  # the trace file holds set-up and the first traced pass

    warm_up(workload)
    # the inputs live for the whole run; keep them out of the collector's
    # full sweeps, which would otherwise land on whichever op triggers one
    gc.freeze()
    measure_start = time.perf_counter()
    if tracer is None:
        # one more set-up after every sweep, so that set-ups too are spread
        # over the run
        result, sweeps = run_scheduled(workload, args.seconds, run_start,
                                       lambda: setups.append(time_setup(args.workload, args.seed)))
        passes.append(result)
    else:
        # pairs of one untraced and one traced pass over every op; the next
        # pair starts only if it should end within --seconds
        while True:
            round_start = time.perf_counter()
            if len(traced) % 2:
                traced_pass()  # alternate which side runs first, so warm-up is shared
            passes.append(run_pass(workload, run_start))
            if len(traced) < len(passes):
                traced_pass()
            now = time.perf_counter()
            if now - measure_start + (now - round_start) > args.seconds:
                break

    all_passes = passes + [t.result for t in traced]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    kinds = sum((p.kinds for p in all_passes), Counter())
    failures = {op_id: reason for p in all_passes for op_id, reason in p.failures.items()}
    print((f"passes {len(passes)} untraced + {len(traced)} traced" if traced
           else f"{sweeps} sweeps, {sum(op.once for op in workload.ops)} ops once")
          + f"; attempted {attempted}, failed {failed} (failed_ratio {failed / attempted:.6f})"
          + "".join(f", {k} {v}" for k, v in sorted(kinds.items()) if v))
    for op_id in sorted(failures)[:50]:
        print(f"FAILED {op_id}: {failures[op_id]}")

    if tracer is None:
        metrics = end_to_end(passes, statistics.median(setups))
        samples = op_latencies(passes)
        _, pct, beyond = tail(samples)
        print(f"op latency: {len(samples)} ops, each the mean of its executions; "
              f"op_tail_ms is p{pct:.2f} with {beyond} samples beyond it")
        print("setup_s runs: " + " ".join(f"{s:.4f}" for s in setups))
        units = END_TO_END
    else:
        metrics = per_layer(workload, traced, passes, setup_counts, setup_seconds)
        units = PER_LAYER
        varying = [name for name in DETERMINISTIC
                   if len({t.counts[name] for t in traced}) > 1]
        if varying:
            print("WARNING counters differ between traced passes: " + ", ".join(varying))
        for op_id, counts in sorted(traced[0].op_counts.items()):
            if op_id.startswith("classify/"):
                print(f"{op_id}: {counts['tableau.classify_tests']} subsumption tests, "
                      f"{counts['tableau.is_consistent_calls']} consistency check")
        layers = sum(metrics[k] for k in ("tableau.self_s", "syntax.s", "semantics.recheck_s",
                                          "semantics.oracle_check_s", "oracle.self_s"))
        print(f"per execution of every op: layer self times {layers:.4f} s + glue {metrics['trace.glue_s']:.4f} s"
              f" = traced op wall {metrics['trace.op_wall_s']:.4f} s;"
              f" untraced op wall {metrics['trace.untraced_op_wall_s']:.4f} s"
              f" + overhead {metrics['trace.overhead_s']:.4f} s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    wrong = sum(len(p.wrong) for p in all_passes)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
