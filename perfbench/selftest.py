"""Self-test of the benchmark harness; run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that the same seed builds the same inputs and
another seed different ones, and that one traced pass, run twice after
fresh set-ups, gives identical per-layer counters and no failed op.  It
also checks that gas ``classify`` runs 252 subsumption tests plus one
consistency check in each mode, and that the 70 suite-refute ops give the
verdicts of one ``verify_suite(Bounds(3, 3))`` call.  Exits 1 if a check
fails.  Takes about four minutes.
"""

from __future__ import annotations

import signal
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GAS_TESTS = 4 * 3 + 16 * 15  # ordered pairs of distinct atoms, per sort
SEED = 7


def traced_pass(name: str, seed: int):
    """A fresh set-up, then one traced pass: (workload, result, counters,
    counters by op)."""
    tracer = spans.Tracer()
    workload, _ = run.setup(name, seed, tracer)
    tracer.reset()
    tracer.keep_spans = False
    result = run.run_pass(workload, time.perf_counter(), tracer)
    tracer.uninstall()
    return workload, result, Counter(tracer.counts), tracer.op_counts


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    suite_verdicts: dict[str, object] = {}
    for name in workloads.BUILDERS:
        fingerprints = []
        for seed in (SEED, SEED, SEED + 1):
            workload, _ = run.setup(name, seed)
            fingerprints.append(workload.fingerprint)
        expect(fingerprints[0] == fingerprints[1], f"{name}: seed {SEED} builds the same inputs twice")
        expect(fingerprints[0] != fingerprints[2], f"{name}: seed {SEED + 1} builds other inputs")

        first = traced_pass(name, SEED)
        second = traced_pass(name, SEED)
        workload, result, counts, op_counts = first
        differ = sorted(k for k in counts.keys() | second[2].keys() if counts[k] != second[2][k])
        expect(not differ, f"{name}: identical counters in two traced passes"
               + (f" (differ: {', '.join(differ)})" if differ else f" ({len(counts)} counters)"))
        expect(not result.failures and not second[1].failures,
               f"{name}: {len(workload.ops)} ops, no failed op"
               + "".join(f"\n    {op_id}: {why}" for op_id, why in sorted(result.failures.items())[:20]))
        if name == "km-classify":
            for mode in ("at-most-one", "exactly-one"):
                c = op_counts[f"classify/gas/{mode}"]
                tests, checks = c["tableau.classify_tests"], c["tableau.is_consistent_calls"]
                expect(tests == GAS_TESTS and checks == 1,
                       f"gas classify ({mode}): {tests} subsumption tests, {checks} consistency check")
        if name == "suite-refute":
            suite_verdicts = result.verdicts

    from kedl.axioms import verify_suite
    from kedl.oracle import Bounds

    reference = {f"{c.item_id}/{c.sort}": (c.tableau_ok, c.oracle_ok)
                 for c in verify_suite(Bounds(workloads.BOUND, workloads.BOUND))}
    expect(len(reference) == 70 and suite_verdicts == reference,
           f"suite-refute: {len(suite_verdicts)} op verdicts equal verify_suite's {len(reference)}")

    print(f"{len(problems)} failed check(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
