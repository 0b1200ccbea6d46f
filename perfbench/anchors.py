"""Single-shot timings of the reference figures the roadmap quotes, re-measured
through the same public API the benchmark drives; run from the repository
root:

    python3 perfbench/anchors.py

* gas ``classify`` in each mode (median of three), with its tableau test count;
* ``verify_suite(Bounds(3, 3))``, the ``kedl verify --bounds 3,3`` run;
* 200 random depth-3 NNF concepts through ``find_model`` at (3,3), both modes,
  for each of ten fixed seeds, with a 60 s limit per call: the median over
  the seeds of the set's time (a call stopped at the limit counts its 60 s)
  and every call past the limit, by seed;
* ``classify`` of "gen-km n" ontologies from this benchmark's generator
  (``workloads.gen_km_text``), n = 3..6, seeds 1..3, each mode.

Prints one JSON object.  These are not part of the timed benchmark: they
are one run each, and the (3,3) concept sets hold inputs on which the
bounded search takes minutes, which is why the differential workload runs
at (2,2).
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

CALL_LIMIT_S = 60
FIND_MODEL_SEEDS = tuple(range(10))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    run.load_kedl()
    from kedl import oracle, tableau
    from kedl.axioms import verify_suite
    from kedl.syntax import Sort, concept_to_str

    out: dict[str, object] = {}
    _, _, gas = workloads.compile_km(
        (run.SRC / "kedl" / "data" / "gas.km").read_text(encoding="utf-8"))
    for mode in workloads._modes():
        times = [timed(lambda: tableau.classify(gas, mode))[0] for _ in range(3)]
        out[f"gas_classify_{mode}_s"] = statistics.median(times)
    out["gas_classify_tests"] = 4 * 3 + 16 * 15 + 1  # subsumption tests + consistency check

    seconds, checks = timed(lambda: verify_suite(oracle.Bounds(3, 3)))
    out["verify_3_3_s"] = seconds
    out["verify_3_3_passed"] = f"{sum(c.ok for c in checks)}/{len(checks)}"

    sig = workloads.diff_signature(individuals=False)
    per_seed: dict[int, dict[str, object]] = {}
    for seed in FIND_MODEL_SEEDS:
        rng = random.Random(seed)
        total, models, slow = 0.0, 0, []
        for k in range(200):
            sort = Sort.OBJECT if k % 2 == 0 else Sort.ATTRIBUTE
            expr = workloads.gen_nnf(rng, sort, 3)
            for mode in workloads._modes():
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
                try:
                    verdict = oracle.find_model(expr, oracle.Bounds(3, 3, mode), sig=sig, sort=sort)
                    models += isinstance(verdict, oracle.Model)
                except run.OpTimeout:
                    slow.append(f"{concept_to_str(expr)} ({mode})")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                total += time.perf_counter() - start
        per_seed[seed] = {"s": round(total, 3), "models": f"{models}/400", "past_limit": slow}
    out["find_model_200_concepts_3_3_median_s"] = statistics.median(r["s"] for r in per_seed.values())
    out["find_model_200_concepts_past_limit"] = sum(len(r["past_limit"]) for r in per_seed.values())
    out["find_model_200_concepts_by_seed"] = per_seed

    for n in range(3, 7):
        kbs = [workloads.compile_km(workloads.gen_km_text(random.Random(seed), n))[2] for seed in (1, 2, 3)]
        for mode in workloads._modes():
            out[f"gen_km_{n}_classify_{mode}_s"] = [
                round(timed(lambda: tableau.classify(kb, mode))[0], 3) for kb in kbs]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
