"""Run the randomized cross-check suites at a chosen scale.

Same machinery as `orbitcert selftest`, exposed with per-suite knobs so a
longer soak (more instances, deeper verification levels) can run overnight:

    python3 scripts/cross_check.py --seed 23 --count 500 --level 4
"""
from __future__ import annotations

import argparse
import sys

from orbitcert.selftest import (
    _mandated_conj_pairs,
    generate_instances,
    suite_coe_witnesses,
    suite_cohomology,
    suite_conj_vs_bruteforce,
    suite_conj_witnesses,
    suite_counterexample,
    suite_eig,
    suite_invariant_vs_decision,
    suite_snf,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--count", type=int, default=200,
                        help="instances for the generator-driven suites")
    parser.add_argument("--level", type=int, default=4,
                        help="witness verification level")
    parser.add_argument("--snf-count", type=int, default=1000)
    parser.add_argument("--bruteforce-samples", type=int, default=4000)
    parser.add_argument("--cohomology-count", type=int, default=12)
    args = parser.parse_args(argv)

    instances = generate_instances(args.seed, args.count)
    results = [
        suite_invariant_vs_decision(args.seed, args.count, instances=instances),
        suite_coe_witnesses(instances, level=args.level),
        suite_conj_witnesses(instances, level=args.level, extra=_mandated_conj_pairs()),
        suite_snf(args.seed, count=args.snf_count),
        suite_conj_vs_bruteforce(args.seed, samples=args.bruteforce_samples),
        suite_eig(),
        suite_counterexample(),
        suite_cohomology(args.seed, count=args.cohomology_count),
    ]
    for r in results:
        print(r.summary())
    ok = all(r.ok for r in results)
    print("all suites passed" if ok else "FAILURES present")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
