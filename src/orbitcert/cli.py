"""Command-line front end: decisions, invariants, certificates, selftests.

Exit codes are a stable contract: 0 for a positive decision or a passing
verification, 1 for a negative decision or a failing verification, 2 for
unusable input (parse errors, malformed certificates, oversized requests).
"""
from __future__ import annotations

import sys
from functools import cache

from .certificates import (
    CertificateError,
    canonical_json,
    certificate,
    counterexample_certificate,
    dumps,
    loads,
    verify_certificate,
    witness_block,
)
from .decide import (
    coe_decide,
    conj_decide,
    eig_group,
    free_group_counterexample_check,
    k_invariant,
)
from .supernatural import parse_sn, parse_sn_list, sn_str


def _write(cert: dict, out: str | None) -> None:
    text = dumps(cert)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"certificate written to {out}")
    else:
        sys.stdout.write(text)


def _key_str(key) -> str:
    return "{" + ",".join(str(p) for p in sorted(key)) + "}"


def cmd_coe(args) -> int:
    ms = parse_sn_list(args.ms)
    ns = parse_sn_list(args.ns)
    d = coe_decide(ms, ns)
    if not d.equivalent:
        print(f"not orbit equivalent: {d.obstruction}")
        _write(certificate(ms, ns, d), args.out)
        return 1
    block = witness_block("coe", ms, ns, args.level, d) if args.witness else None
    pairs = ", ".join(f"{p.m}*M{p.left_index} = {p.n}*N{p.right_index}" for p in d.pairs)
    print(f"orbit equivalent; sigma = {list(d.sigma)}; {pairs}")
    _write(certificate(ms, ns, d, block), args.out)
    return 0


def cmd_conj(args) -> int:
    ms = parse_sn_list(args.ms)
    ns = parse_sn_list(args.ns)
    d = conj_decide(ms, ns)
    if not d.conjugate:
        print(f"not conjugate: {d.obstruction}")
        _write(certificate(ms, ns, d), args.out)
        return 1
    block = witness_block("conj", ms, ns, args.level, d) if args.witness else None
    blocks = "; ".join(
        f"L={sn_str(b.base)} left{list(b.left_indices)} right{list(b.right_indices)}"
        for b in d.blocks
    )
    print(f"conjugate; {blocks}")
    _write(certificate(ms, ns, d, block), args.out)
    return 0


def cmd_kinv(args) -> int:
    ms = parse_sn_list(args.ms)
    inv = k_invariant(ms)
    print(f"rank: {inv.rank}")
    print(f"total: {sn_str(inv.total)}")
    for key, mult in inv.subset_classes:
        print(f"class {_key_str(key)}: multiplicity {mult}")
    payload = {
        "rank": inv.rank,
        "total": sn_str(inv.total),
        "classes": [[sorted(key), mult] for key, mult in inv.subset_classes],
    }
    print(canonical_json(payload))
    return 0


def cmd_eig(args) -> int:
    m = parse_sn(args.m)
    a = sn_str(eig_group(m, args.k))
    print(f"eigenvalue group of the power-{args.k} action: T({a})")
    print(canonical_json({"M": sn_str(m), "k": args.k, "t_group": a}))
    return 0


def cmd_counterexample(args) -> int:
    report = free_group_counterexample_check(args.p, args.q, args.n)
    for stmt, ok in report.certified:
        print(f"[{'pass' if ok else 'FAIL'}] certified: {stmt}")
    for stmt in report.cited:
        print(f"[cited, not machine-checked] {stmt}")
    _write(counterexample_certificate(report), args.out)
    return 0 if all(ok for _, ok in report.certified) else 1


def cmd_witness(args) -> int:
    ms = parse_sn_list(args.ms)
    ns = parse_sn_list(args.ns)
    coe = args.relation == "coe"
    d = coe_decide(ms, ns) if coe else conj_decide(ms, ns)
    if not d:
        print(f"not {'orbit equivalent' if coe else 'conjugate'}: {d.obstruction}")
        return 1
    block = witness_block(args.relation, ms, ns, args.level, d)
    cert = certificate(ms, ns, d, block, kind=f"{args.relation}-witness")
    print(f"witness block {canonical_json(block)}; verify rebuilds the witness from the inputs")
    _write(cert, args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CertificateError(f"cannot read {args.certificate}: {e}") from None
    cert = loads(text)
    ok, lines = verify_certificate(cert, args.level)
    for line in lines:
        print(line)
    print("verification passed" if ok else "verification FAILED")
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(args.seed, args.count)
    for r in results:
        print(r.summary())
    ok = all(r.ok for r in results)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def nonnegative(text: str) -> int:
    import argparse

    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive(text: str) -> int:
    import argparse

    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# generate_instances keeps every instance and the witness suites verify
# every positive, so a selftest's time and memory grow with --count:
# 10,000 instances take about 4 s, and the parent peaks near 65 MB and
# each forked worker near 80 MB, on a 2-core x86 guest
SELFTEST_COUNT_LIMIT = 10_000


def corpus_size(text: str) -> int:
    import argparse

    value = positive(text)
    if value > SELFTEST_COUNT_LIMIT:
        raise argparse.ArgumentTypeError(f"must be <= {SELFTEST_COUNT_LIMIT}, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused, since parsing leaves it unchanged;
    # argparse is imported here, not with the module, so that importing the
    # library through orbitcert.cli does not load it
    import argparse

    parser = argparse.ArgumentParser(
        prog="orbitcert",
        description="decide and certify orbit equivalence and conjugacy of "
        "products of odometers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("ms", help="comma-separated supernatural numbers, e.g. '5*2^inf,3^inf'")
        p.add_argument("ns", help="comma-separated supernatural numbers")
        p.add_argument("--witness", action="store_true",
                       help="embed a witness block; verify rebuilds the witness")
        add_level(p)
        p.add_argument("--out", metavar="FILE", help="write the certificate here")

    def add_level(p):
        p.add_argument("--level", type=nonnegative, default=4,
                       help="verification level recorded in the witness block (default 4)")

    p = sub.add_parser("coe", help="decide continuous orbit equivalence")
    add_pair(p)
    p.set_defaults(fn=cmd_coe)

    p = sub.add_parser("conj", help="decide continuous conjugacy")
    add_pair(p)
    p.set_defaults(fn=cmd_conj)

    p = sub.add_parser("kinv", help="print the ordered K-theoretic invariant")
    p.add_argument("ms", help="comma-separated supernatural numbers")
    p.set_defaults(fn=cmd_kinv)

    p = sub.add_parser("eig", help="rational eigenvalue group of a power of an odometer")
    p.add_argument("m", help="supernatural number")
    p.add_argument("k", type=int, help="power of the action")
    p.set_defaults(fn=cmd_eig)

    p = sub.add_parser("counterexample",
                       help="certify the orbit-equivalent non-conjugate family")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out", metavar="FILE", help="write the certificate here")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("witness", help="emit a witness certificate")
    p.add_argument("relation", choices=("coe", "conj"))
    p.add_argument("ms")
    p.add_argument("ns")
    add_level(p)
    p.add_argument("--out", metavar="FILE", help="write the certificate here")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate", metavar="FILE")
    p.add_argument("--level", type=nonnegative, default=None,
                   help="verification level (default: the recorded one)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("selftest", help="run the randomized cross-check suites")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--count", type=corpus_size, default=200,
                   help="instances for the generator-driven suites, at most "
                   f"{SELFTEST_COUNT_LIMIT} (default 200)")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:  # ParseError and CertificateError among them
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
