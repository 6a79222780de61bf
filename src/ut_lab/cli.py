"""The ut-lab command line: homog / ut / regular / agl / verify.

Groups are addressed as catalog:NAME or catalog:NAME@DEGREE (degree
disambiguates names with several actions) or file:PATH for the stored-group
text format.  Exit codes: 0 = holds, 1 = fails (with witness), 2 = undecided
or error.  --json emits a report that parses back losslessly.
"""
from __future__ import annotations

import argparse
import sys
import time

from .catalog import build_named, load_group_file
from .errors import UtLabError
from .num_theory import agl_criterion, sieve_problem1
from .perm_core import PermGroup
from .report import EXIT_UNDECIDED, Report
from .semigroup import Transformation, is_regular_in, regular_for_all_rank_k
from .set_orbits import is_ij_homogeneous, is_k_homogeneous
from .ut_deciders import has_kut
from .verify import run_suite


def resolve_group(spec: str) -> PermGroup:
    if spec.startswith("file:"):
        try:
            return load_group_file(spec[5:])
        except OSError as err:
            raise UtLabError(f"cannot read group file: {err}") from err
    if spec.startswith("catalog:"):
        spec = spec[8:]
    name, _, degree = spec.partition("@")
    return build_named(name, int(degree) if degree else None)


def _finish(report: Report, t0: float, as_json: bool) -> int:
    report.elapsed_s = time.time() - t0
    print(report.to_json() if as_json else report.render_text())
    return report.exit_code


def cmd_homog(args) -> int:
    t0 = time.time()
    G = resolve_group(args.group)
    report = Report(
        command=f"homog --i {args.i} --j {args.j}",
        group_name=G.name, degree=G.degree, order=G.order,
    )
    if args.i == args.j:
        ok = is_k_homogeneous(G, args.i)
        witness = None
    else:
        ok, witness = is_ij_homogeneous(G, args.i, args.j)
    key = f"({args.i},{args.j})-homogeneous"
    report.verdicts[key] = ok
    if witness is not None:
        i_rep, j_set = witness
        report.witnesses[key] = (
            f"no image of {{{','.join(map(str, i_rep))}}} lies in "
            f"{{{','.join(map(str, j_set))}}}"
        )
    return _finish(report, t0, args.json)


def cmd_ut(args) -> int:
    t0 = time.time()
    G = resolve_group(args.group)
    report = Report(
        command=f"ut --k {args.k} --method {args.method}",
        group_name=G.name, degree=G.degree, order=G.order,
    )
    verdict = has_kut(G, args.k, method=args.method)
    key = f"{args.k}-ut"
    report.verdicts[key] = verdict.holds
    report.methods[key] = verdict.method
    if verdict.witness is not None and (args.witness or verdict.holds is False):
        report.witnesses[key] = str(verdict.witness)
    return _finish(report, t0, args.json)


def cmd_regular(args) -> int:
    t0 = time.time()
    G = resolve_group(args.group)
    report = Report(
        command="regular", group_name=G.name, degree=G.degree, order=G.order,
    )
    if args.map:
        a = Transformation.parse(args.map)
        result = is_regular_in(a, G)
        key = f"map {args.map} regular"
        report.verdicts[key] = result.regular
        if result.witness is not None:
            report.witnesses[key] = f"g = {result.witness.cycle_string()}"
    elif args.rank is not None:
        key = f"all rank-{args.rank} maps regular"
        report.verdicts[key] = regular_for_all_rank_k(G, args.rank, method=args.method)
    else:
        report.error = "need --map or --rank"
    return _finish(report, t0, args.json)


def cmd_agl(args) -> int:
    t0 = time.time()
    report = Report(command="agl")
    if args.p is not None:
        rep = agl_criterion(args.p)
        report.group_name = f"AGL(1,{args.p})"
        report.degree = args.p
        report.order = args.p * (args.p - 1)
        report.verdicts["3-ut criterion"] = rep.verdict
        if rep.min_witness is not None:
            report.witnesses["3-ut criterion"] = (
                f"c = {rep.min_witness}, |<-1, c, c-1>| = {rep.orders[rep.min_witness]}"
            )
        report.tables["order table"] = [
            f"c={c}\torder={order}" for c, order in sorted(rep.orders.items())
        ]
    elif args.sieve_limit is not None:
        rows = sieve_problem1(args.sieve_limit)
        report.tables["p\tverdict\tmin_witness_c\torder"] = [r.as_text() for r in rows]
        report.verdicts["all primes = 11 mod 12 decided"] = True
    else:
        report.error = "need --p or --sieve-limit"
    return _finish(report, t0, args.json)


def cmd_verify(args) -> int:
    t0 = time.time()
    report = Report(command=f"verify --suite {args.suite}")
    results = run_suite(args.suite, emit=None if args.json else print)
    for r in results:
        report.verdicts[f"{r.cid} {r.title}"] = r.ok
        report.methods[f"{r.cid} {r.title}"] = r.detail
    return _finish(report, t0, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ut-lab",
        description="homogeneity and universal-transversal deciders for permutation groups",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("homog", help="decide (i,j)-homogeneity")
    p.add_argument("--group", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(fn=cmd_homog)

    p = sub.add_parser("ut", help="decide the k-universal transversal property")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--witness", action="store_true", help="print witness details")
    p.add_argument("--method", choices=("auto", "naive", "extend"), default="auto")
    p.set_defaults(fn=cmd_ut)

    p = sub.add_parser("regular", help="regularity of maps in <a, G>")
    p.add_argument("--group", required=True)
    p.add_argument("--map", help="comma-separated image list, e.g. 1,4,5,2,2")
    p.add_argument("--rank", type=int, help="check all maps of this rank")
    p.add_argument("--method", choices=("kut", "direct"), default="kut")
    p.set_defaults(fn=cmd_regular)

    p = sub.add_parser("agl", help="the AGL(1,p) multiplicative criterion")
    p.add_argument("--p", type=int)
    p.add_argument("--sieve-limit", type=int)
    p.set_defaults(fn=cmd_agl)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("--suite", choices=("small", "paper", "long"), default="small")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UtLabError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
