"""The nct command line tool.

Each handler returns its JSON report and run sets the exit code by one
rule: 1 iff the report's ok (overall, for a single certificate) is false,
2 on usage or domain errors, else 0.  A ChainFailure or IndeterminateSign
becomes the report {"ok": false, "error": ...}, or in a --grid or a
cover that seed's entry; an empty --grid, --sweep or member --kmax is a
usage error, as is running out of memory; chern top's report carries ok.
Results print to standard output; -o FILE also writes the report, on
failure too.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Dict, List, Optional

from .chern import (
    crosscheck_closed_forms,
    top_eb_minus,
    top_eq_plus,
    verify_lemma_psizeta,
)
from .errors import (
    BadInput,
    ChainFailure,
    DomainPhase,
    ExprSyntaxError,
    IndeterminateSign,
    ParamMismatch,
)
from .exactscalar import parse_rat, rat_str
from .exprcli import parse as parse_expr
from .exprcli import unparse
from .gclass import (
    DEFAULT_KAPPAS,
    Kappas,
    SeedParams,
    certify,
    chain_parts,
    derive,
    interval,
    member_walk,
    seed_grid,
    verify_identities,
)
from .matrixmodel import intertwiner_report, matrix_to_json
from .traces import TraceKind, psi, psi_star, run_trace_suite

Payload = Dict[str, object]

USAGE_ERROR = 2
CHECK_FAILED = 1


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _checked(checks: Dict[str, bool]) -> bool:
    """Print each named check as `name: PASS/FAIL`; the report's ok is their conjunction."""
    for name, passed in checks.items():
        print(f"{name}: {_verdict(passed)}")
    return all(checks.values())


def _kappas(args) -> Kappas:
    return Kappas(parse_rat(args.kappa1), parse_rat(args.kappa2))


def _seed(args) -> SeedParams:
    return SeedParams(args.k, args.m)


def _cmd_gclass_derive(args) -> Payload:
    d = derive(_seed(args))
    for name, value in d.to_json().items():
        print(f"{name} = {value}")
    return {"seed": _seed(args).to_json(), "derived": d.to_json()}


def _cmd_gclass_identities(args) -> Payload:
    results = dict(verify_identities(_seed(args)))
    return {"identities": results, "ok": _checked(results)}


def _cmd_gclass_chain(args) -> Payload:
    results = chain_parts(_seed(args), _kappas(args))
    return {"chain": results, "ok": _checked(results)}


def _cmd_gclass_interval(args) -> Payload:
    iv = interval(_seed(args), _kappas(args))
    print(f"interval: ({rat_str(iv.lo)}, {rat_str(iv.hi)})")
    print(f"width: {rat_str(iv.width())}")
    return {"interval": iv.to_json(), "width": rat_str(iv.width())}


def _cmd_gclass_certify(args) -> Payload:
    kappas = _kappas(args)
    if args.grid is not None:
        if args.k is not None or args.m is not None:
            raise BadInput("certify takes either -k and -m or --grid MAX, not both")
        if args.grid < 3:
            raise BadInput(f"--grid {args.grid} holds no seed; the smallest grid is --grid 3 (seed 1/3)")
        entries: List[Payload] = []
        widths = []
        for seed in seed_grid(args.grid):
            try:
                cert = certify(seed, kappas)
            except (ChainFailure, IndeterminateSign) as exc:
                print(f"seed {seed.k}/{seed.m}: FAIL ({exc})")
                entries.append({"seed": seed.to_json(), "ok": False, "error": str(exc)})
                continue
            failed = ", ".join(name for name, passed in cert.checks().items() if not passed)
            print(f"seed {seed.k}/{seed.m}: " + (f"FAIL ({failed})" if failed else "PASS"))
            entries.append(cert.to_json())
            widths.append(cert.interval.width())
        if widths:
            print(f"narrowest window: {rat_str(min(widths))} ({float(min(widths)):.3e})")
            print(f"widest window: {rat_str(max(widths))} ({float(max(widths)):.3e})")
        ok = all(entry.get("overall", False) for entry in entries)  # a FAIL entry has no overall
        print(f"grid of {len(entries)} seeds: {_verdict(ok)}")
        return {"certificates": entries, "ok": ok}
    if args.k is None or args.m is None:
        raise BadInput("certify needs either -k and -m or --grid MAX")
    cert = certify(_seed(args), kappas)
    _checked(cert.checks())
    print(f"overall: {_verdict(cert.overall)}")
    return cert.to_json()


def _cmd_gclass_member(args) -> Payload:
    theta = parse_rat(args.theta)
    if args.kmax < 3:
        raise BadInput(f"--kmax {args.kmax} holds no seed; the smallest bound is --kmax 3 (seed 1/3)")
    hits, convergents = member_walk(theta, _kappas(args), args.kmax)
    for seed in hits:
        print(f"seed {seed.k}/{seed.m}" + ("" if seed.certifiable else " (not certifiable: m even)"))
    print(f"{len(hits)} seed(s) contain theta = {rat_str(theta)}")
    seeds = [{**s.to_json(), "certifiable": s.certifiable} for s in hits]
    return {"theta": rat_str(theta), "seeds": seeds, "convergents": convergents}


def _cover_seed(piece: str) -> SeedParams:
    """The seed k/m that a --seeds piece spells; SeedParams rejects it unreduced."""
    try:
        k, m = map(int, piece.split("/"))
    except ValueError as exc:
        raise BadInput(f"not a seed k/m: {piece!r}") from exc
    return SeedParams(k, m)


def _cmd_gclass_cover(args) -> Payload:
    seeds = [_cover_seed(piece) for piece in args.seeds.split(",")]
    kappas = _kappas(args)
    entries: List[Payload] = []
    for seed in seeds:
        try:
            iv = interval(seed, kappas)
        except ChainFailure as exc:
            failed = ", ".join(name for name, holds in chain_parts(seed, kappas).items() if not holds)
            print(f"seed {seed.k}/{seed.m}: chain fails ({failed})")
            entries.append({"error": str(exc)})
            continue
        print(f"seed {seed.k}/{seed.m}: ({rat_str(iv.lo)}, {rat_str(iv.hi)})")
        entries.append(iv.to_json())
    return {"intervals": entries, "ok": all("error" not in entry for entry in entries)}


def _cmd_traces_check(args) -> Payload:
    results = run_trace_suite(args.window)
    return {"window": args.window, "results": results, "ok": _checked(results)}


def _cmd_traces_eval(args) -> Payload:
    kind = TraceKind(args.kind)
    el = parse_expr(args.expr)
    value = psi_star(kind, el) if args.adjoint else psi(kind, el)
    print(str(value))
    return {"kind": args.kind, "expr": args.expr, "adjoint": args.adjoint, "value": str(value)}


def _cmd_chern_top(args) -> Payload:
    v = (top_eq_plus if args.charge == "plus" else top_eb_minus)(args.p, args.q)
    print(str(v))
    ok = _checked({"lattice": v.top.in_lattice()})
    return {"charge": args.charge, "p": args.p, "q": args.q, "vector": v.to_json(), "ok": ok}


def _cmd_chern_crosscheck(args) -> Payload:
    results = {}
    if args.charge in ("plus", "both"):
        results["plus"] = crosscheck_closed_forms(args.p, args.q, 1)
    if args.charge in ("minus", "both"):
        results["minus"] = crosscheck_closed_forms(args.p, args.q, -1)
    return {"p": args.p, "q": args.q, "results": results, "ok": _checked(results)}


def _cmd_chern_lemma24(args) -> Payload:
    ok = verify_lemma_psizeta(args.nn, args.kk, args.window)
    print(f"transfer equations (nn={args.nn}, k={args.kk}, window={args.window}): {_verdict(ok)}")
    return {"nn": args.nn, "k": args.kk, "window": args.window, "ok": ok}


def _worst(rep) -> float:
    return max(rep.resid_u, rep.resid_v, rep.resid_unitary)


def _cmd_matrix_verify(args) -> Payload:
    if args.sweep is not None:
        if args.sweep < 1:
            raise BadInput(f"--sweep {args.sweep} holds no pair; the smallest sweep is --sweep 1")
        reports = [intertwiner_report(q, p) for q in range(1, args.sweep + 1)
                   for p in range(1, q + 1) if math.gcd(p, q) == 1]
        for rep in reports:
            print(f"q={rep.q} p={rep.p}: worst residual {_worst(rep):.2e} {_verdict(rep.ok)}")
        print(f"worst residual: {max(_worst(rep) for rep in reports):.3e}")
        ok = all(rep.ok for rep in reports)
        print(f"sweep q <= {args.sweep}: {_verdict(ok)}")
        return {"reports": [r.to_json() for r in reports], "ok": ok}
    rep = intertwiner_report(args.q, args.p)
    print(f"resid WuW*-v     : {rep.resid_u:.3e}")
    print(f"resid WvW*-u*    : {rep.resid_v:.3e}")
    print(f"resid W*W-I      : {rep.resid_unitary:.3e}")
    print(f"order four       : {_verdict(rep.order_four_ok)}")
    print(f"overall          : {_verdict(rep.ok)}")
    payload: Payload = dict(rep.to_json())
    if args.dump:
        payload["matrix"] = matrix_to_json(rep.w)
    return payload


def _cmd_expr_echo(args) -> Payload:
    el = parse_expr(args.expr)
    canonical = unparse(el)
    print(canonical)
    return {"input": args.expr, "canonical": canonical}


def _add_seed_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-k", type=int, required=True, help="seed numerator k >= 1")
    sub.add_argument("-m", type=int, required=True, help="seed denominator m > 2k")


def _add_kappa_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa1", default=rat_str(DEFAULT_KAPPAS.k1), help="slack 1/2 < kappa1 < 1 (rational)")
    sub.add_argument("--kappa2", default=rat_str(DEFAULT_KAPPAS.k2), help="slack 0 < kappa2 <= 1/2 (rational)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nct",
        description="exact verification toolkit for the order-four transform of the "
        "two-unitary rotation algebra",
    )
    subs = top.add_subparsers(dest="command", required=True)

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("-o", "--output", metavar="FILE", help="write a JSON report")

    gclass = subs.add_parser("gclass", help="seed family: identities, intervals, certificates")
    gsubs = gclass.add_subparsers(dest="subcommand", required=True)

    g_derive = gsubs.add_parser("derive", parents=[out_parent], help="derived integers for a seed")
    _add_seed_flags(g_derive)
    g_derive.set_defaults(handler=_cmd_gclass_derive)

    g_ident = gsubs.add_parser("identities", parents=[out_parent], help="the eight exact identities")
    _add_seed_flags(g_ident)
    g_ident.set_defaults(handler=_cmd_gclass_identities)

    g_chain = gsubs.add_parser("chain", parents=[out_parent], help="the five-link inequality chain")
    _add_seed_flags(g_chain)
    _add_kappa_flags(g_chain)
    g_chain.set_defaults(handler=_cmd_gclass_chain)

    g_interval = gsubs.add_parser("interval", parents=[out_parent], help="the seed's open interval")
    _add_seed_flags(g_interval)
    _add_kappa_flags(g_interval)
    g_interval.set_defaults(handler=_cmd_gclass_interval)

    g_certify = gsubs.add_parser("certify", parents=[out_parent], help="full decomposition certificate")
    g_certify.add_argument("-k", type=int, help="seed numerator (single-seed mode)")
    g_certify.add_argument("-m", type=int, help="seed denominator (single-seed mode)")
    g_certify.add_argument("--grid", type=int, metavar="MAX", help="certify every odd-m seed with k, m <= MAX")
    _add_kappa_flags(g_certify)
    g_certify.set_defaults(handler=_cmd_gclass_certify)

    g_member = gsubs.add_parser("member", parents=[out_parent], help="seeds whose interval contains theta")
    g_member.add_argument("--theta", required=True, help="rational theta in (0,1), e.g. 73/1156")
    g_member.add_argument("--kmax", type=int, default=40, help="bound on m (k < m/2)")
    _add_kappa_flags(g_member)
    g_member.set_defaults(handler=_cmd_gclass_member)

    g_cover = gsubs.add_parser("cover", parents=[out_parent], help="intervals for a list of seeds")
    g_cover.add_argument("--seeds", required=True, help="comma-separated seeds, e.g. 1/3,2/5")
    _add_kappa_flags(g_cover)
    g_cover.set_defaults(handler=_cmd_gclass_cover)

    traces = subs.add_parser("traces", help="trace functionals: law suite and evaluation")
    tsubs = traces.add_subparsers(dest="subcommand", required=True)

    t_check = tsubs.add_parser("check", parents=[out_parent], help="exhaustive law suite on a window")
    t_check.add_argument("--window", type=int, default=6, help="monomial exponent window")
    t_check.set_defaults(handler=_cmd_traces_check)

    t_eval = tsubs.add_parser("eval", parents=[out_parent], help="evaluate one functional on an expression")
    t_eval.add_argument("--kind", required=True, choices=[k.value for k in TraceKind])
    t_eval.add_argument("--expr", required=True, help="element in the expression grammar")
    t_eval.add_argument("--adjoint", action="store_true", help="evaluate the Hermitian adjoint functional")
    t_eval.set_defaults(handler=_cmd_traces_eval)

    chern = subs.add_parser("chern", help="invariant vectors and transfer checks")
    csubs = chern.add_subparsers(dest="subcommand", required=True)

    c_top = csubs.add_parser("top", parents=[out_parent], help="closed-form vector of a charged projection")
    c_top.add_argument("--charge", required=True, choices=["plus", "minus"])
    c_top.add_argument("-p", type=int, required=True)
    c_top.add_argument("-q", type=int, required=True)
    c_top.set_defaults(handler=_cmd_chern_top)

    c_cross = csubs.add_parser("crosscheck", parents=[out_parent],
                               help="closed form vs transfer-route recomputation")
    c_cross.add_argument("-p", type=int, required=True)
    c_cross.add_argument("-q", type=int, required=True)
    c_cross.add_argument("--charge", default="both", choices=["plus", "minus", "both"])
    c_cross.set_defaults(handler=_cmd_chern_crosscheck)

    c_lemma = csubs.add_parser("lemma24", parents=[out_parent],
                               help="element-level transfer equations on a window")
    c_lemma.add_argument("--nn", type=int, required=True, help="scaling index, nonzero")
    c_lemma.add_argument("--kk", type=int, required=True, help="integer offset")
    c_lemma.add_argument("--window", type=int, default=6)
    c_lemma.set_defaults(handler=_cmd_chern_lemma24)

    matrix = subs.add_parser("matrix", help="clock/shift intertwiner witness")
    msubs = matrix.add_subparsers(dest="subcommand", required=True)

    m_verify = msubs.add_parser("verify", parents=[out_parent], help="build and verify one pair or a sweep")
    m_verify.add_argument("-p", type=int, default=1)
    m_verify.add_argument("-q", type=int, default=2)
    m_verify.add_argument("--sweep", type=int, metavar="QMAX", help="verify all coprime pairs with q <= QMAX")
    m_verify.add_argument("--dump", action="store_true", help="include the matrix in the JSON report")
    m_verify.set_defaults(handler=_cmd_matrix_verify)

    expr = subs.add_parser("expr", help="expression grammar utilities")
    esubs = expr.add_subparsers(dest="subcommand", required=True)

    e_echo = esubs.add_parser("echo", parents=[out_parent], help="parse and print the canonical form")
    e_echo.add_argument("--expr", required=True)
    e_echo.set_defaults(handler=_cmd_expr_echo)

    return top


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        payload = args.handler(args)
    except (BadInput, DomainPhase, ParamMismatch, ExprSyntaxError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ChainFailure, IndeterminateSign) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        payload = {"ok": False, "error": str(exc)}
    output = getattr(args, "output", None)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return USAGE_ERROR
        print(f"report written to {output}")
    return 0 if payload.get("ok", payload.get("overall", True)) else CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
