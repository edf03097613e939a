"""Command-line surface: reproducible experiments over the toolkit.

Every subcommand echoes its inputs (including seeds) in a RunReport so runs
can be replayed exactly.  Exit codes: 0 = verdict computed and consistent,
2 = the closed-form and numerical verdicts disagree, 1 = usage or runtime
error.  Output is human-readable text by default; --format json emits the
report with 17-significant-digit floats, --format csv is supported by the
scan subcommand.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import calabi, gram, reports
from .cartan_hartogs import (
    CHDomain,
    ch_block_assembly,
    ch_projectively_induced,
    ch_sample,
    einstein_residual,
    mu_einstein,
    parse_ch_spec,
    thm1_threshold,
)
from .domains import DomainModel, parse_domain, wallach_contains, wallach_set
from .multiindex import MemoryLimitError, basis
from .reports import RunReport, format_float, report_to_dict, scan_csv, to_json

REPLAY_TOL = 1e-12
# Largest lambda grid a scan accepts.
MAX_SCAN_POINTS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, per the contract
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser, csv_ok: bool = False) -> None:
    choices = ["text", "json"] + (["csv"] if csv_ok else [])
    p.add_argument("--format", choices=choices, default="text")
    p.add_argument("--out", type=Path, default=None, help="write output to a file")


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _ch_domain(text: str) -> CHDomain:
    try:
        return parse_ch_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_lambda_or_c(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=_finite_float, help="Wallach exponent")
    group.add_argument(
        "--c", dest="c", type=_finite_float, help="metric scale; lambda = c * gamma"
    )


def _resolve_lambda(dom: DomainModel, args: argparse.Namespace) -> float:
    if getattr(args, "lam", None) is not None:
        return args.lam
    return args.c * dom.gamma


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wallachkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("info", help="domain invariants and Wallach set")
    p.add_argument("domain")
    _add_common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("calabi", help="truncated positivity verdict for N^(-lambda)")
    p.add_argument("domain")
    _add_lambda_or_c(p)
    p.add_argument("--cutoff", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_calabi)

    p = sub.add_parser("wallach", help="closed-form Wallach membership")
    p.add_argument("domain")
    _add_lambda_or_c(p)
    _add_common(p)
    p.set_defaults(func=_cmd_wallach)

    p = sub.add_parser(
        "gram", help="search symmetric point designs for a non-PSD Gram configuration"
    )
    p.add_argument("domain")
    _add_lambda_or_c(p)
    p.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="largest design, in points, that is tried; larger ones are skipped",
    )
    p.add_argument("--witness-out", type=Path, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("ch-check", help="Hartogs-extension inducibility verdict")
    p.add_argument("chspec", type=_ch_domain)
    p.add_argument("--c", type=_finite_float, required=True)
    p.add_argument("--cutoff", type=int, default=None, help="also run the block verdict")
    _add_common(p)
    p.set_defaults(func=_cmd_ch_check)

    p = sub.add_parser(
        "einstein", help="Einstein residual |Ric - k g| from the potential's exact Taylor jet"
    )
    p.add_argument("chspec", type=_ch_domain)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_einstein)

    p = sub.add_parser("scan", help="min block eigenvalue vs lambda (CSV-friendly)")
    p.add_argument("domain")
    p.add_argument("--lambda-from", dest="lam_from", type=_finite_float, required=True)
    p.add_argument("--lambda-to", dest="lam_to", type=_finite_float, required=True)
    p.add_argument("--step", type=_finite_float, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    _add_common(p, csv_ok=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("immersion", help="truncated immersion components")
    p.add_argument("domain")
    _add_lambda_or_c(p)
    p.add_argument("--cutoff", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_immersion)

    p = sub.add_parser("replay", help="recompute an archived witness file")
    p.add_argument("witness", type=Path)
    _add_common(p)
    p.set_defaults(func=_cmd_replay)

    return parser


# --- handlers: return (report, text_lines, payload_override) -------------------


def _cmd_info(args):
    dom = parse_domain(args.domain)
    ws = wallach_set(dom)
    report = RunReport(
        command="info",
        domain=dom.spec_string,
        verdicts={
            "invariants": {"d": dom.d, "r": dom.r, "a": dom.a, "gamma": dom.gamma},
            "wallach_discrete": list(ws.discrete),
            "wallach_continuous_from": ws.continuous_from,
        },
    )
    lines = [
        f"domain {dom.spec_string}: d={dom.d} r={dom.r} a={dom.a:g} gamma={dom.gamma}",
        f"Wallach set: {{{', '.join(f'{x:g}' for x in ws.discrete)}}}"
        f" union ({ws.continuous_from:g}, inf)",
    ]
    return report, lines, None


def _block_dicts(verdict: calabi.Verdict) -> list[dict]:
    return [
        {
            "degree": bv.degree,
            "dim": bv.dim,
            "min_eig": bv.min_eigenvalue,
            "rank": bv.rank,
            "tol": bv.tol,
            "components": bv.components,
            "largest_component": bv.largest_component,
            "solved_components": bv.solved_components,
        }
        for bv in verdict.per_block
    ]


def _cmd_calabi(args):
    dom = parse_domain(args.domain)
    lam = _resolve_lambda(dom, args)
    matrix = calabi.calabi_matrix(dom, lam, args.cutoff)
    verdict = calabi.psd_verdict(matrix)
    closed = wallach_contains(dom, lam)
    agreement = verdict.psd == closed
    report = RunReport(
        command="calabi",
        domain=dom.spec_string,
        parameters={
            "lambda": lam,
            "cutoff": args.cutoff,
            "tol_abs": calabi.DEFAULT_TOL_ABS,
            "tol_rel": calabi.DEFAULT_TOL_REL,
        },
        verdicts={
            "wallach_member": closed,
            "truncated_psd": verdict.psd,
            "certainty": verdict.certainty,
            "min_eigenvalue": verdict.min_eigenvalue,
        },
        per_block=_block_dicts(verdict),
        agreement=agreement,
        sizes=matrix.sizes,
    )
    lines = [
        f"{dom.spec_string}, lambda={lam:g}, cutoff={args.cutoff}:",
        f"  closed-form Wallach member: {closed}",
        f"  truncated verdict: {'PSD' if verdict.psd else 'not PSD'} ({verdict.certainty})",
    ]
    for bv in verdict.per_block:
        lines.append(
            f"  degree {bv.degree}: dim={bv.dim} min_eig={bv.min_eigenvalue:.6g} rank={bv.rank}"
        )
    lines.append(f"  agreement: {agreement}")
    return report, lines, None


def _cmd_wallach(args):
    dom = parse_domain(args.domain)
    lam = _resolve_lambda(dom, args)
    ws = wallach_set(dom)
    member = wallach_contains(dom, lam)
    report = RunReport(
        command="wallach",
        domain=dom.spec_string,
        parameters={"lambda": lam},
        verdicts={
            "wallach_member": member,
            "wallach_discrete": list(ws.discrete),
            "wallach_continuous_from": ws.continuous_from,
        },
    )
    lines = [f"{dom.spec_string}, lambda={lam:g}: member={member}"]
    return report, lines, None


def _cmd_gram(args):
    dom = parse_domain(args.domain)
    lam = _resolve_lambda(dom, args)
    result = gram.search_violation(dom, lam, budget=args.budget)
    closed = wallach_contains(dom, lam)
    # Absence of a witness never contradicts the closed form.
    agreement = (not closed) if result.found else (True if closed else None)
    verdicts = {
        "wallach_member": closed,
        "witness_found": result.found,
        "restarts_used": result.restarts_used,
        "evals_used": result.evals_used,
    }
    if result.found:
        verdicts["min_eigenvalue"] = result.report.min_eigenvalue
        verdicts["witness_size"] = len(result.report.points)
    report = RunReport(
        command="gram",
        domain=dom.spec_string,
        parameters={"lambda": lam, "budget": args.budget},
        verdicts=verdicts,
        agreement=agreement,
    )
    lines = [f"{dom.spec_string}, lambda={lam:g}: Wallach member={closed}"]
    if result.found:
        lines.append(
            f"  witness found: {len(result.report.points)} points, "
            f"min_eig={result.report.min_eigenvalue:.6g} "
            f"({result.evals_used} evaluations)"
        )
    else:
        lines.append(
            f"  no witness from designs of at most {args.budget} points "
            f"({result.evals_used} evaluations)"
        )
    if args.witness_out is not None and result.found:
        payload = gram.witness_payload(dom, result)
        args.witness_out.write_text(to_json(payload))
        lines.append(f"  witness written to {args.witness_out}")
    return report, lines, None


def _cmd_ch_check(args):
    ch = args.chspec
    cf = ch_projectively_induced(ch, args.c)
    threshold = thm1_threshold(ch.base)
    verdicts = {
        "induced_closed_form": cf.induced,
        "threshold": threshold,
        "mu_einstein": mu_einstein(ch.base),
        "checked_m": [
            {"m": m, "lambda": lam, "member": member} for m, lam, member in cf.checked
        ],
    }
    if cf.first_failure is not None:
        verdicts["first_failure"] = {
            "m": cf.first_failure[0],
            "lambda": cf.first_failure[1],
        }
    lines = [
        f"{ch.spec_string}, c={args.c:g}:",
        f"  closed-form induced: {cf.induced} (threshold c >= {threshold:g} at mu_einstein)",
    ]
    agreement, per_block, sizes = None, [], {}
    if args.cutoff is not None:
        matrix = ch_block_assembly(ch, args.c, args.cutoff)
        verdict, sizes = calabi.psd_verdict(matrix), matrix.sizes
        verdicts["truncated_psd"] = verdict.psd
        verdicts["certainty"] = verdict.certainty
        per_block = _block_dicts(verdict)
        agreement = verdict.psd == cf.induced
        lines.append(
            f"  truncated verdict (cutoff {args.cutoff}): "
            f"{'PSD' if verdict.psd else 'not PSD'}; agreement: {agreement}"
        )
        # The lowest refuted degree's witness lies in one w-degree m, whose
        # blocks are the base's at lambda_m = mu (c + m).
        bv = next((bv for bv in verdict.per_block if bv.witness is not None), None)
        if bv is not None:
            b = basis(ch.n_vars, args.cutoff)
            at = b.degree_slice(bv.degree).start + int(np.argmax(np.abs(bv.witness)))
            m = int(b.exponents[at, -1])
            fail = {"degree": bv.degree, "m": m, "lambda": ch.mu * (args.c + m)}
            verdicts["truncated_first_failure"] = fail
            lines.append(f"  first refuted degree {bv.degree}: w-degree m={m}, "
                         f"lambda_m={fail['lambda']:g}")
    report = RunReport(
        command="ch-check",
        domain=ch.spec_string,
        parameters={"c": args.c, "mu": ch.mu, "cutoff": args.cutoff},
        verdicts=verdicts,
        per_block=per_block,
        agreement=agreement,
        sizes=sizes,
    )
    return report, lines, None


def _cmd_einstein(args):
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    ch = args.chspec
    rng = np.random.default_rng(args.seed)
    ks, residuals = [], []
    for _ in range(args.points):
        point = ch_sample(ch, rng)
        k, res = einstein_residual(ch, point)
        ks.append(k)
        residuals.append(res)
    k_mean = float(np.mean(ks))
    spread = (max(ks) - min(ks)) / abs(k_mean) if k_mean != 0 else float(max(ks) - min(ks))
    report = RunReport(
        command="einstein",
        domain=ch.spec_string,
        parameters={"points": args.points, "seed": args.seed},
        verdicts={
            "k_estimates": ks,
            "residuals": residuals,
            "k_mean": k_mean,
            "k_rel_spread": spread,
            "max_residual": max(residuals),
        },
    )
    lines = [f"{ch.spec_string}: Einstein probe at {args.points} points"]
    for i, (k, res) in enumerate(zip(ks, residuals)):
        lines.append(f"  point {i}: k={k:.10g} residual={res:.3e}")
    lines.append(f"  k spread (relative): {spread:.3e}, max residual: {max(residuals):.3e}")
    return report, lines, None


def _scan_grid(lam_from: float, lam_to: float, step: float) -> list[float]:
    if step <= 0:
        raise UsageError("scan step must be positive")
    if lam_from > lam_to:
        raise UsageError(f"--lambda-from {lam_from:g} exceeds --lambda-to {lam_to:g}")
    span = (lam_to - lam_from) / step  # inf when a subnormal step overflows it
    if not span < MAX_SCAN_POINTS:
        raise UsageError(
            f"scan grid has {span + 1:.6g} lambda values, more than {MAX_SCAN_POINTS}; "
            "use a larger --step"
        )
    n = int(round(span))
    lams = [round(lam_from + i * step, 12) for i in range(n + 1)]
    return [x for x in lams if x <= lam_to + step * 1e-9]


def _cmd_scan(args):
    dom = parse_domain(args.domain)
    lams = _scan_grid(args.lam_from, args.lam_to, args.step)
    rows = calabi.scan_lambdas(dom, lams, args.cutoff)
    # Each lambda's PSD flag and smallest block eigenvalue, in one pass.
    per_lambda_psd: dict[float, bool] = {}
    worst: dict[float, float] = {}
    for row in rows:
        per_lambda_psd[row.lam] = per_lambda_psd.get(row.lam, True) and row.psd
        worst[row.lam] = min(worst.get(row.lam, row.min_eig), row.min_eig)
    disagreements = [
        lam for lam in lams if per_lambda_psd[lam] != wallach_contains(dom, lam)
    ]
    report = RunReport(
        command="scan",
        domain=dom.spec_string,
        parameters={
            "lambda_from": args.lam_from,
            "lambda_to": args.lam_to,
            "step": args.step,
            "cutoff": args.cutoff,
        },
        verdicts={
            "psd_lambdas": [lam for lam in lams if per_lambda_psd[lam]],
            "non_psd_lambdas": [lam for lam in lams if not per_lambda_psd[lam]],
            "disagreements": disagreements,
        },
        per_block=[
            {
                "lambda": r.lam,
                "degree": r.degree,
                "block_dim": r.block_dim,
                "min_eig": r.min_eig,
                "psd": r.psd,
            }
            for r in rows
        ],
        agreement=not disagreements,
        sizes=calabi.scan_sizes(dom, args.cutoff),
    )
    lines = [f"{dom.spec_string}: scan lambda in [{args.lam_from:g}, {args.lam_to:g}]"]
    for lam in lams:
        lines.append(
            f"  lambda={lam:g}: {'PSD' if per_lambda_psd[lam] else 'not PSD'}"
            f" (min_eig={worst[lam]:.6g})"
        )
    if disagreements:
        lines.append(f"  DISAGREEMENTS at lambda: {disagreements}")
    payload = scan_csv(rows) if args.format == "csv" else None
    return report, lines, payload


def _cmd_immersion(args):
    dom = parse_domain(args.domain)
    lam = _resolve_lambda(dom, args)
    components = calabi.extract_immersion(calabi.calabi_matrix(dom, lam, args.cutoff))
    series = calabi.bergman_diastasis_series(dom, lam, args.cutoff)
    recon = calabi.immersion_reconstruction_error(components, series)
    comp_dicts = [
        {
            "degree": comp.degree,
            "terms": {
                ",".join(str(e) for e in exps): coeff
                for exps, coeff in sorted(comp.coeffs.items())
            },
        }
        for comp in components
    ]
    report = RunReport(
        command="immersion",
        domain=dom.spec_string,
        parameters={"lambda": lam, "cutoff": args.cutoff},
        verdicts={
            "n_components": len(components),
            "reconstruction_error": recon,
        },
        per_block=comp_dicts,
    )
    lines = [
        f"{dom.spec_string}, lambda={lam:g}, cutoff={args.cutoff}: "
        f"{len(components)} components, reconstruction error {recon:.3e}"
    ]
    for j, comp in enumerate(components):
        terms = " + ".join(
            f"{coeff:.6g}*z^({','.join(str(e) for e in exps)})"
            for exps, coeff in sorted(comp.coeffs.items())
        )
        lines.append(f"  f_{j} (degree {comp.degree}): {terms}")
    return report, lines, None


def _cmd_replay(args):
    payload = reports.parse_json(args.witness.read_text())
    dom, fresh, drift = gram.replay_witness(payload)
    ok = drift <= REPLAY_TOL
    report = RunReport(
        command="replay",
        domain=dom.spec_string,
        parameters={"witness_file": str(args.witness), "seed": payload.get("seed")},
        verdicts={
            "min_eig_stored": float(payload["min_eig"]),
            "min_eig_replayed": fresh.min_eigenvalue,
            "drift": drift if math.isfinite(drift) else None,  # JSON has no inf
            "within_tolerance": ok,
            "branch_ok": fresh.branch_ok,
        },
        agreement=ok,
    )
    lines = [
        f"replay {args.witness}: stored={payload['min_eig']} "
        f"recomputed={format_float(fresh.min_eigenvalue)} drift={drift:.3e}",
        f"  within {REPLAY_TOL:g}: {ok}",
    ]
    return report, lines, None


# --- entry point ----------------------------------------------------------------


def _emit_output(args, report: RunReport, lines: list[str], payload: str | None) -> None:
    if payload is not None:
        text = payload
    elif args.format == "json":
        text = to_json(report_to_dict(report))
    else:
        text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    start = time.perf_counter()
    try:
        report, lines, payload = args.func(args)
        report.duration_s = time.perf_counter() - start
        # Writing is part of the run: an unwritable --out or a report that
        # cannot be serialized is an error like any other.
        _emit_output(args, report, lines, payload)
    except (UsageError, MemoryLimitError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except Exception as exc:
        if getattr(args, "format", "text") == "json":
            sys.stdout.write(
                to_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
            )
        else:
            sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 2 if report.agreement is False else 0


if __name__ == "__main__":
    sys.exit(main())
