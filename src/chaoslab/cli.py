"""Command-line surface for chaoslab.

Subcommands generate index sets, compute norms and moments, and run the
verification certificates, writing diffable CSV reports.  Exit codes:
0 success / all checks passed, 1 a certificate failed, 2 usage error,
3 resource limit or I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .chaos import (
    _blei_check,
    clt_criteria,
    khintchine_check,
    moment_table,
    rud_average,
    sign_concentration_check,
)
from .combdim import (
    STRATEGIES,
    BlockChoice,
    density_certificates,
    dump_index_set,
    estimate_dimension,
    gen_sum_set,
    gen_triangle,
    load_index_set,
    max_density,
)
from .errors import ChaosLabError, InvalidArgumentError, ResourceLimitError
from .report import RunManifest, csv_text, format_number as _fmt, write_report, write_text
from .symspace import (
    DEFAULT_TOL,
    ConcaveWeight,
    OrliczFunction,
    SpaceSpec,
    check_tol,
    coincidence_check,
    norm,
)
from .walsh import DEFAULT_BITS_CAP, check_bits_cap, law_of

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# Descriptor grammar: NAME[:ARG...].  Each parser maps a name and its
# arguments to a spec, or returns None for an unknown name.


def _orlicz(name, args):
    """power:P or exp:R[:U0]"""
    if name == "power":
        (p,) = args
        return OrliczFunction.power(float(p))
    if name == "exp":
        r, u0 = args if len(args) > 1 else (*args, None)
        return OrliczFunction.exponential(float(r), None if u0 is None else float(u0))
    return None


def _weight(name, args):
    """log:GAMMA"""
    if name == "log":
        (gamma,) = args
        return ConcaveWeight.log_power(float(gamma))
    return None


def _space(name, args):
    """lp:P, linf, explr:R[:bisection|extrapolation], orlicz-ORLICZ,
    lorentz-WEIGHT or marcinkiewicz-WEIGHT"""
    if name == "lp":
        (p,) = args
        return SpaceSpec.lp(float(p))
    if name == "linf":
        () = args
        return SpaceSpec.linf()
    if name == "explr":
        r, method = args if len(args) > 1 else (*args, "bisection")
        return SpaceSpec.exp_lr(float(r), "orlicz-bisection" if method == "bisection" else method)
    family, _, fragment = name.partition("-")
    if family in ("orlicz", "lorentz", "marcinkiewicz"):
        inner = (_orlicz if family == "orlicz" else _weight)(fragment, args)
        return None if inner is None else getattr(SpaceSpec, family)(inner)
    return None


def _parse(kind, parser, text):
    name, *args = text.strip().lower().split(":")
    try:
        spec = parser(name, args)
    except (IndexError, ValueError) as exc:
        raise InvalidArgumentError(f"bad {kind} descriptor {text!r}: {exc}") from exc
    if spec is None:
        raise InvalidArgumentError(f"unknown {kind} descriptor {text!r}")
    return spec


def parse_space(text):
    """Parse a space descriptor such as lp:4, linf, orlicz-power:3,
    orlicz-exp:2, lorentz-log:1, marcinkiewicz-log:0.5, explr:2:extrapolation."""
    return _parse("space", _space, text)


def _csv_ints(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _csv_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _build_parser():
    top = argparse.ArgumentParser(
        prog="chaoslab",
        description="Exact Rademacher-chaos distributions, symmetric-space norms, "
        "and inequality certificates.",
    )
    top.add_argument("--version", action="version", version=f"chaoslab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-enum-bits", type=int, default=DEFAULT_BITS_CAP,
                       help="exact enumeration cap")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="root-finding tolerance")
        p.add_argument("--out", help="output file (report CSV unless noted)")
        p.add_argument("--manifest", help="write a JSON run manifest here")

    p = sub.add_parser("gen-set", help="generate an index set file")
    p.add_argument("--kind", choices=("sum", "triangle"), required=True)
    p.add_argument("--max", type=int, required=True, help="largest allowed entry")
    p.add_argument("--order", type=int, default=3, help="order d for triangle sets")
    common(p)

    p = sub.add_parser("density", help="max block density or density certificates")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--n", type=int, help="block size (single max-density run)")
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--strategy", default="exhaustive", choices=STRATEGIES)
    p.add_argument("--alpha", type=float, help="super exponent (certificate mode)")
    p.add_argument("--beta", type=float, help="sub exponent (certificate mode)")
    p.add_argument("--n-list", type=_csv_ints, help="block sizes (certificate mode)")
    common(p)

    p = sub.add_parser("dimension", help="least-squares combinatorial dimension")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--n-list", type=_csv_ints, required=True)
    p.add_argument("--universe", type=int, default=None)
    p.add_argument("--strategy", default="identity-blocks", choices=STRATEGIES)
    common(p)

    p = sub.add_parser("norm", help="norm of the chaos sum over a set")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--coeffs", type=_csv_floats, help="per-element coefficients "
                   "(canonical element order; default all 1)")
    p.add_argument("--space", required=True)
    common(p)

    p = sub.add_parser("khintchine", help="two-sided Khintchine bound check")
    p.add_argument("--coeffs", type=_csv_floats, required=True)
    p.add_argument("--p", type=float, required=True)
    common(p)

    p = sub.add_parser("moments", help="exact moment table with growth exponent")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--coeffs", type=_csv_floats)
    p.add_argument("--p-list", type=_csv_floats, default=[1, 2, 4, 8, 16])
    p.add_argument("--beta", type=float, help="also record Blei ratios at this exponent")
    common(p)

    p = sub.add_parser("rud", help="sign-averaged norm vs deterministic norm")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--coeffs", type=_csv_floats)
    p.add_argument("--space", required=True)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-samples", type=int, default=None)

    p = sub.add_parser("concentration", help="randomized sup-norm concentration")
    p.add_argument("--set", dest="set_path")
    p.add_argument("--order", type=int, help="generate a full triangle of this order instead")
    p.add_argument("--n", type=int, required=True, help="block size (identity blocks)")
    common(p)

    p = sub.add_parser("clt", help="sum-set normality criteria table")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--n-list", dest="N_list", type=_csv_ints, required=True)
    p.add_argument("--star-threshold", type=float, default=0.15)
    p.add_argument("--sharp-threshold", type=float, default=1e-12)
    common(p)

    p = sub.add_parser("coincidence", help="Orlicz/Marcinkiewicz coincidence check")
    p.add_argument("--orlicz", required=True, help="power:P or exp:R[:U0]")
    p.add_argument("--weight", required=True, help="log:GAMMA")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=int, default=64)
    common(p)

    return top


def _emit(report, args):
    """Print a summary, write the report CSV if requested."""
    for c in report.checks:
        if c.comparison == "info":
            print(f"  {c.quantity} = {_fmt(c.value)}")
        else:
            state = "ok" if c.passed else "FAIL"
            print(f"  {c.quantity} = {_fmt(c.value)} {c.comparison} {_fmt(c.bound)} [{state}]")
    print(f"verdict: {'pass' if report.verdict else 'fail'}")
    if args.out:
        write_report(report, args.out)
    return EXIT_OK if report.verdict else EXIT_CERT_FAIL


def _refuse_out(args, what):
    if args.out:
        raise InvalidArgumentError(f"{what} writes no file, so --out is not accepted")


def run(argv=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)

    t0 = time.perf_counter()
    try:
        # every subcommand takes both flags, so one that reads neither still refuses
        # a value no reader could take
        check_tol(args.tol)
        check_bits_cap(args.max_enum_bits)
        code = _dispatch(args)
        if args.manifest:
            RunManifest(
                command_line="chaoslab " + " ".join(argv if argv is not None else sys.argv[1:]),
                parameters={
                    k: v
                    for k, v in vars(args).items()
                    if k not in ("command", "manifest") and v is not None
                },
                seed=getattr(args, "seed", None),
                tolerances={"tol": args.tol, "max_enum_bits": args.max_enum_bits},
                version=__version__,
                wall_time_s=time.perf_counter() - t0,
                outputs=[args.out] if args.out else [],  # every --out is written or refused
            ).write(args.manifest)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChaosLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return code


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "gen-set":
        if not args.out:
            raise InvalidArgumentError("gen-set requires --out")
        if args.kind == "sum":
            A = gen_sum_set(args.max)
        else:
            A = gen_triangle(args.order, args.max)
        dump_index_set(A, args.out)
        print(f"wrote {len(A)} elements of order {A.order} to {args.out}")
        return EXIT_OK

    if cmd == "density":
        A = load_index_set(args.set_path)
        if args.alpha is not None or args.beta is not None:
            if args.alpha is None or args.beta is None or not args.n_list:
                raise InvalidArgumentError(
                    "certificate mode needs --alpha, --beta and --n-list"
                )
            report = density_certificates(
                A, args.alpha, args.beta, args.n_list, args.universe, args.strategy
            )
            return _emit(report, args)
        if args.n is None:
            raise InvalidArgumentError("need --n (or --alpha/--beta/--n-list)")
        _refuse_out(args, "density --n")
        count, witness = max_density(A, args.n, args.universe, args.strategy)
        print(f"best count: {count}")
        for i, b in enumerate(witness.blocks, 1):
            print(f"  B{i} = {{{', '.join(map(str, b))}}}")
        return EXIT_OK

    if cmd == "dimension":
        A = load_index_set(args.set_path)
        universe = args.universe if args.universe is not None else A.max_index
        profile = estimate_dimension(A, args.n_list, universe, args.strategy)
        print(f"alpha_hat = {_fmt(profile.alpha_hat)}  (R^2 = {_fmt(profile.r_squared)})")
        for row in profile.rows:
            print(f"  n={row.n}: best_count={row.best_count} [{row.strategy}]")
        if args.out:
            rows = [(row.n, row.best_count) for row in profile.rows]
            notes = [("alpha_hat", profile.alpha_hat)]
            write_text(args.out, csv_text(("n", "best_count"), rows, notes))
        return EXIT_OK

    if cmd == "norm":
        _refuse_out(args, "norm")
        A = load_index_set(args.set_path)
        space = parse_space(args.space)
        value = norm(law_of(A, args.coeffs, args.max_enum_bits), space, args.tol)
        print(f"norm[{space.describe()}] = {value:.6f}")
        return EXIT_OK

    if cmd == "khintchine":
        report = khintchine_check(args.coeffs, args.p)
        value = report.quantity("moment")
        low = report.checks[1].bound
        high = report.checks[2].bound
        print(f"||sum a_j r_j||_{args.p:g} = {value:.6f}  (bounds [{low:.6f}, {high:.6f}])")
        return _emit(report, args)

    if cmd == "moments":
        A = load_index_set(args.set_path)
        if args.beta is None:
            report, table = None, moment_table(law_of(A, args.coeffs, args.max_enum_bits),
                                               args.p_list)
        else:  # the Blei check may refuse the coefficients, so it runs before any output
            report, table = _blei_check(A, args.coeffs, args.beta, args.p_list,
                                        args.max_enum_bits)
        for p, v in table.rows:
            print(f"  p={p:g}: {_fmt(v)}")
        print(f"growth exponent theta = {_fmt(table.theta)}")
        if report is not None:
            return _emit(report, args)
        if args.out:
            write_text(args.out, csv_text(("p", "norm"), table.rows, [("theta", table.theta)]))
        return EXIT_OK

    if cmd == "rud":
        _refuse_out(args, "rud")
        A = load_index_set(args.set_path)
        space = parse_space(args.space)
        result = rud_average(A, args.coeffs, space, samples=args.mc_samples, seed=args.seed,
                             bits_cap=args.max_enum_bits, tol=args.tol)
        print(f"averaged norm      = {_fmt(result.average)}")
        print(f"deterministic norm = {_fmt(result.deterministic_norm)}")
        print(f"ratio              = {_fmt(result.ratio)}")
        if result.stderr is not None:
            print(f"standard error     = {_fmt(result.stderr)}")
        return EXIT_OK

    if cmd == "concentration":
        if args.set_path:
            A = load_index_set(args.set_path)
        elif args.order is not None:
            A = gen_triangle(args.order, args.n)
        else:
            raise InvalidArgumentError("need --set or --order")
        blocks = BlockChoice.identity(A.order, args.n)
        report = sign_concentration_check(A, blocks)
        return _emit(report, args)

    if cmd == "clt":
        A = load_index_set(args.set_path)
        report = clt_criteria(A, args.N_list, args.star_threshold, args.sharp_threshold)
        columns = ("card", "star_ratio", "sharp_ratio")
        rows = [[N] + [report.quantity(f"{c}_N{N}") for c in columns] for N in args.N_list]
        text = csv_text(("N", "cardinality", "star_ratio", "sharp_ratio"), rows)
        if args.out:
            write_text(args.out, text)
        else:
            print(text, end="")
        print(f"verdict: {'pass' if report.verdict else 'fail'}")
        return EXIT_OK if report.verdict else EXIT_CERT_FAIL

    if cmd == "coincidence":
        report = coincidence_check(
            _parse("Orlicz", _orlicz, args.orlicz),
            _parse("weight", _weight, args.weight),
            args.eps,
            grid=args.grid,
            tol=args.tol,
        )
        return _emit(report, args)


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
