"""Command-line front end.

Subcommands: syzygy, vino, bounds, ratio, verify.  Output is a single
UTF-8 JSON document or a CSV table with a header row; every count that can
exceed 2^53 is serialized as a decimal string.  Identical configuration
and seed give byte-identical output regardless of --threads.  The comb
ratio is exact by counting; its JSON keeps grid_step = 1/4 as a fixed
field, the step of the midpoint quadrature that it replaced.

Exit codes: 0 success, 1 usage/input error (argparse's own errors
included), 2 enumeration budget exceeded, 3 invariant failure (a failed
verify check, or an engine's own check raising: one stderr line).
A flag a command would ignore is a usage error.

--config FILE reads key = value lines, each standing for the flag of that
name (n-max or n_max); a switch (scan, timing) takes true, yes or 1, or
false, no or 0.  The flags are spliced in after the subcommand name and
parsed with the rest, so an unknown key or a bad value is a usage error
and the command line's own flags win.

Each subcommand imports only the engine it runs, so `bounds` needs no
numpy and `vino` loads neither the Q_p engine nor the norms.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

from .budget import BudgetExceededError

SCHEMA = "1"
_FORMATS = {"syzygy": ["json"], "vino": ["json", "csv"], "bounds": ["csv"],  # default first
            "ratio": ["json"], "verify": ["text", "json"]}


def _emit(args: argparse.Namespace, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _json_int(v: int):
    """Integers beyond exact float range are serialized as strings."""
    return v if abs(v) < 2 ** 53 else str(v)


def cmd_syzygy(args: argparse.Namespace) -> int:
    from .bounds import bezout_syzygy_bound
    from .curves import Curve
    from .local_field import REAL, cell_tuple, padic, padic_scale, real_scale
    from .syzygy import scan_strong_diagonal, syzygy_bound, syzygy_set_nonarch, syzygy_set_real
    if args.field == "padic" and any(
            v is not None for v in (args.epsilon, args.grid_step, args.delta_inv)):
        raise ValueError("--epsilon, --grid-step and --delta-inv apply over R only")
    if args.field == "real" and (args.p is not None or args.s is not None):
        raise ValueError("--p and --s apply over Q_p only")
    if args.scan and args.tuple_indices is not None:
        raise ValueError("--scan enumerates every base tuple; --tuple names one")
    indices = args.tuple_indices or ()
    if not args.scan and len(indices) != args.n:
        raise ValueError("--tuple must list exactly n cell indices")
    if args.scan and args.field != "padic":
        raise ValueError("--scan enumerates every base tuple over Q_p only")
    if args.field == "padic":
        p = 5 if args.p is None else args.p
        s = 1 if args.s is None else args.s
        field = padic(p)
        if args.scan:
            scan = scan_strong_diagonal(p, args.n, s)
            hist: dict[str, int] = {}
            for c in scan.cardinalities:
                hist[str(c)] = hist.get(str(c), 0) + 1
            doc = {
                "schema": SCHEMA, "command": "syzygy", "mode": "scan",
                "field": "padic", "p": p, "n": args.n, "s": s,
                "bases": scan.bases,
                "all_match_permutation_oracle": scan.all_match_permutations,
                "max_cardinality": scan.max_cardinality,
                "cardinality_histogram": hist,
                "bound": _json_int(scan.bound), "within_bound": scan.within_bound,
            }
            _emit(args, _json(doc))
            return 0
        report = syzygy_set_nonarch(cell_tuple(field, padic_scale(p, s), indices))
        _emit(args, _json(_single_doc(report, syzygy_bound(field, args.n),
                                      field="padic", p=p, n=args.n, s=s)))
        return 0
    delta_inv = 8 if args.delta_inv is None else args.delta_inv
    curve = Curve.moment(args.n)
    report = syzygy_set_real(curve, cell_tuple(REAL, real_scale(delta_inv), indices),
                             epsilon=args.epsilon, grid_step=args.grid_step)
    _emit(args, _json(_single_doc(report, bezout_syzygy_bound(curve, REAL),
                                  field="real", n=args.n, delta=f"1/{delta_inv}")))
    return 0


def _single_doc(report, bound: int, **config) -> dict:
    """The JSON document of one base tuple's set, over the field `config` names."""
    return {
        "schema": SCHEMA, "command": "syzygy", "mode": "single", **config,
        "base": list(report.base.indices),
        "epsilon": str(report.epsilon),
        "members": [list(ix) for ix in report.member_indices],
        "cardinality": report.cardinality,
        "method": report.method.value,
        "bound": _json_int(bound),
        "within_bound": report.cardinality <= bound,
    }


def _n_values(args: argparse.Namespace, default: int) -> tuple[int, ...]:
    """--N-list, or else the single --N (default when not given)."""
    if args.N_list and args.N is not None:
        raise ValueError("--N-list replaces --N")
    return args.N_list or (default if args.N is None else args.N,)


def cmd_vino(args: argparse.Namespace) -> int:
    from .curves import Curve
    from .vinogradov import (CountMethod, asymptotic_report, count_solutions, diagonal_count,
                             permutation_count)
    curve = Curve.moment(args.n)
    n_list = _n_values(args, 10)
    if args.fmt == "csv":
        if args.timing or args.method:
            raise ValueError("--timing and --method apply to the JSON count only")
        rows = asymptotic_report(args.n, n_list)
        lines = ["N,count,leading,residual,residual_over_N_pow_n_minus_1,method"]
        for r in rows:
            lines.append(f"{r.N},{r.count},{r.leading},{r.residual},"
                         f"{float(r.residual_ratio):.6f},{r.method.value}")
        _emit(args, "\n".join(lines) + "\n")
        return 0
    (N,) = n_list  # JSON is one count: --N-list writes CSV
    method = CountMethod(args.method) if args.method else None
    res = count_solutions(curve, args.n, N, method)
    doc = {
        "schema": SCHEMA, "command": "vino",
        "n": args.n, "N": N,
        "count": str(res.count),
        "method": res.method.value,
        "diagonal": str(diagonal_count(args.n, N)),
        "permutation_count": str(permutation_count(args.n, N)),
    }
    if args.timing:
        doc["elapsed_seconds"] = round(res.elapsed, 6)
    _emit(args, _json(doc))
    return 0


def _g10(value: float | int) -> str:
    """`.10g` of a float, or of an integer rounded exactly (past float range too)."""
    if isinstance(value, float):
        return f"{value:.10g}"
    mantissa, e, exponent = f"{Decimal(value):.10g}".partition("e")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return mantissa + e + exponent


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import bounds_table
    from .local_field import REAL, FieldKind, FieldSpec, padic
    if args.table not in ("theorem1", "bezout") and (args.field or args.p) is not None:
        raise ValueError(f"--field and --p do not apply to the {args.table} table")
    kind = args.field or ("real" if args.table == "bezout" else "padic")  # bezout has no Q_p row
    if kind == "padic":
        field = padic(5 if args.p is None else args.p)
    elif args.p is not None:
        raise ValueError("--p applies over Q_p only")
    else:
        field = REAL if kind == "real" else FieldSpec(FieldKind.COMPLEX)
    rows = bounds_table(args.table, field, args.n_max)
    lines = ["name,n,field,value,formula"]
    for r in rows:
        fld = r.parameters.get("field", "-")
        val = _g10(r.value)
        lines.append(f"{r.name},{r.parameters['n']},{fld},{val},\"{r.formula}\"")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_ratio(args: argparse.Namespace) -> int:
    from .extension import comb_ratio
    results = [{"N": N, "ratio": round(comb_ratio(args.n, N), 12)}
               for N in _n_values(args, 40)]
    doc = {
        "schema": SCHEMA, "command": "ratio",
        "n": args.n,
        "grid_step": "1/4",  # fixed: the ratio is exact, and the schema keeps the field
        "results": results,
        "limit": round(math.factorial(args.n) ** (1 / (2 * args.n)), 12),
    }
    _emit(args, _json(doc))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import DEFAULT_SEED, run_suite
    results = run_suite(args.suite, seed=args.seed, trials=args.trials)
    if args.fmt == "json":
        doc = {
            "schema": SCHEMA, "command": "verify",
            "suite": args.suite,
            "seed": DEFAULT_SEED if args.seed is None else args.seed,
            "results": [{"suite": r.suite, "name": r.name, "passed": r.passed,
                         "detail": r.detail} for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _emit(args, _json(doc))
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.name}: {r.detail}"
                 for r in results]
        passed = sum(r.passed for r in results)
        lines.append(f"{passed}/{len(results)} checks passed")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))  # an empty entry is an error


_SWITCHES = ("scan", "timing")  # flags without a value
_METHODS = ["hash_join", "brute_force", "permutation_formula"]  # CountMethod's values,
# written out so that parsing imports no engine


def _config_flags(path: str) -> list[str]:
    """The flags that a key = value file stands for: the key is a flag name
    (n-max or n_max), and a switch is set by true, yes or 1 and left unset
    by false, no or 0."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            flag, val = "--" + key.replace("_", "-"), val.strip("'\"")
            if key not in _SWITCHES:
                flags.append(f"{flag}={val}")
            elif val.lower() in ("true", "yes", "1"):
                flags.append(flag)
            elif val.lower() not in ("false", "no", "0"):
                raise ValueError(f"config key {key} is a switch: true or false, not {val!r}")
    return flags


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors exit 1, not 2, which is the budget code;
    subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentsq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key = value file mirroring the flags (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility (at least 1); every engine "
                             "runs single-threaded and output is identical at any value")
        sp.add_argument("--output", help="write to this path instead of stdout")
        sp.add_argument("--format", dest="fmt", default=None,
                        help=" or ".join(_FORMATS[name]) + f"; default {_FORMATS[name][0]}")
        return sp

    sp = command("syzygy", "enumerate S(delta, I; delta^n)")
    sp.add_argument("--field", choices=["padic", "real"], default="padic")
    sp.add_argument("--p", type=int, default=None, help="the prime over Q_p (default 5)")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--s", type=int, default=None, help="scale p^-s over Q_p (default 1)")
    sp.add_argument("--delta-inv", type=int, default=None, help="1/delta over R (default 8)")
    sp.add_argument("--tuple", dest="tuple_indices", type=_parse_int_list, default=None,
                    help="the base cell tuple; not with --scan")
    sp.add_argument("--scan", action="store_true",
                    help="compare every base tuple against the permutation oracle")
    sp.add_argument("--epsilon", type=Fraction, default=None)
    sp.add_argument("--grid-step", type=Fraction, default=None)

    sp = command("vino", "count Vinogradov-system solutions")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--N", type=int, default=None, help="default 10; not with --N-list")
    sp.add_argument("--N-list", type=_parse_int_list, default=(),
                    help="emit the asymptotic CSV table for these N")
    sp.add_argument("--method", choices=_METHODS, default=None)
    sp.add_argument("--timing", action="store_true",
                    help="include elapsed seconds (breaks byte reproducibility)")

    sp = command("bounds", "tabulate the explicit constants")
    sp.add_argument("--table", choices=["theorem1", "bezout", "fewnomial",
                                        "refined", "wronskian"], default="theorem1")
    sp.add_argument("--field", choices=["padic", "real", "complex"], default=None,
                    help="default padic (real for bezout); for theorem1 and bezout only")
    sp.add_argument("--p", type=int, default=None, help="the prime over Q_p (default 5)")
    sp.add_argument("--n-max", type=int, default=5)

    sp = command("ratio", "atomic-comb norm ratio experiment")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--N", type=int, default=None, help="default 40; not with --N-list")
    sp.add_argument("--N-list", type=_parse_int_list, default=())

    sp = command("verify", "run the invariant suite")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=None, help="default 7; rejected where --trials is")
    sp.add_argument("--trials", type=int, default=None,
                    help="random draws per check; a usage error with a single "
                         "suite that draws none (vinogradov, bounds)")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv; the flags of a --config file are spliced in right after
    the subcommand name, so argparse checks them like any other flag and
    the command line's own flags, which come later, win."""
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        i = 0
        while argv[i].startswith("-"):  # only --config precedes the subcommand
            i += 1 if "=" in argv[i] else 2
        args = parser.parse_args(argv[:i + 1] + _config_flags(args.config) + argv[i + 1:])
    if args.threads < 1:
        raise ValueError(f"--threads {args.threads}: need at least 1")
    formats = ["csv"] if args.command == "vino" and args.N_list else _FORMATS[args.command]
    args.fmt = args.fmt or formats[0]
    if args.fmt not in formats:
        raise ValueError(f"--format {args.fmt}: {args.command} writes {' or '.join(formats)} here")
    return args


_COMMANDS = {
    "syzygy": cmd_syzygy,
    "vino": cmd_vino,
    "bounds": cmd_bounds,
    "ratio": cmd_ratio,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except (ValueError, ZeroDivisionError, OSError) as exc:  # Fraction("1/0") divides
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:  # a RuntimeError: caught first
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
