"""Command-line front end.

Subcommands: syzygy, vino, bounds, ratio, verify.  Output is a single
UTF-8 JSON document or a CSV table with a header row; every count that can
exceed 2^53 is serialized as a decimal string.  Identical configuration
and seed give byte-identical output regardless of --threads.  The comb
ratio is exact by counting; its JSON keeps grid_step = 1/4 as a fixed
field, the step of the midpoint quadrature that it replaced.

Exit codes: 0 success, 1 usage/input error (argparse's own errors
included), 2 enumeration budget exceeded, 3 invariant failure (verify).
A flag a command would ignore is a usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from . import verify as verify_mod
from .budget import BudgetExceededError
from .curves import Curve
from .extension import comb_ratio
from .local_field import REAL, FieldKind, FieldSpec, cell_tuple, padic, padic_scale, real_scale
from .syzygy import scan_strong_diagonal, syzygy_bound, syzygy_set_nonarch, syzygy_set_real
from .vinogradov import (CountMethod, asymptotic_report, count_solutions, diagonal_count,
                         permutation_count)

SCHEMA = "1"
_FORMATS = {"syzygy": ["json"], "vino": ["json", "csv"], "bounds": ["csv"],  # default first
            "ratio": ["json"], "verify": ["text", "json"]}


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    field: str = "padic"
    p: int | None = None  # None: 5 over Q_p; rejected over R and C
    n: int = 2
    s: int | None = None  # None: 1 over Q_p; rejected over R
    N: int | None = None  # None: 10 (vino) or 40 (ratio); rejected with --N-list
    N_list: tuple[int, ...] = ()
    tuple_indices: tuple[int, ...] | None = None  # rejected with --scan
    scan: bool = False
    delta_inv: int | None = None  # None: 8 over R; rejected over Q_p
    epsilon: Fraction | None = None
    grid_step: Fraction | None = None
    method: str | None = None
    table: str = "theorem1"
    n_max: int = 5
    suite: str = "all"
    seed: int = 7
    trials: int | None = None
    threads: int = 1
    timing: bool = False
    output: str | None = None
    fmt: str = "json"


def _emit(config: RunConfig, text: str):
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _json_int(v: int):
    """Integers beyond exact float range are serialized as strings."""
    return v if abs(v) < 2 ** 53 else str(v)


def _field_of(config: RunConfig) -> FieldSpec:
    if config.field == "padic":
        return padic(5 if config.p is None else config.p)
    if config.p is not None:
        raise ValueError("--p applies over Q_p only")
    if config.field == "real":
        return REAL
    if config.field == "complex":
        return FieldSpec(FieldKind.COMPLEX)
    raise ValueError(f"unknown field {config.field!r}")


def cmd_syzygy(config: RunConfig) -> int:
    if config.field == "padic" and any(
            v is not None for v in (config.epsilon, config.grid_step, config.delta_inv)):
        raise ValueError("--epsilon, --grid-step and --delta-inv apply over R only")
    if config.field == "real" and (config.p is not None or config.s is not None):
        raise ValueError("--p and --s apply over Q_p only")
    if config.scan and config.tuple_indices is not None:
        raise ValueError("--scan enumerates every base tuple; --tuple names one")
    indices = config.tuple_indices or ()
    if not config.scan and len(indices) != config.n:
        raise ValueError("--tuple must list exactly n cell indices")
    if config.scan and config.field != "padic":
        raise ValueError("--scan enumerates every base tuple over Q_p only")
    if config.field == "padic":
        p = 5 if config.p is None else config.p
        s = 1 if config.s is None else config.s
        field = padic(p)
        if config.scan:
            scan = scan_strong_diagonal(p, config.n, s)
            hist: dict[str, int] = {}
            for c in scan.cardinalities:
                hist[str(c)] = hist.get(str(c), 0) + 1
            doc = {
                "schema": SCHEMA, "command": "syzygy", "mode": "scan",
                "field": "padic", "p": p, "n": config.n, "s": s,
                "bases": scan.bases,
                "all_match_permutation_oracle": scan.all_match_permutations,
                "max_cardinality": scan.max_cardinality,
                "cardinality_histogram": hist,
                "bound": _json_int(scan.bound), "within_bound": scan.within_bound,
            }
            _emit(config, _json(doc))
            return 0
        base = cell_tuple(field, padic_scale(p, s), indices)
        report = syzygy_set_nonarch(base)
        doc = {
            "schema": SCHEMA, "command": "syzygy", "mode": "single",
            "field": "padic", "p": p, "n": config.n, "s": s,
            "base": list(base.indices),
            "epsilon": str(report.epsilon),
            "members": [list(ix) for ix in report.member_indices],
            "cardinality": report.cardinality,
            "method": report.method.value,
            "bound": _json_int(syzygy_bound(field, config.n)),
            "within_bound": report.cardinality <= syzygy_bound(field, config.n),
        }
        _emit(config, _json(doc))
        return 0
    delta_inv = 8 if config.delta_inv is None else config.delta_inv
    base = cell_tuple(REAL, real_scale(delta_inv), indices)
    curve = Curve.moment(config.n)
    report = syzygy_set_real(curve, base, epsilon=config.epsilon,
                             grid_step=config.grid_step)
    bound = bounds_mod.bezout_syzygy_bound(curve, REAL)
    doc = {
        "schema": SCHEMA, "command": "syzygy", "mode": "single",
        "field": "real", "n": config.n, "delta": f"1/{delta_inv}",
        "base": list(base.indices),
        "epsilon": str(report.epsilon),
        "members": [list(ix) for ix in report.member_indices],
        "cardinality": report.cardinality,
        "method": report.method.value,
        "bound": _json_int(bound),
        "within_bound": report.cardinality <= bound,
    }
    _emit(config, _json(doc))
    return 0


def _n_values(config: RunConfig, default: int) -> tuple[int, ...]:
    """--N-list, or else the single --N (default when not given)."""
    if config.N_list and config.N is not None:
        raise ValueError("--N-list replaces --N")
    return config.N_list or (default if config.N is None else config.N,)


def cmd_vino(config: RunConfig) -> int:
    curve = Curve.moment(config.n)
    n_list = _n_values(config, 10)
    if config.fmt == "csv":
        if config.timing or config.method:
            raise ValueError("--timing and --method apply to the JSON count only")
        rows = asymptotic_report(config.n, n_list)
        lines = ["N,count,leading,residual,residual_over_N_pow_n_minus_1,method"]
        for r in rows:
            lines.append(f"{r.N},{r.count},{r.leading},{r.residual},"
                         f"{float(r.residual_ratio):.6f},{r.method.value}")
        _emit(config, "\n".join(lines) + "\n")
        return 0
    (N,) = n_list  # JSON is one count: --N-list writes CSV
    method = CountMethod(config.method) if config.method else None
    res = count_solutions(curve, config.n, N, method)
    doc = {
        "schema": SCHEMA, "command": "vino",
        "n": config.n, "N": N,
        "count": str(res.count),
        "method": res.method.value,
        "diagonal": str(diagonal_count(config.n, N)),
        "permutation_count": str(permutation_count(config.n, N)),
    }
    if config.timing:
        doc["elapsed_seconds"] = round(res.elapsed, 6)
    _emit(config, _json(doc))
    return 0


def cmd_bounds(config: RunConfig) -> int:
    field = _field_of(config)
    rows = bounds_mod.bounds_table(config.table, field, config.n_max)
    lines = ["name,n,field,value,formula"]
    for r in rows:
        fld = r.parameters.get("field", "-")
        val = f"{float(r.value):.10g}"
        lines.append(f"{r.name},{r.parameters['n']},{fld},{val},\"{r.formula}\"")
    _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_ratio(config: RunConfig) -> int:
    import math
    results = [{"N": N, "ratio": round(comb_ratio(config.n, N), 12)}
               for N in _n_values(config, 40)]
    doc = {
        "schema": SCHEMA, "command": "ratio",
        "n": config.n,
        "grid_step": "1/4",  # fixed: the ratio is exact, and the schema keeps the field
        "results": results,
        "limit": round(math.factorial(config.n) ** (1 / (2 * config.n)), 12),
    }
    _emit(config, _json(doc))
    return 0


def cmd_verify(config: RunConfig) -> int:
    results = verify_mod.run_suite(config.suite, seed=config.seed, trials=config.trials)
    if config.fmt == "json":
        doc = {
            "schema": SCHEMA, "command": "verify",
            "suite": config.suite, "seed": config.seed,
            "results": [{"suite": r.suite, "name": r.name, "passed": r.passed,
                         "detail": r.detail} for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _emit(config, _json(doc))
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.name}: {r.detail}"
                 for r in results]
        passed = sum(r.passed for r in results)
        lines.append(f"{passed}/{len(results)} checks passed")
        _emit(config, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 3


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _load_config_file(path: str) -> dict:
    """Minimal TOML-style key = value reader; flags always win."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            out[key.replace("-", "_")] = val.strip("'\"")
    return out


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
                        help="accepted for compatibility; every engine runs "
                             "single-threaded and output is identical at any value")
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
    sp.add_argument("--epsilon", type=_parse_fraction, default=None)
    sp.add_argument("--grid-step", type=_parse_fraction, default=None)

    sp = command("vino", "count Vinogradov-system solutions")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--N", type=int, default=None, help="default 10; not with --N-list")
    sp.add_argument("--N-list", type=_parse_int_list, default=(),
                    help="emit the asymptotic CSV table for these N")
    sp.add_argument("--method", choices=[m.value for m in CountMethod], default=None)
    sp.add_argument("--timing", action="store_true",
                    help="include elapsed seconds (breaks byte reproducibility)")

    sp = command("bounds", "tabulate the explicit constants")
    sp.add_argument("--table", choices=["theorem1", "bezout", "fewnomial",
                                        "refined", "wronskian"], default="theorem1")
    sp.add_argument("--field", choices=["padic", "real", "complex"], default="padic")
    sp.add_argument("--p", type=int, default=None, help="the prime over Q_p (default 5)")
    sp.add_argument("--n-max", type=int, default=5)

    sp = command("ratio", "atomic-comb norm ratio experiment")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--N", type=int, default=None, help="default 40; not with --N-list")
    sp.add_argument("--N-list", type=_parse_int_list, default=())

    sp = command("verify", "run the invariant suite")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--trials", type=int, default=None,
                    help="random draws per check; a usage error with a single "
                         "suite that draws none (vinogradov, bounds)")
    return parser


_INT_KEYS = {"p", "n", "s", "N", "n_max", "seed", "trials", "threads", "delta_inv"}
_BOOL_KEYS = {"scan", "timing"}
_FRACTION_KEYS = {"epsilon", "grid_step"}
_LIST_KEYS = {"tuple_indices", "N_list"}


def _coerce(key: str, val: str):
    if key in _INT_KEYS:
        return int(val)
    if key in _BOOL_KEYS:
        return val.lower() in ("1", "true", "yes")
    if key in _FRACTION_KEYS:
        return _parse_fraction(val)
    if key in _LIST_KEYS:
        return _parse_int_list(val)
    return val


_CLI_ALIASES = {"tuple": "tuple_indices", "format": "fmt"}


def parse_config(argv) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    values = vars(args)
    if args.config:
        explicit = set()
        for tok in argv:
            if tok.startswith("--"):
                name = tok[2:].split("=", 1)[0].replace("-", "_")
                explicit.add(_CLI_ALIASES.get(name, name))
        for key, val in _load_config_file(args.config).items():
            key = _CLI_ALIASES.get(key, key)
            if key not in values:
                raise ValueError(f"unknown config key {key!r}")
            if key in explicit:
                continue  # flags win
            values[key] = _coerce(key, val)
    values.pop("config", None)
    command = values["command"]
    formats = ["csv"] if command == "vino" and values["N_list"] else _FORMATS[command]
    values["fmt"] = values["fmt"] or formats[0]
    if values["fmt"] not in formats:
        raise ValueError(f"--format {values['fmt']}: {command} writes {' or '.join(formats)} here")
    return RunConfig(**{k: v for k, v in values.items() if v is not None})


_COMMANDS = {
    "syzygy": cmd_syzygy,
    "vino": cmd_vino,
    "bounds": cmd_bounds,
    "ratio": cmd_ratio,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[config.command](config)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
