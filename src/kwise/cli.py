"""Command-line front end.

Subcommands map one-to-one onto the library modules: construct, verify,
moment, bound, constant, sample, estimate, and table (a sweep comparing the
program optimum against the closed-form values).  Output is canonical JSON by
default; csv and table are flat renderings of the same data (`sample` writes
its rows itself, in the bytes `_emit` gives the row list).  All output is
deterministic: identical flags, including --seed, give identical bytes.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .bounds import haagerup_constant, interpolation_bound, sharp_pairwise_value
from .constructions import (independent_shape, independent_space, partition_shape, partition_space,
                           xor_shape, xor_space)
from .core import DIGITS, MAX_ENUMERATION, _frac_str, _value_json, sign_string
from .extremal import MAX_REDUCED_BITS, _validate, program_cost, solve_full, solve_reduced
from .independence import check_kwise, parity_visits
from .intervals import DEFAULT_PREC
from .moments import Weights, pth_moment, ratio_from_moment
from .sampler import Stream, StreamSpec, estimate_moment

# Caps on the inputs whose cost grows without bound, checked at parse time
# and set from measured time (2-core host, Python 3.11): at 1024 bits a
# Stirling-series haagerup bound takes about 2 s (17 s at 2048); a million
# xor draws take about 9 s; a 4096-cell table (even n up to 128, k up to 8)
# took 15-22 s.  A table is also capped by its programs' summed entries and
# objective bits as `extremal.program_cost` counts them, the bits at one
# reduced program's bound: that grid has 1.48 M entries, and the costliest
# measured, at n = 6817 and k = 10, take about 90 us each at p = 4 and
# 320 us at p = 4095/2048, so a grid at the budget takes minutes, not the
# hours 4096 such cells would.  The --n of an explicit law (construct,
# verify, moment) is capped at MAX_ENUMERATION, set from memory.
MAX_P_TERM = 4096  # numerator and denominator of --p
MAX_PRECISION_BITS = 1024
MAX_SAMPLES = 1_000_000
MAX_TABLE_CELLS = 4096  # |--n| * |--p| * |--k|, checked once all three are parsed
MAX_TABLE_ENTRIES = 1_500_000  # (k + 1)(n + 1) summed over the cells, checked next
# verify's parity sums visit every atom once per coordinate set of size 1..k,
# at 110-175 ns a visit (fresh processes, n = 12..19), so this bound on the
# visits is 15-25 s; independent n = 19, k = 2 (1e8 visits) took 13 s.  The
# --n cap bounds the law's memory, not this.
MAX_VERIFY_VISITS = 1 << 27

CONSTRUCTIONS = {
    "partition": partition_space,
    "xor": xor_space,
    "independent": independent_space,
}
# each law's (dimension, support size), after its builder's input checks
SHAPES = {
    "partition": partition_shape,
    "xor": xor_shape,
    "independent": independent_shape,
}


def _fraction(text: str) -> Fraction:
    """An order --p whose numerator and denominator are at most MAX_P_TERM
    in absolute value."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if max(abs(value.numerator), value.denominator) > MAX_P_TERM:
        raise argparse.ArgumentTypeError(
            f"numerator and denominator must be at most {MAX_P_TERM}, got {value}")
    return value


def _weights(text: str) -> Weights:
    try:
        return Weights.from_strings(text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_up_to(cap: int):
    """Parser of an integer in [1, cap]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(f"must be in [1, {cap}], got {value}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(s) for s in text.split(",")]


# -- rendering ---------------------------------------------------------------


def _cell(v) -> str:
    if isinstance(v, (dict, list)):
        return json.dumps(v)
    if v is None:
        return ""
    return str(v)


def _emit(data, fmt: str) -> None:
    """data is one dict or a list of row dicts sharing a schema."""
    if fmt == "json":
        print(json.dumps(data))
        return
    rows = [{"field": k, "value": v} for k, v in data.items()] if isinstance(data, dict) else data
    header = list(rows[0]) if rows else []
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            cells = [_cell(row.get(h)) for h in header]
            print(",".join(['"%s"' % v.replace('"', '""') if "," in v or '"' in v else v for v in cells]))
        return
    widths = [max(len(h), *(len(_cell(row.get(h))) for row in rows)) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(_cell(row.get(h)).ljust(w) for h, w in zip(header, widths)).rstrip())


# -- subcommands -------------------------------------------------------------


def _cmd_construct(args) -> dict:
    space = CONSTRUCTIONS[args.construct](args.n)
    return space.to_json()


def _cmd_verify(args) -> dict:
    dim, atoms = SHAPES[args.construct](args.n)
    if parity_visits(dim, atoms, args.k, MAX_VERIFY_VISITS) > MAX_VERIFY_VISITS:
        raise ValueError(f"check too large: more than {MAX_VERIFY_VISITS} parity-sum visits to atoms")
    return check_kwise(CONSTRUCTIONS[args.construct](args.n), args.k).to_json()


def _cmd_moment(args) -> dict:
    space = CONSTRUCTIONS[args.construct](args.n)
    a = args.a if args.a is not None else Weights.all_ones(space.n)
    result = pth_moment(space, a, args.p, prec=args.precision_bits)
    lo, hi = result.ratio.decimal_bounds(DIGITS)
    return {
        "p": _frac_str(result.p),
        "value": _value_json(result.value, args.precision_bits),
        "ratio": {"lo": lo, "hi": hi},
    }


def _cmd_bound(args) -> dict:
    prec = args.precision_bits
    if args.kind == "haagerup":
        if args.p is None:
            raise ValueError("haagerup bound needs --p")
        iv = haagerup_constant(args.p, prec)
    elif args.kind == "sharp":
        if args.n is None or args.p is None:
            raise ValueError("sharp value needs --n and --p")
        iv = sharp_pairwise_value(args.n, args.p, prec)
    else:
        if args.n is None or args.p is None or args.k is None:
            raise ValueError("interpolation bound needs --n, --p and --k")
        iv = interpolation_bound(args.n, args.p, args.k, prec)
    return {"kind": args.kind, "value": _value_json(iv, prec)}


def _cmd_constant(args) -> dict:
    prec = args.precision_bits
    if args.full:
        sol = solve_full(args.n, args.p, args.k, a=args.a, prec=prec)
        a = args.a if args.a is not None else Weights.all_ones(args.n)
        l2sq = a.l2sq
    else:
        if args.a is not None:
            raise ValueError("--a applies to the unreduced program only (use --full)")
        sol = solve_reduced(args.n, args.p, args.k, prec=prec, check_unique=True)
        l2sq = Fraction(args.n)
    ratio = ratio_from_moment(sol.optimal_value, args.p, l2sq, prec)
    lo, hi = ratio.decimal_bounds(DIGITS)
    out = {
        "value": _value_json(sol.optimal_value, prec),
        "ratio": {"lo": lo, "hi": hi},
        "optimizer": sol.optimizer.to_json(),
        "unique": sol.unique,
        "certificate_ok": sol.certificate_ok,
    }
    if sol.note:
        out["note"] = sol.note
    return out


def _cmd_sample(args) -> None:
    """Writes the rows as they are drawn, 4096 to a write, so that memory
    stays flat in the sample count, in the bytes `_emit` gives the row list."""
    stream = Stream(StreamSpec(args.kind, args.n, args.seed))
    n, draws, samples = stream.spec.dimension, stream.draws, args.samples
    first = sign_string(n, next(draws))  # a dimension too wide to draw fails here, before any output
    if args.format == "json":
        head, row, sep, tail = "[", '{"draw": %d, "signs": "%s"}', ", ", "]\n"
    elif args.format == "csv":
        head, row, sep, tail = "draw,signs\n", "%d,%s", "\n", "\n"
    else:
        width = max(len("draw"), len(str(samples - 1)))
        head, row, sep, tail = "draw".ljust(width) + "  signs\n", f"%-{width}d  %s", "\n", "\n"
    write = sys.stdout.write
    write(head + row % (0, first))
    row = sep + row  # every later row follows a separator
    for start in range(1, samples, 4096):
        rows = zip(range(start, min(start + 4096, samples)), draws)
        write("".join([row % (i, sign_string(n, bits)) for i, bits in rows]))
    write(tail)


def _cmd_estimate(args) -> dict:
    spec = StreamSpec(args.kind, args.n, args.seed)
    est = estimate_moment(spec, args.a, args.p, args.samples)
    return {"spec": spec.to_json(), "p": _frac_str(Fraction(args.p)), **est.to_json()}


def _table_cells(args) -> list[tuple[int, Fraction, int]]:
    """The grid's (n, p, k) cells that are solved, those with 1 <= k <= n,
    n first, then p, then k."""
    return [(n, p, k) for n in args.n for p in args.p for k in args.k if 1 <= k <= n]


def _cmd_table(args) -> list[dict]:
    prec = args.precision_bits
    cells = _table_cells(args)
    for n, p, k in cells:  # every cell is checked before any is solved
        _validate(n, p, k, full=False)
    # the constant depends on p alone; lower endpoint, so that the emitted
    # number stays a valid baseline
    haagerup = {}
    rows = []
    for n, p, k in cells:
        sol = solve_reduced(n, p, k, prec=prec)
        if p not in haagerup:
            haagerup[p] = haagerup_constant(p, prec).decimal_bounds(DIGITS)[0]
        ratio = ratio_from_moment(sol.optimal_value, p, Fraction(n), prec)
        ratio_lo, ratio_hi = ratio.decimal_bounds(DIGITS)
        row = {
            "n": n,
            "p": _frac_str(p),
            "k": k,
            "value": _value_json(sol.optimal_value, prec),
            "ratio_lo": ratio_lo,
            "ratio_hi": ratio_hi,
            "sharp": None,
            "interpolation": None,
            "haagerup": haagerup[p],
        }
        if n % 2 == 0 and k in (2, 3) and p >= 2:
            row["sharp"] = sharp_pairwise_value(n, p, prec).decimal_bounds(DIGITS)[1]
        if k % 2 == 0 and p >= k:
            row["interpolation"] = interpolation_bound(n, p, k, prec).decimal_bounds(DIGITS)[1]
        rows.append(row)
    return rows


# -- parser ------------------------------------------------------------------


@cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwise",
        description="k-wise independent sign vectors: constructions, moments, "
        "and extremal constants by exact linear programming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p = sub.add_parser("construct", help="build a named sample space")
    p.add_argument("--construct", choices=sorted(CONSTRUCTIONS), required=True)
    p.add_argument("--n", type=_int_up_to(MAX_ENUMERATION), required=True)
    fmt(p)

    p = sub.add_parser("verify", help="check k-wise independence of a construction")
    p.add_argument("--construct", choices=sorted(CONSTRUCTIONS), required=True)
    p.add_argument("--n", type=_int_up_to(MAX_ENUMERATION), required=True)
    p.add_argument("--k", type=int, required=True)
    fmt(p)

    p = sub.add_parser("moment", help="exact p-th moment of a weighted sign sum")
    p.add_argument("--construct", choices=sorted(CONSTRUCTIONS), required=True)
    p.add_argument("--n", type=_int_up_to(MAX_ENUMERATION), required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--a", type=_weights, help="comma-separated rational weights")
    fmt(p)

    p = sub.add_parser("bound", help="closed-form constants and bounds")
    p.add_argument("--kind", choices=("haagerup", "interpolation", "sharp"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=_fraction)
    p.add_argument("--k", type=int)
    fmt(p)

    p = sub.add_parser("constant", help="extremal moment over k-wise independent laws")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--full", action="store_true",
                   help="unreduced program over all laws, one variable per atom "
                   "(default: the exchangeable weight-class program)")
    p.add_argument("--a", type=_weights, help="weights for the unreduced program")
    fmt(p)

    p = sub.add_parser("sample", help="draw sign vectors from a streaming law")
    p.add_argument("--kind", choices=("partition", "xor", "independent"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_up_to(MAX_SAMPLES), default=1)
    fmt(p)

    p = sub.add_parser("estimate", help="Monte Carlo moment estimate")
    p.add_argument("--kind", choices=("partition", "xor", "independent"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--a", type=_weights)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_up_to(MAX_SAMPLES), default=10000)
    fmt(p)

    p = sub.add_parser("table", help="sweep (n, p, k) and compare against bounds")
    p.add_argument("--n", type=_int_list, default=[2, 4, 6, 8])
    p.add_argument("--p", type=_fraction_list, default=[Fraction(2), Fraction(4)])
    p.add_argument("--k", type=_int_list, default=[2])
    p.set_defaults(grid_error=p.error)  # for MAX_TABLE_CELLS and MAX_TABLE_ENTRIES, checked in run
    fmt(p)

    for name in ("moment", "bound", "constant", "table"):  # the subcommands that read it
        sub.choices[name].add_argument("--precision-bits", type=_int_up_to(MAX_PRECISION_BITS), default=DEFAULT_PREC)
    return parser


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "moment": _cmd_moment,
    "bound": _cmd_bound,
    "constant": _cmd_constant,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
    "table": _cmd_table,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "table":
            if len(args.n) * len(args.p) * len(args.k) > MAX_TABLE_CELLS:
                args.grid_error(f"the --n, --p and --k lists make more than {MAX_TABLE_CELLS} cells")
            costs = [program_cost(*cell) for cell in _table_cells(args)]
            if sum(rows * cols for rows, cols, _ in costs) > MAX_TABLE_ENTRIES:
                args.grid_error(f"the --n, --p and --k lists make programs of more than "
                                f"{MAX_TABLE_ENTRIES} entries in all")
            if sum(bits for *_, bits in costs) > MAX_REDUCED_BITS:
                args.grid_error(f"the --n, --p and --k lists make objectives of more than "
                                f"{MAX_REDUCED_BITS} bits in all")
    except SystemExit as exc:  # argparse handles usage/help printing
        return int(exc.code or 0)
    try:
        data = _DISPATCH[args.command](args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if data is not None:  # None: the subcommand wrote its own output
        _emit(data, args.format)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (kwise ... | head): point stdout at devnull,
        # so that the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
