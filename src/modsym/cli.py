"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 usage error (argparse), 1 computational error
with a machine-readable ``{"error": name, "detail": ...}`` record on
stdout.  CSV output prints floats with 12 significant digits and never
depends on the locale.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import homology as hom
from . import shiftspace, spectrum, thermo
from .contfrac import CFInput, SymbolSequence, decorate, encode_orbit
from .cosets import CosetTable, subgroup_invariants


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")] if text else []


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")] if text else []


def _emit(data, fmt: str, csv_rows=None) -> None:
    """Serialize one result.  ``csv_rows`` is (header, rows) when tabular."""
    if fmt == "json":
        print(json.dumps(data, sort_keys=True))
    elif fmt == "csv":
        out = io.StringIO()
        if csv_rows is not None:
            header, rows = csv_rows
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            out.write("key,value\n")
            for k, v in sorted(_flatten(data).items()):
                out.write(f"{k},{_fmt(v)}\n")
        sys.stdout.write(out.getvalue())
    else:
        _print_text(data)


def _flatten(data, prefix=""):
    flat = {}
    if isinstance(data, dict):
        for k, v in data.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            flat.update(_flatten(v, f"{prefix}{i}."))
    else:
        flat[prefix[:-1]] = data
    return flat


def _print_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt(v)}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _print_text(v, indent + 1)
            else:
                print(f"{pad}{_fmt(v)}")
    else:
        print(f"{pad}{_fmt(data)}")


def _config_from(args) -> thermo.NumericsConfig:
    kwargs = {}
    if args.cutoff is not None:
        kwargs["digit_cutoff"] = args.cutoff
    if args.degree is not None:
        kwargs["collocation_degree"] = args.degree
    if args.depth is not None:
        kwargs["cylinder_depth"] = args.depth
    if args.tol is not None:
        kwargs["tolerance"] = args.tol
    if args.tail is not None:
        kwargs["tail_mode"] = args.tail
    return thermo.NumericsConfig(**kwargs)


def _cf_input(args) -> CFInput:
    if args.rational:
        return CFInput(rational=Fraction(args.rational))
    if not args.period:
        raise ValueError("provide --rational P/Q or --period digits")
    return CFInput(
        sign=args.sign,
        preperiod=tuple(_parse_ints(args.preperiod or "")),
        period=tuple(_parse_ints(args.period)),
    )


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_cosets(args):
    table = CosetTable(args.level)
    return table.to_json_dict(), None


def _cmd_invariants(args):
    inv = subgroup_invariants(args.level)
    return {
        "kappa": inv.kappa, "n2": inv.n2, "n3": inv.n3,
        "nInf": inv.n_inf, "genus": inv.genus,
    }, None


def _cmd_graph(args):
    table = CosetTable(args.level)
    graph = shiftspace.build_graph(table)
    edges = [
        [src, dst, digit]
        for src, row in enumerate(graph.edges)
        for dst, digit in row
    ]
    return {
        "N": args.level,
        "vertices": graph.num_vertices,
        "edgeFamilies": graph.num_edge_families,
        "edges": edges,
    }, None


def _cmd_irreducible(args):
    table = CosetTable(args.level)
    report = shiftspace.check_finitely_irreducible(shiftspace.build_graph(table))
    data = {
        "irreducible": report.irreducible,
        "numComponents": report.num_components,
        "diameter": report.diameter,
    }
    if args.witnesses and report.irreducible:
        data["witnesses"] = report.witness_json()
    return data, None


def _cmd_homology(args):
    table = CosetTable(args.level)
    data = hom.build_homology(table)
    out = hom.classes_json(data)
    out["relativeDimension"] = data.presentation.dimension
    out["cuspidalDimension"] = data.cuspidal.dimension
    return out, None


def _cmd_encode(args):
    table = CosetTable(args.level)
    x = _cf_input(args)
    start = args.start if args.start is not None else table.identity_label()
    seq = encode_orbit(table, x, start, args.depth)
    return {
        "input": x.to_json_dict(),
        "entries": [[d, e] for d, e in seq.entries],
        "reps": [list(table.reps[e]) for _, e in seq.entries],
        "terminated": seq.terminated,
    }, None


def _cmd_pressure(args):
    level = thermo.build_level_data(args.level)
    cfg = _config_from(args)
    t = _parse_floats(args.t or "")
    out = {}
    if args.method in ("collocation", "both"):
        est = thermo.pressure_collocation(level, t, args.beta, cfg)
        out["collocation"] = {"value": est.value, "provenance": est.provenance}
    if args.method in ("cylinder", "both"):
        est = thermo.pressure_cylinder(level, t, args.beta, cfg)
        out["cylinder"] = {"value": est.value, "provenance": est.provenance}
    return out, None


def _cmd_beta(args):
    level = thermo.build_level_data(args.level)
    cfg = _config_from(args)
    t = _parse_floats(args.t or "")
    value = thermo.solve_beta(level, t, cfg)
    return {"beta": value, "provenance": cfg.provenance("collocation-root")}, None


def _cmd_moments(args):
    level = thermo.build_level_data(args.level)
    cfg = _config_from(args)
    mom = thermo.gibbs_moments(level, _parse_floats(args.t or ""), cfg)
    return {
        "meanJ": list(mom.mean_j),
        "meanI": mom.mean_i,
        "alpha": list(mom.alpha),
        "beta": mom.beta,
        "provenance": mom.provenance,
    }, None


def _spectrum_csv(points, cfg, two_g):
    header = (
        [f"t_{i+1}" for i in range(two_g)]
        + [f"alpha_{i+1}" for i in range(two_g)]
        + ["beta", "dimension", "method", "K", "m", "tol"]
    )
    rows = [
        list(p.t) + list(p.alpha)
        + [p.beta, p.dimension, "collocation",
           cfg.digit_cutoff, cfg.collocation_degree, cfg.tolerance]
        for p in points
    ]
    return header, rows


def _cmd_spectrum(args):
    level = thermo.build_level_data(args.level)
    cfg = _config_from(args)
    if args.alpha is not None:
        point = spectrum.legendre(level, _parse_floats(args.alpha), cfg)
        points = [point]
    else:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if count < 1:
            raise ValueError(f"grid count must be at least 1, got {count}")
        if args.direction:
            direction = np.array(_parse_floats(args.direction))
        else:
            direction = np.zeros(level.two_g)
            direction[:1] = 1.0
        grid = [s * direction for s in np.linspace(lo, hi, count)]
        points, errors = spectrum.spectrum_curve(level, grid, cfg)
        if errors:
            warnings = {
                str(i): {"error": type(exc).__name__, "detail": str(exc), "t": list(grid[i])}
                for i, exc in errors.items()
            }
            print(json.dumps({"warnings": warnings}), file=sys.stderr)
    data = {
        "points": [
            {
                "t": list(p.t), "alpha": list(p.alpha),
                "beta": p.beta, "dimension": p.dimension,
            }
            for p in points
        ],
        "provenance": cfg.provenance("collocation-spectrum"),
    }
    return data, _spectrum_csv(points, cfg, level.two_g)


def _cmd_periodic_symbol(args):
    level = thermo.build_level_data(args.level)
    digits = _parse_ints(args.digits)
    start = args.start if args.start is not None else level.table.identity_label()
    word = SymbolSequence(decorate(level.table, digits, start))
    val = spectrum.limiting_symbol_periodic(level, word)
    return {
        "word": [[d, e] for d, e in word.entries],
        "numerator": [[c.numerator, c.denominator] for c in val.numerator],
        "denominator": val.denominator,
        "value": list(val.value),
    }, None


_COMMANDS = {
    "cosets": _cmd_cosets,
    "invariants": _cmd_invariants,
    "graph": _cmd_graph,
    "irreducible": _cmd_irreducible,
    "homology": _cmd_homology,
    "encode": _cmd_encode,
    "pressure": _cmd_pressure,
    "beta": _cmd_beta,
    "moments": _cmd_moments,
    "spectrum": _cmd_spectrum,
    "periodic-symbol": _cmd_periodic_symbol,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsym",
        description="Coset-decorated continued fractions, homology symbols, "
        "pressure and multifractal spectra for Gamma_0(N).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--level", type=int, required=True, metavar="N")
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")

    numerics = argparse.ArgumentParser(add_help=False)
    numerics.add_argument("--cutoff", type=int, default=None, metavar="K")
    numerics.add_argument("--degree", type=int, default=None, metavar="m")
    numerics.add_argument("--depth", type=int, default=None, metavar="n")
    numerics.add_argument("--tol", type=float, default=None, metavar="eps")
    numerics.add_argument("--tail", choices=("zeta-tail", "truncate"), default=None)
    t_vector = argparse.ArgumentParser(add_help=False)
    t_vector.add_argument("--t", default=None, help="comma-separated t vector")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("cosets", parents=[common])
    sub.add_parser("invariants", parents=[common])
    sub.add_parser("graph", parents=[common])
    p = sub.add_parser("irreducible", parents=[common])
    p.add_argument("--witnesses", action="store_true",
                   help="include one witness word per vertex pair")
    sub.add_parser("homology", parents=[common])

    p = sub.add_parser("encode", parents=[common])
    p.add_argument("--depth", type=int, default=10, metavar="n", help="orbit steps to encode")
    p.add_argument("--rational", default=None, metavar="P/Q")
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--preperiod", default=None, help="comma-separated digits")
    p.add_argument("--period", default=None, help="comma-separated digits")
    p.add_argument("--start", type=int, default=None, metavar="E")

    p = sub.add_parser("pressure", parents=[common, numerics, t_vector])
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--method", choices=("collocation", "cylinder", "both"),
                   default="collocation")

    sub.add_parser("beta", parents=[common, numerics, t_vector])
    sub.add_parser("moments", parents=[common, numerics, t_vector])

    p = sub.add_parser("spectrum", parents=[common, numerics])
    p.add_argument("--grid", default="-0.1:0.1:11", metavar="lo:hi:count")
    p.add_argument("--direction", default=None,
                   help="comma-separated direction in t-space "
                   "(alpha is reported in homology coordinates, a fixed "
                   "linear reparametrization of period coordinates)")
    p.add_argument("--alpha", default=None,
                   help="invert for this alpha instead of sweeping t")

    p = sub.add_parser("periodic-symbol", parents=[common])
    p.add_argument("--digits", required=True, help="comma-separated signed digits")
    p.add_argument("--start", type=int, default=None, metavar="E")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data, csv_rows = _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - contract: exit 1 with error record
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    _emit(data, args.format, csv_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
