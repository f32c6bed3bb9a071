"""Command-line surface.

Subcommands: build, spectrum, fidelity, scan, certify, collapse, condition,
table. Graphs are described with the expression language from
:mod:`pstwalk.expr`. Exit codes: 0 success, 1 domain error (bad graph,
unusable partition, ...), 2 usage or expression error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Any, Optional

from .conditions import (
    cylindrical_no_pst_check,
    double_cone_pst_condition,
    glued_cone_pst_condition,
    p4_pst_condition,
)
from .errors import ExprError, PstwalkError

__all__ = ["main"]


class UsageError(Exception):
    pass


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if hasattr(value, "tolist"):  # a numpy array, or a numpy scalar (tolist is item)
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pst-out-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(payload: Any, out_path: Optional[str]) -> None:
    _emit(json.dumps(_jsonable(payload), indent=2) + "\n", out_path)


def _graph(expr_text: str):
    from .expr import eval_expr, parse_expr

    return eval_expr(parse_expr(expr_text))


def _time_factor(args: argparse.Namespace) -> float:
    return math.pi if getattr(args, "pi_units", False) else 1.0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# Each numeric command imports what it needs, so that the family conditions
# answer without loading numpy.

def _cmd_build(args: argparse.Namespace) -> int:
    from .graphs import serialize_graph

    _emit(serialize_graph(_graph(args.expr)), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .spectral import spectrum

    vals = spectrum(_graph(args.expr))
    if args.format == "csv":
        _emit("lambda\n" + "".join(f"{v:.17g}\n" for v in vals), args.out)
    else:
        _emit_json({"n": len(vals), "spectrum": [float(v) for v in vals]}, args.out)
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from .transfer import fidelity_series

    series = fidelity_series(
        _graph(args.expr), args.src, args.dst, args.tmax * _time_factor(args), args.steps
    )
    if args.format == "json":
        points = [
            {"t": float(t), "re": amp.real, "im": amp.imag, "abs": abs(amp)}
            for t, amp in zip(series.times, series.amplitudes)
        ]
        _emit_json(
            {"source": series.source, "target": series.target, "points": points},
            args.out,
        )
    else:
        _emit(series.to_csv(), args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .transfer import fidelity_band, max_fidelity_scan

    t_star, fmax = max_fidelity_scan(
        _graph(args.expr),
        args.src,
        args.dst,
        args.tmax * _time_factor(args),
        args.steps,
        args.refine,
    )
    _emit_json(
        {
            "source": args.src,
            "target": args.dst,
            "t_star": t_star,
            "fmax": fmax,
            "band": fidelity_band(fmax),
        },
        args.out,
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .transfer import pst_certificate

    cert = pst_certificate(_graph(args.expr), args.src, args.dst)
    payload = dataclasses.asdict(cert)
    if cert.time_exact is not None:
        payload["time_exact"] = dict(zip(("a", "b", "scale"), cert.time_exact))
    _emit_json(payload, args.out)
    return 0


def _cmd_collapse(args: argparse.Namespace) -> int:
    import numpy as np

    from .graphs import serialize_graph
    from .partitions import _collapse, format_cells

    # _collapse rejects the empty grid of --steps <= 0 and the NaN grid of an infinite --tmax
    with np.errstate(invalid="ignore"):
        t_grid = np.linspace(0.0, args.tmax * _time_factor(args), max(args.steps, 0))
    part, quot, deviation = _collapse(_graph(args.expr), args.src, args.dst, t_grid)
    if args.format == "json":
        _emit_json(
            {
                "cells": [list(c) for c in part.cells],
                "quotient": serialize_graph(quot.graph),
                "max_deviation": deviation,
            },
            args.out,
        )
    else:
        text = (
            format_cells(part)
            + "\n"
            + serialize_graph(quot.graph)
            + f"\nmax_deviation {deviation:.6e}\n"
        )
        _emit(text, args.out)
    return 0


def _product_condition(args: argparse.Namespace):
    """The weak / lex-clique / lex-std check of the products module."""
    from .products import (
        check_lexico_clique_condition,
        check_std_lexico_condition,
        check_weak_pst_condition,
    )

    g, h, t = _graph(args.g), _graph(args.h), args.time * _time_factor(args)
    if args.name == "weak":
        return check_weak_pst_condition(g, t, h)
    if args.name == "lex-clique":
        return check_lexico_clique_condition(g, h, t, args.m)
    return check_std_lexico_condition(g, h, t)


# condition name -> (required flags, check returning a report dataclass)
_CONDITIONS = {
    "weak": (("g", "h", "time"), _product_condition),
    "lex-clique": (("g", "h", "time"), _product_condition),
    "lex-std": (("g", "h", "time"), _product_condition),
    "doublecone": (
        ("lam0", "alpha"),
        lambda args: double_cone_pst_condition(args.lam0, args.b, args.alpha),
    ),
    "gluedcone": (
        ("n", "k", "gamma"),
        lambda args: glued_cone_pst_condition(args.n, args.k, args.gamma),
    ),
    "cylcone": (("n", "k", "m"), lambda args: cylindrical_no_pst_check(args.n, args.k, args.m)),
    "p4": (("w",), lambda args: p4_pst_condition(args.w, args.loop)),
}


def _cmd_condition(args: argparse.Namespace) -> int:
    required, check = _CONDITIONS[args.name]
    missing = ["--" + flag for flag in required if getattr(args, flag) is None]
    if missing:
        raise UsageError("missing required flag(s): " + ", ".join(missing))
    _emit_json(dataclasses.asdict(check(args)), args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .transfer import pst_table

    rows = pst_table()
    if args.format == "json":
        _emit_json([dataclasses.asdict(r) for r in rows], args.out)
    else:
        lines = []
        for r in rows:
            status = "ok" if r.matches else "MISMATCH"
            t_txt = f" t={r.time_num:.9g}" if r.time_num is not None else ""
            lines.append(
                f"{r.name:<45} expected={r.expected:<3} observed={r.observed:<3} "
                f"[{status}]{t_txt}  {r.note}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.matches for r in rows) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pst",
        description="Continuous-time quantum walk toolkit: build graphs, "
        "evaluate transfer fidelities, and certify perfect state transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *formats, default=None):
        sp.add_argument("--out", help="write output atomically to this path")
        if formats:
            sp.add_argument("--format", choices=formats, default=default)

    def pair_command(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--expr", required=True)
        sp.add_argument("--from", dest="src", type=int, required=True)
        sp.add_argument("--to", dest="dst", type=int, required=True)
        return sp

    sp = sub.add_parser("build", help="serialize a graph expression")
    sp.add_argument("--expr", required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_build)

    sp = sub.add_parser("spectrum", help="adjacency eigenvalues, descending")
    sp.add_argument("--expr", required=True)
    common(sp, "csv", "json", default="json")
    sp.set_defaults(handler=_cmd_spectrum)

    sp = pair_command("fidelity", "sampled transfer amplitudes")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--pi-units", action="store_true")
    common(sp, "csv", "json", default="csv")
    sp.set_defaults(handler=_cmd_fidelity)

    sp = pair_command("scan", "maximum |F| over [0, tmax]")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--steps", type=int, default=50001)
    sp.add_argument("--refine", type=int, default=60,
                    help="Newton step cap; 0 = grid maximum only")
    sp.add_argument("--pi-units", action="store_true")
    common(sp)
    sp.set_defaults(handler=_cmd_scan)

    sp = pair_command("certify", "exact perfect-transfer certificate")
    common(sp)
    sp.set_defaults(handler=_cmd_certify)

    sp = pair_command("collapse", "distance-partition quotient and fidelity deviation")
    sp.add_argument("--tmax", type=float, default=2.0 * math.pi)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--pi-units", action="store_true")
    common(sp, "text", "json", default="text")
    sp.set_defaults(handler=_cmd_collapse)

    sp = sub.add_parser("condition", help="named transfer sufficiency checks")
    sp.add_argument("name", choices=list(_CONDITIONS))
    sp.add_argument("--g", help="graph expression (weak / lex checks)")
    sp.add_argument("--h", help="inner graph expression (weak / lex checks)")
    sp.add_argument("--time", type=float, help="transfer time input")
    sp.add_argument("--m", type=int, help="clique order / middle size")
    sp.add_argument("--lam0", type=float, help="base top eigenvalue (doublecone)")
    sp.add_argument("--b", type=int, default=0, help="apex-apex weight (doublecone)")
    sp.add_argument("--alpha", type=float, help="cone scale (doublecone)")
    sp.add_argument("--n", type=int, help="layer order (gluedcone / cylcone)")
    sp.add_argument("--k", type=int, help="layer degree (gluedcone / cylcone)")
    sp.add_argument("--gamma", type=int, help="connection degree (gluedcone)")
    sp.add_argument("--w", type=float, help="middle edge weight (p4)")
    sp.add_argument("--loop", type=float, default=0.0, help="internal loop weight (p4)")
    sp.add_argument("--pi-units", action="store_true")
    common(sp)
    sp.set_defaults(handler=_cmd_condition)

    sp = sub.add_parser("table", help="bundled transfer-instances table")
    common(sp, "text", "json", default="text")
    sp.set_defaults(handler=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ExprError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PstwalkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
