"""Command-line front end.

Subcommands: ``fan``, ``chow``, ``intersect``, ``mirror``, ``jinv``,
``verify``.  All inputs are flags (no configuration files or environment
variables), rationals are printed as exact ``p/q`` strings, and identical
invocations produce byte-identical output.  Exit codes: 0 ok,
1 verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .checks import DEGREE_MAX, run_verification
from .intersection import compute_w
from .series import j_from_w, j_modular, lagrange_oracle, mirror_w
from .toric import (
    build_fan,
    divisor_classes,
    max_cone_count,
    relation_check,
    sr_ideal,
    sr_ideal_factors,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

# Largest --order of mirror and jinv: jinv takes about 0.9 s at 100 (2 CPUs), cost ~ order^3.
ORDER_MAX = 100

# Largest --degree of fan, chow and intersect.  At 100 fan and chow take about 0.3 s
# and intersect --a 1 --b 0 about 4 s (1.1 s at 50; 2 CPUs).
DEGREE_OPTION_MAX = 100

# Largest |--a| and |--b| of intersect, enough for every pair the tests and checks
# use.  compute_w integrates from the end with the larger exponent, so at --degree 100
# the slowest accepted pairs are --a 1 --b 0 and --a 0 --b 1, about 4 s each, and a
# negative exponent takes about 0.25 s (2 CPUs).  Pairs with a + b != 1 give 0 in under 0.5 s.
INSERTION_EXPONENT_MAX = 3


class CommandResult(NamedTuple):
    """Deterministic, serializable outcome of one CLI invocation."""

    command: str
    parameters: dict[str, object]
    values: list[tuple[str, str]]
    status: str = "ok"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.parameters):
            lines.append(f"{key} = {self.parameters[key]}")
        if self.values:
            width = max(len(label) for label, _ in self.values)
            for label, value in self.values:
                lines.append(f"{label.ljust(width)}  {value}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "values": [[label, value] for label, value in self.values],
            "status": self.status,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def emit(self, fmt: str, out) -> None:
        out.write(self.to_json_text() if fmt == "json" else self.to_text())


def _usage_error(command: str, parameters: dict, message: str, fmt: str, out) -> int:
    result = CommandResult(command, parameters, [("error", message)], "usage_error")
    result.emit(fmt, out)
    return EXIT_USAGE


def _bound_problem(name: str, value: int, top: int) -> str | None:
    """The usage error of an option that must lie in ``1..top``, or None."""
    if value < 1:
        return f"{name} must be >= 1"
    return f"{name} must be <= {top}" if value > top else None


def _cmd_fan(args, out) -> int:
    params = {"degree": args.degree}
    if problem := _bound_problem("degree", args.degree, DEGREE_OPTION_MAX):
        return _usage_error("fan", params, problem, args.format, out)
    fan = build_fan(args.degree)
    values = [
        ("dimension", str(fan.dimension)),
        ("ray_count", str(fan.ray_count)),
        ("max_cones", str(max_cone_count(args.degree))),
        ("relation_check", "true" if relation_check(fan) else "false"),
    ]
    for label in fan.labels:
        values.append((f"ray {label}", "[" + ", ".join(map(str, fan.rays[label])) + "]"))
    for i, collection in enumerate(fan.primitive_collections):
        values.append((f"primitive_collection {i}", " ".join(collection)))
    CommandResult("fan", params, values).emit(args.format, out)
    return EXIT_OK


def _cmd_chow(args, out) -> int:
    params = {"degree": args.degree}
    if problem := _bound_problem("degree", args.degree, DEGREE_OPTION_MAX):
        return _usage_error("chow", params, problem, args.format, out)
    d = args.degree
    values = []
    gens = sr_ideal(d)
    for i, (poly, factors) in enumerate(zip(gens, sr_ideal_factors(d))):
        pretty = " * ".join(
            f"({form.render('H')})" if mult == 1 else f"({form.render('H')})^{mult}"
            for form, mult in factors
        )
        values.append((f"generator {i} factors", pretty))
        values.append((f"generator {i} expanded", poly.render("H")))
    classes = divisor_classes(d)
    for label in build_fan(d).labels:
        values.append((f"class {label}", classes[label].render("H")))
    CommandResult("chow", params, values).emit(args.format, out)
    return EXIT_OK


def _cmd_intersect(args, out) -> int:
    params = {"degree": args.degree, "a": args.a, "b": args.b}
    if problem := _bound_problem("degree", args.degree, DEGREE_OPTION_MAX):
        return _usage_error("intersect", params, problem, args.format, out)
    if max(abs(args.a), abs(args.b)) > INSERTION_EXPONENT_MAX:
        return _usage_error("intersect", params,
                            f"|a| and |b| must be <= {INSERTION_EXPONENT_MAX}", args.format, out)
    value = compute_w(args.degree, args.a, args.b)
    CommandResult("intersect", params, [("w", str(value))]).emit(args.format, out)
    return EXIT_OK


def _cmd_mirror(args, out) -> int:
    params = {"order": args.order}
    if problem := _bound_problem("order", args.order, ORDER_MAX):
        return _usage_error("mirror", params, problem, args.format, out)
    values = [(f"w_{d}", str(c)) for d, c in enumerate(mirror_w(args.order), start=1)]
    CommandResult("mirror", params, values).emit(args.format, out)
    return EXIT_OK


def _cmd_jinv(args, out) -> int:
    params = {"order": args.order}
    if problem := _bound_problem("order", args.order, ORDER_MAX):
        return _usage_error("jinv", params, problem, args.format, out)
    w = mirror_w(args.order)
    composed = j_from_w(w)
    agree = composed == lagrange_oracle(w) == j_modular(args.order)
    values = [(f"j_{d}", str(c)) for d, c in enumerate(composed, start=1)]
    values.append(("routes_agree", "true" if agree else "false"))
    CommandResult("jinv", params, values).emit(args.format, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    params = {"degree_max": args.degree_max}
    if problem := _bound_problem("degree-max", args.degree_max, DEGREE_MAX):
        return _usage_error("verify", params, problem, args.format, out)
    if args.format == "json":
        emit = None
    else:
        def emit(line: str) -> None:
            out.write(line + "\n")
    ok, results = run_verification(args.degree_max, emit=emit)
    values = [
        (r.name, ("PASS" if r.ok else "FAIL") + f" expected={r.expected} actual={r.actual}")
        for r in results
    ]
    passed = sum(1 for r in results if r.ok)
    values.append(("summary", f"{passed}/{len(results)} checks passed"))
    status = "ok" if ok else "verification_failed"
    result = CommandResult("verify", params, values, status)
    if args.format == "json":
        result.emit("json", out)
    else:
        out.write(f"summary: {passed}/{len(results)} checks passed\n")
        out.write(f"status: {status}\n")
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimap",
        description="Exact intersection numbers of the quasi-map moduli of P(1,1,1,3) "
                    "and the coefficients of the j-invariant.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fan", help="rays and primitive collections of the degree-d fan")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help=f"1 <= D <= {DEGREE_OPTION_MAX}; output grows as D^2, about 0.3 s "
                        f"and 1.3 MB at D = {DEGREE_OPTION_MAX}")
    _add_format(p)
    p.set_defaults(handler=_cmd_fan)

    p = sub.add_parser("chow", help="intersection-ring ideal generators and divisor classes")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help=f"1 <= D <= {DEGREE_OPTION_MAX}; about 0.3 s at D = {DEGREE_OPTION_MAX}")
    _add_format(p)
    p.set_defaults(handler=_cmd_chow)

    p = sub.add_parser("intersect", help="the two-point number w(O_{z^a} O_{z^b})_{0,d}")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help=f"1 <= D <= {DEGREE_OPTION_MAX}; at D = {DEGREE_OPTION_MAX} "
                        "about 4 s for --a 1 --b 0 or --a 0 --b 1, the slowest accepted "
                        "pairs, and 0.2 s for --a -2 --b 3 (0.15 s at D = 5)")
    p.add_argument("--a", type=int, required=True, metavar="A",
                   help=f"exponent of z_0, |A| <= {INSERTION_EXPONENT_MAX}")
    p.add_argument("--b", type=int, required=True, metavar="B",
                   help=f"exponent of z_D, |B| <= {INSERTION_EXPONENT_MAX}")
    _add_format(p)
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("mirror", help="mirror-map coefficients w_1..w_N")
    p.add_argument("--order", type=int, required=True, metavar="N", help=f"1 <= N <= {ORDER_MAX}")
    _add_format(p)
    p.set_defaults(handler=_cmd_mirror)

    p = sub.add_parser("jinv", help="j-invariant coefficients; routes_agree compares the "
                                    "composition, inversion and modular routes")
    p.add_argument("--order", type=int, required=True, metavar="N",
                   help=f"1 <= N <= {ORDER_MAX} (about 1 s at N = {ORDER_MAX})")
    _add_format(p)
    p.set_defaults(handler=_cmd_jinv)

    p = sub.add_parser("verify", help="run the full exact verification ladder")
    p.add_argument(
        "--degree-max", type=int, required=True, metavar="N",
        help=f"1 <= N <= {DEGREE_MAX} (about 5 s at N = {DEGREE_MAX}): the w-coefficient and "
             "period checks (one residue sweep each) and volume normalization run for every "
             "d <= N; the insertion identities for d <= min(N, 4), ideal annihilation, degree selection and order independence "
             "for d <= min(N, 3); the toric, series and property checks do not depend on N",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
