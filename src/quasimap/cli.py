"""Command-line front end.

Subcommands: ``fan``, ``chow``, ``intersect``, ``mirror``, ``jinv``,
``verify``.  All inputs are flags (no configuration files or environment
variables), rationals are printed as exact ``p/q`` strings, and identical
invocations produce byte-identical output.  :func:`main` checks every option
against its bound; each handler takes the options as keywords and only
computes.  Exit codes: 0 ok, 1 verification failed, 2 usage error.

Importing this module loads no computational module: each handler imports
the layers it runs when it is called, so ``jinv`` loads ``series`` alone and
``--help`` loads no layer.  Every option bound is stated here.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

ORDER_MAX = 100  # largest --order of mirror and jinv
DEGREE_OPTION_MAX = 100  # largest --degree of fan, chow and intersect
DEGREE_MAX = 60  # largest --degree-max of verify
# Largest |--a| and |--b| of intersect, enough for every pair the tests and checks use.
INSERTION_EXPONENT_MAX = 3
# Every integer option but --a and --b must lie in 1..BOUNDS[dest].
BOUNDS = {"degree": DEGREE_OPTION_MAX, "order": ORDER_MAX, "degree_max": DEGREE_MAX}


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
        import json

        doc = {"command": self.command, "parameters": self.parameters,
               "values": [[label, value] for label, value in self.values], "status": self.status}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def emit(self, fmt: str, out) -> None:
        out.write(self.to_json_text() if fmt == "json" else self.to_text())


def _usage_problem(params: dict[str, int]) -> str | None:
    """The usage error of ``params``, or None if every option is within its bound."""
    for key, top in BOUNDS.items():
        if key in params:
            name = key.replace("_", "-")
            if params[key] < 1:
                return f"{name} must be >= 1"
            if params[key] > top:
                return f"{name} must be <= {top}"
    if max(abs(params.get("a", 0)), abs(params.get("b", 0))) > INSERTION_EXPONENT_MAX:
        return f"|a| and |b| must be <= {INSERTION_EXPONENT_MAX}"
    return None


def _cmd_fan(degree: int) -> list[tuple[str, str]]:
    from .toric import build_fan, max_cone_count, relation_check

    fan = build_fan(degree)
    values = [
        ("dimension", str(fan.dimension)),
        ("ray_count", str(len(fan.rays))),
        ("max_cones", str(max_cone_count(degree))),
        ("relation_check", "true" if relation_check(fan) else "false"),
    ]
    for label, ray in fan.rays.items():
        values.append((f"ray {label}", "[" + ", ".join(map(str, ray)) + "]"))
    for i, collection in enumerate(fan.primitive_collections):
        values.append((f"primitive_collection {i}", " ".join(collection)))
    return values


def _cmd_chow(degree: int) -> list[tuple[str, str]]:
    from .toric import build_fan, divisor_classes, sr_ideal, sr_ideal_factors

    values = []
    for i, (poly, factors) in enumerate(zip(sr_ideal(degree), sr_ideal_factors(degree))):
        pretty = " * ".join(
            f"({form.render('H')})" if mult == 1 else f"({form.render('H')})^{mult}"
            for form, mult in factors
        )
        values.append((f"generator {i} factors", pretty))
        values.append((f"generator {i} expanded", poly.render("H")))
    classes = divisor_classes(degree)
    for label in build_fan(degree).rays:
        values.append((f"class {label}", classes[label].render("H")))
    return values


def _cmd_intersect(degree: int, a: int, b: int) -> list[tuple[str, str]]:
    from .intersection import compute_w

    return [("w", str(compute_w(degree, a, b)))]


def _cmd_mirror(order: int) -> list[tuple[str, str]]:
    from .series import mirror_w

    return [(f"w_{d}", str(c)) for d, c in enumerate(mirror_w(order), start=1)]


def _cmd_jinv(order: int) -> list[tuple[str, str]]:
    from .series import j_from_w, j_modular, lagrange_oracle, mirror_w

    w = mirror_w(order)
    composed = j_from_w(w)
    agree = composed == lagrange_oracle(w) == j_modular(order)
    values = [(f"j_{d}", str(c)) for d, c in enumerate(composed, start=1)]
    values.append(("routes_agree", "true" if agree else "false"))
    return values


def _cmd_verify(degree_max: int):
    from .checks import run_verification

    return run_verification(degree_max)


def _write_verification(params: dict[str, int], checks, fmt: str, out) -> int:
    """Collect the yielded ``checks``; text mode writes each line as it arrives."""
    results = []
    for r in checks:
        results.append(r)
        if fmt == "text":
            out.write(r.line() + "\n")
    passed = sum(r.ok for r in results)
    summary = f"{passed}/{len(results)} checks passed"
    status = "ok" if passed == len(results) else "verification_failed"
    if fmt == "json":
        values = [(r.name, r.line("json")) for r in results]
        CommandResult("verify", params, [*values, ("summary", summary)], status).emit(fmt, out)
    else:
        out.write(f"summary: {summary}\nstatus: {status}\n")
    return EXIT_OK if status == "ok" else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quasimap", description="Exact intersection numbers of the quasi-map "
                                     "moduli of P(1,1,1,3) and the coefficients of the j-invariant.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, help: str, **options: tuple[str, str]) -> None:
        """A subcommand with required integer ``--<dest>`` options, given as
        ``dest=(metavar, help)``, and ``--format``; a bounded option's help starts with its bound."""
        p = sub.add_parser(name, help=help)
        for dest, (metavar, text) in options.items():
            if dest in BOUNDS:
                text = f"1 <= {metavar} <= {BOUNDS[dest]}" + text
            p.add_argument("--" + dest.replace("_", "-"), type=int, required=True,
                           metavar=metavar, help=text)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
        p.set_defaults(handler=handler)

    timed = "; times in README.md, Measured times"
    add("fan", _cmd_fan, "rays and primitive collections of the degree-d fan",
        degree=("D", "; output grows as D^2" + timed))
    add("chow", _cmd_chow, "intersection-ring ideal generators and divisor classes",
        degree=("D", timed))
    add("intersect", _cmd_intersect, "the two-point number w(O_{z^a} O_{z^b})_{0,d}",
        degree=("D", timed),
        a=("A", f"exponent of z_0, |A| <= {INSERTION_EXPONENT_MAX}"),
        b=("B", f"exponent of z_D, |B| <= {INSERTION_EXPONENT_MAX}"))
    add("mirror", _cmd_mirror, "mirror-map coefficients w_1..w_N", order=("N", timed))
    add("jinv", _cmd_jinv, "j-invariant coefficients; routes_agree compares the "
                           "composition, inversion and modular routes", order=("N", timed))
    add("verify", _cmd_verify, "run the full exact verification ladder",
        degree_max=("N", ": the w-coefficient, period and volume checks run for every d <= N, "
                         "the others over fixed ranges (README.md, Command line)" + timed))
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """Parse ``argv``, check every option against its bound, and write the result to ``out``."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    command, fmt, handler = args.subcommand, args.format, args.handler
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "format", "handler")}
    if problem := _usage_problem(params):
        CommandResult(command, params, [("error", problem)], "usage_error").emit(fmt, out)
        return EXIT_USAGE
    values = handler(**params)
    if command == "verify":  # values: the CheckResults, yielded as the ladder runs
        return _write_verification(params, values, fmt, out)
    CommandResult(command, params, values).emit(fmt, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
