"""Command-line front end: generators, solvers, certificates, trade-off tables.

Subcommands: gen, solve, cert (compile, verify, extract, multilinearize),
tradeoff.  A flag the chosen family, mode, game or action does not read is
invalid input, apart from `tradeoff --field` on a table without certificate
columns.  Exit codes: 0 success, 1 invalid input (including certificates
that fail verification), 2 infeasible, over the state budget, or a search on
more than 64 vertices, 3 internal consistency violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .algebra import _INTEGER, Field
from .errors import (
    InstanceTooLarge,
    InternalConsistencyError,
    ParamOutOfRange,
    SpaceInfeasible,
    TooManyVertices,
)
from .graphs import (
    _json_text,
    _write_text,
    bit_reversal,
    carlson_savage,
    line,
    load_graph,
    pyramid,
    single_sink_restriction,
)
from .nullstellensatz import (
    compile_strategy,
    extract,
    load_certificate,
    multilinearize,
    pebbling_formula,
    save_certificate,
    verify,
)
from .pebbling import (
    PERSISTENT,
    REVERSIBLE,
    STANDARD,
    VISITING,
    load_strategy,
    save_strategy,
    verify_strategy,
    visiting,
)
from .search import DEFAULT_STATE_BUDGET, cs_lower_bound, min_space, min_time_within_space, pareto
from .strategies import (
    _visit_fwd_prefix,
    strat_bit_reversal_checkpoint,
    strat_bit_reversal_small_space,
    strat_by_depth,
    strat_carlson_savage,
    strat_line_checkpoint,
    strat_line_persistent,
    strat_line_visiting,
)


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _refuse(args, flags, reader):
    """Raise a usage error for the first of `flags` set in `args`: `reader` does not read it."""
    for flag in sorted(flags):
        if getattr(args, flag) is not None:
            raise _UsageError(f"{reader} does not read --{flag.replace('_', '-')}")


def _game_flavor(args):
    """The game and flavor of a search command; reversible flavors default to visiting."""
    if args.game == STANDARD:
        _refuse(args, {"flavor"}, "--game standard")
        return STANDARD, None
    return REVERSIBLE, args.flavor or VISITING


def _parse_field(text: str) -> Field:
    if text.lower() in ("q", "rationals"):
        return Field.rationals()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid field {text!r}: expected a prime or 'rationals'")
    return Field.prime(int(text))


# family: (the flags its generator takes, in order, the generator)
_FAMILIES = {
    "pyramid": (("height",), pyramid),
    "line": (("n",), line),
    "cs": (("c", "r"), carlson_savage),
    "bit-reversal": (("n",), bit_reversal),
}


def _gen_graph(args):
    flags, generate = _FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        raise _UsageError(f"{args.family} needs " + " and ".join(f"--{f}" for f in flags))
    _refuse(args, {f for fs, _ in _FAMILIES.values() for f in fs} - set(flags), args.family)
    dag = generate(*values)
    if args.single_sink is not None:
        if not 1 <= args.single_sink <= len(dag.sinks):
            raise ParamOutOfRange(f"--single-sink must be in 1..{len(dag.sinks)}")
        dag = single_sink_restriction(dag, dag.sink_names[args.single_sink - 1])
    return dag


def _emit(text, out, what):
    """Write `text` to the file `out` and say so, or to stdout when there is no `out`."""
    if out:
        _write_text([text], out)
        print(f"wrote {out} ({what})")
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    dag = _gen_graph(args)
    formula = pebbling_formula(dag) if args.dimacs else None  # may raise: before any write
    _emit(_json_text(dag.to_json()), args.out, f"{len(dag)} vertices, {len(dag.edges)} edges")
    if formula:
        _emit(formula.to_dimacs(), args.dimacs, f"{len(formula.clauses)} clauses")
    return 0


# mode: the mode flags it reads; every other mode flag is refused
_MODES = {
    "min-space": {"witness"},
    "min-time": {"space", "witness"},
    "pareto": {"smax", "witness_dir", "out"},
}


def cmd_solve(args) -> int:
    _refuse(args, set().union(*_MODES.values()) - _MODES[args.mode], f"--mode {args.mode}")
    game, flavor = _game_flavor(args)
    dag = load_graph(args.graph)
    if args.mode == "pareto":
        points = pareto(dag, game, flavor, args.smax, args.state_budget)
        rows = ["space,time,witness_file"]
        for p in points:
            witness_file = ""
            if args.witness_dir:
                witness_file = str(Path(args.witness_dir) / f"witness_s{p.space}.json")
                save_strategy(p.witness, witness_file)
            rows.append(f"{p.space},{p.time},{witness_file}")
        _emit("\n".join(rows) + "\n", args.out, f"{len(points)} rows")
        return 0
    if args.mode == "min-space":
        label = "min-space"
        value, witness = min_space(dag, game, flavor, args.state_budget)
    else:
        if args.space is None:
            raise _UsageError("min-time needs --space")
        label = f"min-time within space {args.space}"
        value, witness = min_time_within_space(dag, game, flavor, args.space,
                                               args.state_budget)
    metrics = verify_strategy(dag, witness)
    print(f"{label}: {value}")
    print(f"witness: time {metrics.time} space {metrics.space}")
    if args.witness:
        save_strategy(witness, args.witness)
    return 0


def cmd_cert(args) -> int:
    dag = load_graph(args.graph)
    formula = pebbling_formula(dag)
    field = None if args.field is None else _parse_field(args.field)
    if args.action == "compile":
        cert = compile_strategy(dag, load_strategy(args.input), field or Field.prime(2))
    else:
        cert = load_certificate(args.input, field)
    if args.action == "verify":
        report = verify(formula, cert)
        print(f"valid: {str(report.valid).lower()} size: {report.size} "
              f"degree: {report.degree}")
        if report.valid:
            return 0
        print(f"residual: {report.failure_residual.summary()}", file=sys.stderr)
        return 1
    if args.action == "extract":
        strategy = extract(dag, cert)
        metrics = verify_strategy(dag, strategy)
        print(f"extracted: time {metrics.time} space {metrics.space}")
        if args.out:
            save_strategy(strategy, args.out)
        return 0
    if args.action == "multilinearize":
        cert = multilinearize(formula, cert)
    report = verify(formula, cert)  # compiled and multilinearized certificates are valid
    if not report.valid:
        raise InternalConsistencyError(f"{args.action} gave a certificate that does not "
                                       f"verify; residual: {report.failure_residual.summary()}")
    print(f"size: {report.size} degree: {report.degree}")
    if args.out:
        save_certificate(cert, args.out)
    return 0


def _upper_bound_candidates(args, dag, flavor):
    """Metrics on `dag` of the constructive strategies applicable to the family."""
    family = args.family
    out = []
    if family == "line":
        n = args.n
        if flavor == PERSISTENT:
            out.append(strat_line_persistent(n))
        else:
            out.append(strat_line_visiting(n))
            for k in range(1, max(1, (n - 1).bit_length()) + 1):
                out.append(strat_line_checkpoint(n, k))
    elif family == "pyramid":
        if flavor == PERSISTENT:
            out.append(strat_by_depth(dag))
        else:
            out.append(visiting(dag, _visit_fwd_prefix(dag, dag.designated_sink, 0)))
    elif family == "cs" and flavor != PERSISTENT:
        out.append(strat_carlson_savage(args.c, args.r, 1))
    elif family == "bit-reversal" and flavor != PERSISTENT:
        out.append(strat_bit_reversal_small_space(args.n))
        for k in range(1, max(1, (args.n - 1).bit_length()) + 1):
            out.append(strat_bit_reversal_checkpoint(args.n, k))
    return [verify_strategy(dag, strat) for strat in out]


def cmd_tradeoff(args) -> int:
    dag = _gen_graph(args)
    game, flavor = _game_flavor(args)
    field = _parse_field(args.field)

    points = pareto(dag, game, flavor, args.smax, args.state_budget)
    candidates = _upper_bound_candidates(args, dag, flavor)

    certify = game == REVERSIBLE and flavor == VISITING
    formula = pebbling_formula(dag) if certify else None
    rows = ["space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree"]
    for p in points:
        bound = ""
        if args.family == "cs":
            value = cs_lower_bound(args.c, args.r, p.space)
            bound = str(math.ceil(value))
        upper = [m.time for m in candidates if m.space <= p.space]
        upper_time = str(min(upper)) if upper else ""
        cert_size = cert_degree = ""
        if certify:
            metrics = verify_strategy(dag, p.witness)
            cert = compile_strategy(dag, p.witness, field)
            report = verify(formula, cert)
            if (not report.valid or report.size != p.time + 1
                    or report.degree != metrics.space):
                raise InternalConsistencyError(
                    f"certificate identity failed at space {p.space}: "
                    f"size {report.size} vs time+1 {p.time + 1}, "
                    f"degree {report.degree} vs space {metrics.space}")
            cert_size, cert_degree = str(report.size), str(report.degree)
        rows.append(f"{p.space},{p.time},{bound},{upper_time},{cert_size},{cert_degree}")
    _emit("\n".join(rows) + "\n", args.out, f"{len(points)} rows")
    return 0


def _add_family_flags(parser):
    parser.add_argument("--family", required=True,
                        choices=list(_FAMILIES))
    parser.add_argument("--height", type=int, help="pyramid height")
    parser.add_argument("--n", type=int, help="line length / permutation size")
    parser.add_argument("--c", type=int, help="CS spine count")
    parser.add_argument("--r", type=int, help="CS recursion depth")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of every `main` call: parsing leaves it unchanged."""
    parser = _Parser(prog="pebcert", description=__doc__)
    search = _Parser(add_help=False)
    search.add_argument("--game", choices=[STANDARD, REVERSIBLE], default=REVERSIBLE)
    search.add_argument("--flavor", choices=[VISITING, PERSISTENT],
                        help="reversible flavor (default visiting)")
    search.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET,
                        help="search state budget (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a graph family instance")
    _add_family_flags(p_gen)
    p_gen.add_argument("--single-sink", type=int,
                       help="restrict the graph to the ancestors of its k-th sink (1-based)")
    p_gen.add_argument("--out", help="graph JSON output path (default stdout)")
    p_gen.add_argument("--dimacs", help="also write the pebbling formula as DIMACS CNF")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="exact pebbling optima", parents=[search])
    p_solve.add_argument("graph", help="graph JSON file")
    p_solve.add_argument("--mode", choices=list(_MODES), required=True)
    p_solve.add_argument("--space", type=int, help="budget for min-time")
    p_solve.add_argument("--smax", type=int, help="largest pareto budget (default min space + 2)")
    p_solve.add_argument("--witness", help="witness strategy JSON output path")
    p_solve.add_argument("--witness-dir", help="directory for pareto witness files")
    p_solve.add_argument("--out", help="pareto CSV output path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("cert", help="compile, verify, extract, multilinearize")
    actions = p_cert.add_subparsers(dest="action", required=True, parser_class=_Parser)
    for action in ("compile", "verify", "extract", "multilinearize"):
        p_action = actions.add_parser(action)
        p_action.add_argument("graph", help="graph JSON file")
        p_action.add_argument("input", help="strategy JSON (compile) or certificate JSON")
        p_action.add_argument("--field",
                              help="prime p, or 'rationals' (compile defaults to 2; "
                                   "other actions default to the certificate's field)")
        if action != "verify":
            p_action.add_argument("--out", help="output path for the produced file")
    p_cert.set_defaults(func=cmd_cert)

    p_trade = sub.add_parser("tradeoff", help="space/time table with bound columns",
                             parents=[search])
    _add_family_flags(p_trade)
    p_trade.add_argument("--smax", type=int,
                         help="largest budget (default min space + 2)")
    p_trade.add_argument("--field", default="2",
                         help="field for the certificate columns (default 2)")
    p_trade.add_argument("--out", help="CSV output path (default stdout)")
    p_trade.set_defaults(func=cmd_tradeoff, single_sink=1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"error: {exc} (raise --state-budget to proceed)", file=sys.stderr)
        return 2
    except (SpaceInfeasible, TooManyVertices) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
