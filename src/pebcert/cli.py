"""Command-line front end: generators, solvers, certificates, trade-off tables.

Subcommands: gen, solve, cert, tradeoff.  Exit codes: 0 success, 1 invalid
input (including certificates that fail verification), 2 infeasible, over
the state budget, or a search on more than 64 vertices, 3 internal
consistency violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .algebra import Field
from .errors import (
    AlgebraError,
    CertificateError,
    GraphError,
    InstanceTooLarge,
    InternalConsistencyError,
    ParamOutOfRange,
    PebblingError,
    SearchError,
    SpaceInfeasible,
    TooManyVertices,
)
from .graphs import (
    bit_reversal,
    carlson_savage,
    line,
    load_graph,
    pyramid,
    save_graph,
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
    strat_bit_reversal_checkpoint,
    strat_bit_reversal_small_space,
    strat_by_depth,
    strat_carlson_savage,
    strat_line_checkpoint,
    strat_line_persistent,
    strat_line_visiting,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_field(text: str) -> Field:
    if text.lower() in ("q", "rationals"):
        return Field.rationals()
    return Field.prime(int(text))


def _gen_graph(args):
    family = args.family
    if family == "pyramid":
        if args.height is None:
            raise _UsageError("pyramid needs --height")
        return pyramid(args.height)
    if family == "line":
        if args.n is None:
            raise _UsageError("line needs --n")
        return line(args.n)
    if family == "bit-reversal":
        if args.n is None:
            raise _UsageError("bit-reversal needs --n")
        return bit_reversal(args.n)
    if family == "cs":
        if args.c is None or args.r is None:
            raise _UsageError("cs needs --c and --r")
        dag = carlson_savage(args.c, args.r)
        if args.single_sink is not None:
            if not 1 <= args.single_sink <= args.c:
                raise ParamOutOfRange(f"--single-sink must be in 1..{args.c}")
            dag = single_sink_restriction(dag, dag.sink_names[args.single_sink - 1])
        return dag
    raise _UsageError(f"unknown family {family!r}")


def cmd_gen(args) -> int:
    dag = _gen_graph(args)
    if args.out:
        save_graph(dag, args.out)
        print(f"wrote {args.out} ({len(dag)} vertices, {len(dag.edges)} edges)")
    else:
        json.dump(dag.to_json(), sys.stdout, indent=2)
        print()
    if args.dimacs:
        formula = pebbling_formula(dag)
        Path(args.dimacs).write_text(formula.to_dimacs())
        print(f"wrote {args.dimacs} ({len(formula.clauses)} clauses)")
    return 0


def cmd_solve(args) -> int:
    dag = load_graph(args.graph)
    game = args.game
    flavor = None if game == STANDARD else args.flavor
    if args.mode == "min-space":
        space, witness = min_space(dag, game, flavor, args.state_budget)
        metrics = verify_strategy(dag, witness)
        print(f"min-space: {space}")
        print(f"witness: time {metrics.time} space {metrics.space}")
        if args.witness:
            save_strategy(witness, args.witness)
        return 0
    if args.mode == "min-time":
        if args.space is None:
            raise _UsageError("min-time needs --space")
        time, witness = min_time_within_space(dag, game, flavor, args.space,
                                              args.state_budget)
        metrics = verify_strategy(dag, witness)
        print(f"min-time within space {args.space}: {time}")
        print(f"witness: time {metrics.time} space {metrics.space}")
        if args.witness:
            save_strategy(witness, args.witness)
        return 0
    # args.mode == "pareto", the last of the parser's choices
    if args.smax is None:
        raise _UsageError("pareto needs --smax")
    points = pareto(dag, game, flavor, args.smax, args.state_budget)
    rows = ["space,time,witness_file"]
    for p in points:
        witness_file = ""
        if args.witness_dir:
            witness_file = str(Path(args.witness_dir) / f"witness_s{p.space}.json")
            save_strategy(p.witness, witness_file)
        rows.append(f"{p.space},{p.time},{witness_file}")
    table = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(table)
        print(f"wrote {args.out} ({len(points)} rows)")
    else:
        sys.stdout.write(table)
    return 0


def cmd_cert(args) -> int:
    dag = load_graph(args.graph)
    formula = pebbling_formula(dag)
    field = _parse_field(args.field) if args.field else None
    if args.action == "compile":
        strategy = load_strategy(args.input)
        cert = compile_strategy(dag, strategy, field or Field.prime(2))
        report = verify(formula, cert)
        print(f"size: {report.size} degree: {report.degree}")
        if args.out:
            save_certificate(cert, args.out)
        return 0
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
    # args.action == "multilinearize", the last of the parser's choices
    out = multilinearize(formula, cert)
    report = verify(formula, out)
    print(f"size: {report.size} degree: {report.degree}")
    if args.out:
        save_certificate(out, args.out)
    return 0


def _upper_bound_candidates(args, dag, flavor):
    """Constructive strategies applicable to the family, measured on `dag`."""
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
        persistent = strat_by_depth(dag)
        if flavor == PERSISTENT:
            out.append(persistent)
        else:
            out.append(visiting(persistent.moves, dag.designated_sink_name))
    elif family == "cs" and flavor != PERSISTENT:
        out.append(strat_carlson_savage(args.c, args.r, 1))
    elif family == "bit-reversal" and flavor != PERSISTENT:
        out.append(strat_bit_reversal_small_space(args.n))
        for k in range(1, max(1, (args.n - 1).bit_length()) + 1):
            out.append(strat_bit_reversal_checkpoint(args.n, k))
    measured = []
    for strat in out:
        measured.append((verify_strategy(dag, strat), strat))
    return measured


def cmd_tradeoff(args) -> int:
    if args.family == "cs":
        args.single_sink = 1
    dag = _gen_graph(args)
    if dag.designated_sink is None:
        raise _UsageError("trade-off tables need a single-sink graph")
    game = args.game
    flavor = None if game == STANDARD else args.flavor
    field = _parse_field(args.field)

    points = pareto(dag, game, flavor, args.smax, args.state_budget)
    candidates = _upper_bound_candidates(args, dag, flavor)

    rows = ["space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree"]
    for p in points:
        bound = ""
        if args.family == "cs":
            value = cs_lower_bound(args.c, args.r, p.space)
            bound = str(math.ceil(value))
        upper = [m.time for m, _ in candidates if m.space <= p.space]
        upper_time = str(min(upper)) if upper else ""
        cert_size = cert_degree = ""
        if game == REVERSIBLE and flavor == VISITING:
            metrics = verify_strategy(dag, p.witness)
            cert = compile_strategy(dag, p.witness, field)
            report = verify(pebbling_formula(dag), cert)
            if (not report.valid or report.size != p.time + 1
                    or report.degree != metrics.space):
                raise InternalConsistencyError(
                    f"certificate identity failed at space {p.space}: "
                    f"size {report.size} vs time+1 {p.time + 1}, "
                    f"degree {report.degree} vs space {metrics.space}")
            cert_size, cert_degree = str(report.size), str(report.degree)
        rows.append(f"{p.space},{p.time},{bound},{upper_time},{cert_size},{cert_degree}")
    table = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(table)
        print(f"wrote {args.out} ({len(points)} rows)")
    else:
        sys.stdout.write(table)
    return 0


def _add_family_flags(parser):
    parser.add_argument("--family", required=True,
                        choices=["pyramid", "line", "cs", "bit-reversal"])
    parser.add_argument("--height", type=int, help="pyramid height")
    parser.add_argument("--n", type=int, help="line length / permutation size")
    parser.add_argument("--c", type=int, help="CS spine count")
    parser.add_argument("--r", type=int, help="CS recursion depth")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pebcert", description=__doc__)
    budget = _Parser(add_help=False)
    budget.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET,
                        help="search state budget (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a graph family instance")
    _add_family_flags(p_gen)
    p_gen.add_argument("--single-sink", type=int,
                       help="restrict a CS graph to the given sink (1-based)")
    p_gen.add_argument("--out", help="graph JSON output path (default stdout)")
    p_gen.add_argument("--dimacs", help="also write the pebbling formula as DIMACS CNF")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="exact pebbling optima", parents=[budget])
    p_solve.add_argument("graph", help="graph JSON file")
    p_solve.add_argument("--game", choices=[STANDARD, REVERSIBLE], default=REVERSIBLE)
    p_solve.add_argument("--flavor", choices=[VISITING, PERSISTENT], default=VISITING)
    p_solve.add_argument("--mode", choices=["min-space", "min-time", "pareto"],
                         required=True)
    p_solve.add_argument("--space", type=int, help="budget for min-time")
    p_solve.add_argument("--smax", type=int, help="largest budget for pareto")
    p_solve.add_argument("--witness", help="witness strategy JSON output path")
    p_solve.add_argument("--witness-dir", help="directory for pareto witness files")
    p_solve.add_argument("--out", help="pareto CSV output path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("cert", help="compile, verify, extract, multilinearize")
    p_cert.add_argument("action",
                        choices=["compile", "verify", "extract", "multilinearize"])
    p_cert.add_argument("graph", help="graph JSON file")
    p_cert.add_argument("input", help="strategy JSON (compile) or certificate JSON")
    p_cert.add_argument("--field",
                        help="prime p, or 'rationals' (compile defaults to 2; "
                             "other actions default to the certificate's field)")
    p_cert.add_argument("--out", help="output path for the produced file")
    p_cert.set_defaults(func=cmd_cert)

    p_trade = sub.add_parser("tradeoff", help="space/time table with bound columns",
                             parents=[budget])
    _add_family_flags(p_trade)
    p_trade.add_argument("--game", choices=[STANDARD, REVERSIBLE], default=REVERSIBLE)
    p_trade.add_argument("--flavor", choices=[VISITING, PERSISTENT], default=VISITING)
    p_trade.add_argument("--smax", type=int,
                         help="largest budget (default min space + 2)")
    p_trade.add_argument("--field", default="2",
                         help="field for the certificate columns (default 2)")
    p_trade.add_argument("--out", help="CSV output path (default stdout)")
    p_trade.set_defaults(func=cmd_tradeoff)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InstanceTooLarge as exc:
        print(f"error: {exc} (raise --state-budget to proceed)", file=sys.stderr)
        return 2
    except (SpaceInfeasible, TooManyVertices) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except (GraphError, PebblingError, ParamOutOfRange, AlgebraError,
            CertificateError, SearchError, OSError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
