"""The benchmark's workloads: set-up, the operations of one pass, and checks.

A workload is set up from the seed in `setup` and exposes `ops`, the
(name, callable) pairs one pass runs; each callable takes a `laps` function
it may call after each of its steps.  `check_output` checks one output of
the first pass against `reference` (which does not import pebcert) and
against the properties the paper's theorem gives; `summary` reduces an
output to what later passes must repeat; `check_passes` compares them.
pebcert functions are looked up on their modules at call time, so a tracer
installed before set-up sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from pebcert import cli, graphs, nullstellensatz, pebbling, strategies
from pebcert.algebra import Field

import reference as ref

# The seed picks the prime for GF(p) certificates from these.
PRIMES = (2, 3, 5, 7, 11, 13, 101, 257, 65537, 1000003)

HEADER = "space,optimal_time,theorem_bound,strategy_upper_time,cert_size,cert_degree"


def pebcert_graph(family, params):
    """The single-sink graph `pebcert tradeoff` builds for these flags."""
    if family == "line":
        return graphs.line(params["n"])
    if family == "pyramid":
        return graphs.pyramid(params["height"])
    if family == "bit-reversal":
        return graphs.bit_reversal(params["n"])
    full = graphs.carlson_savage(params["c"], params["r"])
    return graphs.single_sink_restriction(full, full.sink_names[0])


def graph_mismatch(dag, g: ref.RefGraph):
    """Empty string when pebcert's graph is the reference graph."""
    if set(dag.names) != set(g.names):
        return "vertex sets differ"
    if set(dag.edge_names()) != g.edges:
        return "edge sets differ"
    if dag.designated_sink_name != g.names[g.sink]:
        return "sinks differ"
    return ""


class TradeoffTables:
    """`pebcert tradeoff` tables run in-process through `pebcert.cli.main`."""

    searches = True

    def __init__(self, tables):
        self.tables = tables

    def setup(self, seed, out_dir):
        rng = random.Random(seed)
        prime = rng.choice(PRIMES)
        order = list(self.tables)
        rng.shuffle(order)
        self.expected = json.loads(ref.EXPECTED_PATH.read_text())["tables"]
        self.graphs, self.table_of, self.ops = {}, {}, []
        for table in order:
            key = ref.table_key(table)
            self.table_of[key] = table
            self.graphs[key] = pebcert_graph(table["family"], table["params"])
            argv = ["tradeoff", "--family", table["family"]]
            for name, value in table["params"].items():
                argv += [f"--{name}", str(value)]
            argv += ["--game", table["game"]]
            if table.get("flavor"):
                argv += ["--flavor", table["flavor"]]
            if table.get("smax") is not None:
                argv += ["--smax", str(table["smax"])]
            self.ops.append((key, self._runner(argv + ["--field", str(prime)])))

    @staticmethod
    def _runner(argv):
        def run(laps):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"pebcert {' '.join(argv)} exited {code}")
            return out.getvalue()
        return run

    def summary(self, output):
        return output

    def check_passes(self, summaries):
        errors = []
        for table in self.tables:
            key = ref.table_key(table)
            mismatch = graph_mismatch(self.graphs[key],
                                      ref.family_graph(table["family"], table["params"]))
            if mismatch:
                errors.append(f"{key}: graph: {mismatch}")
            done = summaries.get(key, [])
            if any(o != done[0] for o in done):
                errors.append(f"{key}: passes printed different tables")
        return errors

    def check_output(self, key, text):
        table = self.table_of[key]
        lines = text.strip().split("\n")
        if lines[0] != HEADER:
            return [f"header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        expected = self.expected[key]
        got = [[int(r[0]), int(r[1])] for r in rows]
        if got != expected["rows"]:
            return [f"rows {got} != reference {expected['rows']}"]
        errors = []
        times = [t for _, t in got]
        if any(b > a for a, b in zip(times, times[1:])):
            errors.append("time grows with space")
        visiting = table.get("flavor") == ref.VISITING
        standard = dict(map(tuple, expected.get("standard", [])))
        for r in rows:
            space, time = int(r[0]), int(r[1])
            bound, upper, size, degree = r[2:]
            if space in standard and time < standard[space]:
                errors.append(f"s={space}: reversible {time} < standard {standard[space]}")
            if visiting:
                if time % 2:
                    errors.append(f"s={space}: odd visiting time {time}")
                if size != str(time + 1) or degree != str(space):
                    errors.append(f"s={space}: cert size {size!r} degree {degree!r}")
            elif size or degree:
                errors.append(f"s={space}: unexpected certificate columns")
            if upper and int(upper) < time:
                errors.append(f"s={space}: strategy upper time {upper} < optimum {time}")
            if table["family"] == "cs":
                if not bound or int(bound) > time:
                    errors.append(f"s={space}: theorem bound {bound!r} > optimum {time}")
            elif bound:
                errors.append(f"s={space}: unexpected theorem bound")
        return errors


# name, family flags, strategy constructor and its arguments, and for each field
# (GF(p) and Q) whether the round trip runs check_weights
CERT_INSTANCES = (
    ("br16", "bit-reversal", {"n": 16}, "strat_bit_reversal_small_space", (16,),
     {"gfp": True, "q": True}),
    ("cs331", "cs", {"c": 3, "r": 3}, "strat_carlson_savage", (3, 3, 1),
     {"gfp": True, "q": True}),
    ("cs431", "cs", {"c": 4, "r": 3}, "strat_carlson_savage", (4, 3, 1),
     {"gfp": False}),
)


class CertRoundtrip:
    """Compile, save, load, verify (two modes), weigh and extract certificates."""

    searches = False

    def setup(self, seed, out_dir):
        prime = random.Random(seed).choice(PRIMES)
        fields = {"gfp": Field.prime(prime), "q": Field.rationals()}
        self.out_dir = out_dir
        self.instances, self.ops = {}, []
        for name, family, params, constructor, args, weigh in CERT_INSTANCES:
            dag = pebcert_graph(family, params)
            strategy = getattr(strategies, constructor)(*args)
            path = out_dir / f"{name}.strategy.json"
            pebbling.save_strategy(strategy, path)
            self.instances[name] = (family, params, dag, nullstellensatz.pebbling_formula(dag),
                                    strategy, path)
            for tag, run_weights in weigh.items():
                self.ops.append((f"{name}/{tag}",
                                 self._runner(name, tag, fields[tag], run_weights)))

    def _runner(self, name, tag, field, run_weights):
        _, _, dag, formula, _, strategy_path = self.instances[name]
        cert_path = self.out_dir / f"{name}-{tag}.cert.json"
        extracted_path = self.out_dir / f"{name}-{tag}.extracted.json"
        ns = nullstellensatz

        def run(laps):
            strategy = pebbling.load_strategy(strategy_path)
            pebbling.verify_strategy(dag, strategy)
            laps("load_strategy")
            cert = ns.compile_strategy(dag, strategy, field)
            laps("compile")
            report = ns.verify(formula, cert)
            laps("verify")
            ns.save_certificate(cert, cert_path)
            laps("save")
            loaded = ns.load_certificate(cert_path)
            laps("load")
            standard = ns.verify(formula, ns.Certificate(field, ns.STANDARD_MODE,
                                                         loaded.multipliers))
            laps("verify_standard")
            weights = None
            if run_weights:
                weights = ns.check_weights(ns.config_graph(dag, loaded))
                laps("check_weights")
            pebbling.save_strategy(ns.extract(dag, loaded), extracted_path)
            laps("extract")
            extracted = pebbling.load_strategy(extracted_path)
            metrics = pebbling.verify_strategy(dag, extracted)
            laps("load_extracted")
            return {"cert": cert, "loaded": loaded, "report": report,
                    "standard": standard, "weights": weights, "extracted": extracted,
                    "metrics": metrics, "cert_path": cert_path}
        return run

    def summary(self, output):
        """What later passes must repeat, kept small: every pass's summary is
        held until the run ends, so a large one would make `peak_rss_mb`
        grow with the number of passes."""
        weights = output["weights"]
        return (output["report"].valid, output["report"].size, output["report"].degree,
                output["standard"].valid, output["standard"].size,
                None if weights is None else weights.ok,
                hash(output["extracted"].moves), output["metrics"])

    def check_passes(self, summaries):
        errors = []
        for name, (family, params, dag, *_) in self.instances.items():
            mismatch = graph_mismatch(dag, ref.family_graph(family, params))
            if mismatch:
                errors.append(f"{name}: graph: {mismatch}")
        for op, done in summaries.items():
            if any(o != done[0] for o in done):
                errors.append(f"{op}: passes gave different results")
        return errors

    def check_output(self, op, out):
        family, params, _, _, strategy, _ = self.instances[op.split("/")[0]]
        g = ref.family_graph(family, params)
        errors = []
        report = out["report"]
        if not report.valid:
            errors.append("compiled certificate does not verify")
        field = out["cert"].field
        want = ref.telescoping_multipliers(g, [(m.op, m.vertex) for m in strategy.moves],
                                           None if field.is_rationals else field.p)
        got = {}
        for axiom, q in out["cert"].multipliers.items():
            if q.terms:
                got[axiom] = {g.mask_of(m): c for m, c in q.terms.items()}
        if got != want:
            errors.append("compiled multipliers differ from the telescoping certificate")
        with open(out["cert_path"]) as fh:
            poly, size, degree = ref.expand_certificate(g, json.load(fh))
        if poly != {0: 1}:
            errors.append(f"sum Q_a A_a expands to {len(poly)} terms, not 1")
        if (size, degree) != (report.size, report.degree):
            errors.append(f"JSON gives size {size} degree {degree}, verify "
                          f"{report.size} {report.degree}")
        compiled = {a: q.terms for a, q in out["cert"].multipliers.items()}
        loaded = {a: q.terms for a, q in out["loaded"].multipliers.items()}
        if compiled != loaded or out["cert"].field != out["loaded"].field:
            errors.append("loaded certificate differs from the compiled one")
        standard = out["standard"]
        if not standard.valid or standard.size != report.size:
            errors.append(f"standard mode: valid {standard.valid} size {standard.size}")
        if out["weights"] is not None and not out["weights"].ok:
            errors.append(f"check_weights: {len(out['weights'].violations)} violations")
        try:
            time, space = ref.replay(g, [(m.op, m.vertex) for m in out["extracted"].moves],
                                     ref.REVERSIBLE, ref.VISITING)
        except ValueError as exc:
            return errors + [f"extracted strategy: {exc}"]
        if time > report.size - 1 or space > report.degree:
            errors.append(f"extracted time {time} space {space} exceed size-1 "
                          f"{report.size - 1} or degree {report.degree}")
        if (out["metrics"].time, out["metrics"].space) != (time, space):
            errors.append("verify_strategy disagrees with the replay")
        return errors


WORKLOADS = {
    "rev-search": lambda: TradeoffTables(ref.REV_TABLES),
    "std-search": lambda: TradeoffTables(ref.STD_TABLES),
    "cert-roundtrip": CertRoundtrip,
}
