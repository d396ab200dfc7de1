"""Spans and counts around pebcert's public calls, kept in memory.

`Tracer.install()` replaces each wrapped public function by a wrapper in
every pebcert module that holds it, so calls made through `pebcert.cli`
(which imports the names directly) and calls between modules are traced
too.  Nothing inside `src/` changes.  A span is (name, start, end, parent,
field tag); counts are kept per phase.  `layer_metrics` turns one setup
phase and the timed passes into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import tracemalloc
from collections import Counter

import pebcert
from pebcert import cli, graphs, nullstellensatz, pebbling, search, strategies

MODULES = (pebcert, cli, graphs, nullstellensatz, pebbling, search, strategies)

# Field-split metrics: nullstellensatz timings carry the certificate's field.
SPLIT = ("compile", "verify", "verify_standard", "check_weights", "extract",
         "json_dump", "json_load")
FIELD_TAGS = ("gfp", "q")


def _field_tag(field):
    return "q" if field.is_rationals else "gfp"


def _field_of(position):
    """Tag from the field of the positional argument at `position`."""
    def tag(args):
        arg = args[position]
        return _field_tag(getattr(arg, "field", arg))
    return tag


def _verify_name(args):
    mode = args[1].mode
    return ("nullstellensatz.verify_standard" if mode == nullstellensatz.STANDARD_MODE
            else "nullstellensatz.verify")


def _moves(result):
    return len(result.moves)


def _cert_terms(result):
    return sum(q.num_monomials() for q in result.multipliers.values())


# (module, function, span name or a function of the positional arguments
# giving it, a function of the positional arguments giving the field tag,
# counter name, a function of the result giving the count).  Several
# functions share a span name; nested spans of one name count once.
WRAPS = (
    (graphs, "build_dag", "graphs.build", None, None, None),
    (graphs, "line", "graphs.build", None, None, None),
    (graphs, "pyramid", "graphs.build", None, None, None),
    (graphs, "bit_reversal", "graphs.build", None, None, None),
    (graphs, "carlson_savage", "graphs.build", None, None, None),
    (graphs, "single_sink_restriction", "graphs.build", None, None, None),
    (strategies, "strat_line_visiting", "strategies.build", None, "strategies.moves", _moves),
    (strategies, "strat_line_persistent", "strategies.build", None, "strategies.moves", _moves),
    (strategies, "strat_line_checkpoint", "strategies.build", None, "strategies.moves", _moves),
    (strategies, "strat_by_depth", "strategies.build", None, "strategies.moves", _moves),
    (strategies, "strat_carlson_savage", "strategies.build", None, "strategies.moves", _moves),
    (strategies, "strat_bit_reversal_small_space", "strategies.build", None,
     "strategies.moves", _moves),
    (strategies, "strat_bit_reversal_checkpoint", "strategies.build", None,
     "strategies.moves", _moves),
    (pebbling, "verify_strategy", "pebbling.verify", None, None, None),
    (pebbling, "replay", "pebbling.replay", None, "pebbling.moves_replayed", len),
    (pebbling, "save_strategy", "pebbling.json", None, None, None),
    (pebbling, "load_strategy", "pebbling.json", None, None, None),
    (search, "min_space", "search.min_space", None, "search.calls", None),
    (search, "min_time_within_space", "search.min_time", None, "search.calls", None),
    (search, "pareto", "search.pareto", None, "search.calls", None),
    (nullstellensatz, "compile_strategy", "nullstellensatz.compile", _field_of(2),
     "nullstellensatz.cert_terms", _cert_terms),
    (nullstellensatz, "verify", _verify_name, _field_of(1), None, None),
    (nullstellensatz, "config_graph", "nullstellensatz.config_graph", _field_of(1),
     "nullstellensatz.config_edges", lambda cg: len(cg.edges)),
    (nullstellensatz, "check_weights", "nullstellensatz.check_weights", _field_of(0), None, None),
    (nullstellensatz, "extract", "nullstellensatz.extract", _field_of(1), None, None),
    (nullstellensatz, "save_certificate", "nullstellensatz.json_dump", _field_of(0), None, None),
    (nullstellensatz, "load_certificate", "nullstellensatz.json_load", None, None, None),
    (cli, "cmd_tradeoff", "cli.tradeoff", None, None, None),
)

SEARCH_SPANS = ("search.min_space", "search.min_time", "search.pareto")


class Tracer:
    """Records spans and counts; optionally the tracemalloc peak of searches."""

    def __init__(self, clock):
        self.clock = clock  # the speed probe's clock
        self.spans = []  # [name, start, end, parent index, field tag]
        self.counts = Counter()
        self.phase_counts = {}
        self._stack = []
        self.track_memory = False
        self.peak_search_bytes = 0

    # -- recording

    def begin(self, name, tag=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, tag])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name):
        """Root span for one phase ("setup", "pass" or "memory"), with its own counts."""
        index = self.begin(name)
        self.counts = Counter()
        try:
            yield
        finally:
            self.end(index)
            self.phase_counts[index] = self.counts

    def _wrap(self, fn, span, tag_of, counter, count_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span(args) if callable(span) else span
            tag = tag_of(args) if tag_of else None
            measure = (tracer.track_memory and name in SEARCH_SPANS
                       and not tracemalloc.is_tracing())
            if measure:
                tracemalloc.start()
            index = tracer.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_search_bytes = max(tracer.peak_search_bytes, peak)
            if counter:
                tracer.counts[counter] += count_of(result) if count_of else 1
            if name == "search.min_time":
                tracer.counts["search.witness_moves"] += len(result[1].moves)
            if name.startswith("nullstellensatz.verify"):
                tracer.counts[f"{name}.terms.{tag}"] += result.size
            if name == "nullstellensatz.json_load":
                tracer.spans[index][4] = _field_tag(result.field)
            return result

        return wrapper

    def install(self):
        """Swap every wrapped function for its traced wrapper, everywhere it is bound."""
        for module, fname, span, tag_of, counter, count_of in WRAPS:
            original = getattr(module, fname)
            wrapper = self._wrap(original, span, tag_of, counter, count_of)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # -- reporting

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans,
                       "counts": {str(k): v for k, v in self.phase_counts.items()}}, fh)

    def layer_metrics(self, wall_per_pass: float, speed: float) -> dict:
        """Per-layer metrics: the setup phase plus the mean of the timed passes.

        Layer times are multiplied by `speed`, the speed probe's reading over
        the timed passes, like `wall_per_pass` (already scaled).  A layer
        time sums the spans of that name that are not nested inside another
        span of the same name; `cli.self_s` is `cli.tradeoff_s` minus the
        time its direct child spans cover.
        """
        spans = self.spans
        root_of, children = {}, {}
        for i, (_, _, _, parent, _) in enumerate(spans):
            root_of[i] = i if parent is None else root_of[parent]
            if parent is not None:
                children.setdefault(parent, []).append(i)
        passes = [i for i, s in enumerate(spans) if s[3] is None and s[0] == "pass"]
        weight = {i: 1.0 for i, s in enumerate(spans) if s[3] is None and s[0] == "setup"}
        weight.update({i: 1 / len(passes) for i in passes})

        times, self_times = Counter(), Counter()
        for i, (name, start, end, parent, tag) in enumerate(spans):
            w = weight.get(root_of[i]) if parent is not None else None
            if not w or self._nested(i):
                continue
            w *= speed
            times[name] += (end - start) * w
            if tag:
                times[f"{name}.{tag}"] += (end - start) * w
            if name == "cli.tradeoff":
                covered = sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))
                self_times[name] += (end - start - covered) * w

        counts = Counter()
        for root, w in weight.items():
            for key, value in self.phase_counts.get(root, {}).items():
                counts[key] += value * w
        counts = Counter({k: round(v, 6) for k, v in counts.items()})  # mean of equal passes

        out = {
            "graphs.build_s": ("s", times["graphs.build"]),
            "strategies.build_s": ("s", times["strategies.build"]),
            "strategies.moves": ("count", counts["strategies.moves"]),
            "pebbling.verify_s": ("s", times["pebbling.verify"]),
            "pebbling.moves_replayed": ("count", counts["pebbling.moves_replayed"]),
            "pebbling.json_s": ("s", times["pebbling.json"]),
            "search.min_space_s": ("s", times["search.min_space"]),
            "search.pareto_s": ("s", times["search.pareto"]),
            "search.calls": ("count", counts["search.calls"]),
            "search.witness_moves": ("count", counts["search.witness_moves"]),
            "search.peak_traced_mb": ("MiB", self.peak_search_bytes / 2**20),
        }
        for key in SPLIT:
            out[f"nullstellensatz.{key}_s"] = ("s", times[f"nullstellensatz.{key}"])
        out["nullstellensatz.cert_terms"] = ("count", counts["nullstellensatz.cert_terms"])
        out["nullstellensatz.config_edges"] = ("count", counts["nullstellensatz.config_edges"])
        out["nullstellensatz.verify_terms_per_s"] = ("1/s", self._rate(times, counts, FIELD_TAGS))
        for key in SPLIT:
            for tag in FIELD_TAGS:
                out[f"nullstellensatz.{key}_s.{tag}"] = (
                    "s", times[f"nullstellensatz.{key}.{tag}"])
        for tag in FIELD_TAGS:
            out[f"nullstellensatz.verify_terms_per_s.{tag}"] = (
                "1/s", self._rate(times, counts, (tag,)))
        out["cli.tradeoff_s"] = ("s", times["cli.tradeoff"])
        out["cli.self_s"] = ("s", self_times["cli.tradeoff"])
        out["bench.traced_wall_s"] = ("s", wall_per_pass)
        out["bench.speed"] = ("ratio", speed)
        return {k: {"value": v, "unit": u} for k, (u, v) in out.items()}

    def _nested(self, index):
        """Whether a span lies inside another span of the same name."""
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    @staticmethod
    def _rate(times, counts, tags):
        terms = sum(counts[f"nullstellensatz.{mode}.terms.{tag}"]
                    for mode in ("verify", "verify_standard") for tag in tags)
        seconds = sum(times[f"nullstellensatz.{mode}.{tag}"]
                      for mode in ("verify", "verify_standard") for tag in tags)
        return terms / seconds if seconds else 0.0
