"""Pebble games on DAGs and Nullstellensatz certificates for pebbling formulas."""

from .algebra import ExpPoly, Field, MultilinearPoly
from .graphs import (
    Dag,
    bit_reversal,
    build_dag,
    carlson_savage,
    graph_from_json,
    line,
    load_graph,
    pyramid,
    save_graph,
    single_sink_restriction,
)
from .nullstellensatz import (
    Certificate,
    ConfigGraph,
    PebblingFormula,
    VerifyReport,
    WeightReport,
    certificate_from_json,
    certificate_to_json,
    check_weights,
    compile_strategy,
    config_graph,
    extract,
    load_certificate,
    multilinearize,
    pebbling_formula,
    save_certificate,
    verify,
)
from .pebbling import (
    PERSISTENT,
    PLACE,
    REMOVE,
    REVERSIBLE,
    STANDARD,
    VISITING,
    Move,
    PebblingMetrics,
    Strategy,
    load_strategy,
    save_strategy,
    strategy_from_json,
    strategy_to_json,
    verify_strategy,
)
from .search import (
    DEFAULT_STATE_BUDGET,
    TradeoffPoint,
    cs_lower_bound,
    min_space,
    min_time_within_space,
    pareto,
)
from .strategies import (
    line_persistent_price,
    line_visiting_price,
    strat_bit_reversal_checkpoint,
    strat_bit_reversal_small_space,
    strat_by_depth,
    strat_carlson_savage,
    strat_line_checkpoint,
    strat_line_persistent,
    strat_line_visiting,
)

__version__ = "0.1.0"
