"""Exception types shared across the package.

Grouped by subsystem; the CLI maps them onto exit codes (bad input -> 1,
infeasible or over budget -> 2, broken internal guarantee -> 3).
"""


class GraphError(ValueError):
    """Invalid graph construction or lookup."""


class DuplicateVertex(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class UnhashableVertex(GraphError):
    """A vertex name that cannot key a dict, such as a JSON list."""


class CycleDetected(GraphError):
    pass


class NotASink(GraphError):
    """Designated sink has outgoing edges."""


class NotASinkVertex(GraphError):
    """Restriction target is not a sink of the graph."""


class NotPowerOfTwo(GraphError):
    pass


class NoDesignatedSink(GraphError):
    """Operation needs a graph with a single designated sink.

    Multi-sink graphs must go through single_sink_restriction first.
    """


class ParamOutOfRange(ValueError):
    """Generator or strategy parameter outside its documented domain."""


class PebblingError(ValueError):
    """Illegal move or malformed strategy."""


class IllegalPlacement(PebblingError):
    pass


class IllegalRemoval(PebblingError):
    pass


class IllegalMoveAt(PebblingError):
    """Replay failed; step is the 1-based index of the offending move."""

    def __init__(self, step: int, cause: str):
        super().__init__(f"illegal move at step {step}: {cause}")
        self.step = step
        self.cause = cause


class SinkNeverPebbled(PebblingError):
    pass


class BadFinalConfig(PebblingError):
    pass


class PrefixIllegal(PebblingError):
    pass


class SinkNotReached(PebblingError):
    pass


class SearchError(ValueError):
    pass


class SpaceInfeasible(SearchError):
    pass


class InstanceTooLarge(SearchError):
    """State-count budget exceeded; pass a larger state_budget to proceed.

    `discovered` counts the configurations found when the search stopped and
    `layer` is the deepest BFS layer it had discovered in full.
    """

    def __init__(self, budget: int, discovered: int, layer: int):
        super().__init__(f"state budget {budget} exceeded: {discovered} configurations "
                         f"discovered, layers 0..{layer} complete")
        self.discovered = discovered
        self.layer = layer


class AlgebraError(ValueError):
    pass


class FieldMismatch(AlgebraError):
    pass


class NotPrime(AlgebraError):
    pass


class ModulusTooLarge(AlgebraError):
    """Prime modulus beyond the range where the primality test is exact."""


class CertificateError(ValueError):
    pass


class UnknownAxiom(CertificateError):
    pass


class NotMultilinear(CertificateError):
    pass


class StrategyIllegal(CertificateError):
    """Certificate compilation needs a verifier-legal reversible strategy."""


class SinkNeverReached(CertificateError):
    pass


class CertificateInvalid(CertificateError):
    pass


class ResultInvalid(CertificateError):
    """Multilinearization input was not a valid refutation."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed identity failed; indicates a bug, not bad input."""


class NoPathToSink(InternalConsistencyError):
    """Valid certificates always admit a path to a sink configuration."""
