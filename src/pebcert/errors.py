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


class SearchError(ValueError):
    pass


class SpaceInfeasible(SearchError):
    pass


class InstanceTooLarge(SearchError):
    """State-count budget exceeded; pass a larger state_budget to proceed.

    `discovered` counts the configurations found when the search stopped.
    Every search checks the budget once per layer, so the count holds the
    whole layer that crossed it.
    - Reversible visiting and standard search from {} alone: `layer` is the
      deepest breadth-first layer finished before the stop.
    - Reversible persistent searches from {} and from {z} and counts both
      sides, both starts included: `layer` is the number of moves ruled
      out, the sum of the depths the two sides had finished: every
      persistent pebbling takes more moves than that.
    """

    def __init__(self, budget: int, discovered: int, layer: int, two_ended: bool = False):
        reach = (f"no persistent pebbling within {layer} moves" if two_ended
                 else f"layers 0..{layer} complete")
        super().__init__(f"state budget {budget} exceeded: {discovered} configurations "
                         f"discovered, {reach}")
        self.discovered = discovered
        self.layer = layer


class TooManyVertices(SearchError):
    """Searches hold a configuration in one 64-bit word, so they refuse
    graphs of more than 64 vertices before doing any work."""


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
