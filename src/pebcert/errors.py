"""Exception types shared across the package: one class per exit-code concern.

The message carries the detail, and the CLI prints `str(exc)`.  Exit codes:

- 1, invalid input: `GraphError` (graph files and lookups, a missing or
  non-sink designated sink), `ParamOutOfRange` (generator and strategy
  parameters), `PebblingError` and its `IllegalMoveAt` (moves, strategies
  and their files), `SearchError` (search arguments), `AlgebraError`
  (fields, coefficients and monomials) and `CertificateError` (certificates
  and their files; a certificate file's algebra error arrives as a
  `CertificateError` with the file name).
- 2, infeasible or too large: `SpaceInfeasible`, `InstanceTooLarge` and
  `TooManyVertices`.
- 3, a broken internal guarantee: `InternalConsistencyError`.
"""


class GraphError(ValueError):
    """Invalid graph construction or lookup, or a graph without the one
    designated sink an operation needs (see single_sink_restriction)."""


class ParamOutOfRange(ValueError):
    """Generator or strategy parameter outside its documented domain."""


class PebblingError(ValueError):
    """Illegal move or malformed strategy."""


class IllegalMoveAt(PebblingError):
    """Replay failed; step is the 1-based index of the offending move."""

    def __init__(self, step: int, cause: str):
        super().__init__(f"illegal move at step {step}: {cause}")
        self.step = step
        self.cause = cause


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
      deepest breadth-first layer finished before the stop.  Visiting
      counts the layers before the goal and then only the goal layer's sink
      configurations, not the whole goal layer.
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
    """A field that is not prime, or whose primality cannot be decided
    exactly, operands over different fields, a coefficient that is not
    exact, or a monomial that is a bare string or holds a name that is not a
    string."""


class CertificateError(ValueError):
    """Malformed certificate, one that does not refute its formula, or a
    strategy that cannot compile to one."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed identity failed; indicates a bug, not bad input."""
