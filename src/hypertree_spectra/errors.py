"""Exception hierarchy shared across the package."""


class HypertreeError(Exception):
    """Base class for all package errors."""


# -- construction / validation -----------------------------------------------

class NonUniform(HypertreeError):
    """Some edge has a size different from the uniformity k."""


class DuplicateEdge(HypertreeError):
    """Two edges are equal as vertex sets."""


class VertexOutOfRange(HypertreeError):
    """An edge references a vertex id outside 1..n."""


class RepeatedVertexInEdge(HypertreeError):
    """An edge lists the same vertex twice."""


class BadDimensions(HypertreeError):
    """Family parameters are inconsistent (e.g. n-1 not divisible by k-1)."""


class NotATree(HypertreeError):
    """Parent array / edge list does not describe a tree."""


class BadOverlap(HypertreeError):
    """s-path / s-cycle overlap s outside 1..k/2."""


class BadFormat(HypertreeError, ValueError):
    """A hypergraph file is not UTF-8 text in the 'k n m' format."""


class NotLinear(HypertreeError):
    """Operation requires a linear hypergraph (pairwise edge overlap <= 1)."""


# -- tensor / spectral -------------------------------------------------------

class DimensionMismatch(HypertreeError):
    """Vector length does not match the vertex count, or the graphs of one
    batched solve do not share (n, m, k)."""


class BadParameter(HypertreeError):
    """Solver parameter out of range (tol <= 0 or max_iter < 1), or a kind
    that is not a TensorKind."""


class TooLarge(HypertreeError):
    """Instance exceeds a configured size cap."""


class Disconnected(HypertreeError):
    """Operation requires a connected hypergraph."""


class NoConvergence(HypertreeError):
    """The solver, Newton-Noda or power iteration, exhausted max_iter;
    carries the last certified bracket (the widest one, for a batch) and
    the iteration it stopped at."""

    def __init__(self, message, lower=None, upper=None, iterations=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iterations = iterations


# -- transforms --------------------------------------------------------------

class InvalidSpec(HypertreeError):
    """Edge-move spec violates its preconditions against the hypergraph."""


class MultipleEdge(HypertreeError):
    """An edge move would create two identical edges."""


class PendentEdge(HypertreeError):
    """Edge-releasing requires a non-pendent edge."""


class NotPendentPaths(HypertreeError):
    """Requested pendent paths do not exist at the given vertex."""


# -- enumeration -------------------------------------------------------------

class IncompleteCensus(HypertreeError):
    """Census lacks an instance the verification logic requires."""
