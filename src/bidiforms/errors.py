"""Exception hierarchy shared across the package, and the integer checks that raise it."""

from operator import index


class BidiformsError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInput(BidiformsError):
    """Malformed or out-of-contract input (dimension mismatch, bad indices, ...)."""


def json_int(value) -> int:
    """`value` itself if it is a JSON integer; InvalidInput for bool, float, str and the rest.

    Used where JSON is read, so that `1.9`, `true` or `"-1"` is refused instead
    of being truncated or coerced by `int()`.
    """
    if type(value) is not int:
        raise InvalidInput(f"expected an integer, got {value!r}")
    return value


def as_int(value) -> int:
    """`value` as an int by `operator.index`; InvalidInput for a float, str and the rest.

    Used where the Python constructors take integers, so that `1.9` is refused
    instead of being truncated by `int()`, as `json_int` refuses it in JSON.
    """
    try:
        return index(value)
    except TypeError:
        raise InvalidInput(f"expected an integer, got {value!r}") from None


def int_tuple(values) -> tuple:
    """The tuple of `as_int` of each of `values`, at the speed of one `map(index, ...)`."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple(map(as_int, values))  # raises at the first non-integer


class NotCoxRegular(BidiformsError):
    """A Gabrielov step would require a non-integral column update."""


class NotNonNegative(BidiformsError):
    """Operation requires a non-negative quadratic form."""


class NotTypeC(BidiformsError):
    """Operation requires a form of Dynkin type C."""


class NotIncidenceForm(BidiformsError):
    """The form cannot be realized as an incidence form of a bidirected graph."""


class NotPositive(BidiformsError):
    """Operation requires a positive incidence form (tree or unbalanced 1-tree)."""


class RadicalRoot(BidiformsError):
    """Reflection requested at a vector of value zero."""


class UnrepresentedWithinBound(BidiformsError):
    """No solution of q(x)=d was found within the search bound."""

    def __init__(self, d, bound):
        super().__init__(f"no representation of {d} found within coordinate bound {bound}")
        self.d = d
        self.bound = bound


class NotRepresented(UnrepresentedWithinBound):
    """q(x)=d has no integer solution at all, which the search has certified.

    A subclass, so that every caller of a bounded refusal still catches it;
    its message names no bound, and its `bound` is None.
    """

    def __init__(self, d):
        BidiformsError.__init__(self, f"{d} is not represented: q(x) = {d} has no integer solution")
        self.d = d
        self.bound = None


class GentlenessViolation(BidiformsError):
    """A quiver presentation violates the gentle-algebra conditions."""
