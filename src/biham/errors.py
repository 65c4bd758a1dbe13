"""Exception hierarchy shared by all biham modules."""


class BihamError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BihamError):
    """Malformed input: bad syntax, unknown variable, non-skew table."""


class PoleAtPoint(BihamError):
    """A rational coefficient was evaluated on the zero locus of its denominator."""


class NotSkewCanonical(BihamError):
    """Elementary divisors of a skew pencil must pair up; odd multiplicity means corrupted input."""

    # raised by biham.pencil.decompose: p.to_json() of the integer pencil it failed on
    pencil = None


class InternalInconsistency(BihamError):
    """Two certified computation paths disagree; indicates a bug, not bad input."""

    # raised by biham.pencil.decompose: p.to_json() of the integer pencil it failed on
    pencil = None


class SamplingExhausted(BihamError):
    """Rejection sampling failed to find a generic point within its budget."""
