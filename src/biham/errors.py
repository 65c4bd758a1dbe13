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


class UnsupportedPeriod(BihamError):
    """Periodic lattices need period >= 6 (k >= 3); the k = 2 bracket table is contradictory."""


class DegenerateFunction(BihamError):
    """The defining function of a 3-dimensional model has an identically zero partial."""


class DegenerateModel(BihamError):
    """The excluded locus of a constructed model covers its whole domain."""


class NotRegular(BihamError):
    """The shift vector of an argument-shift model must have nonzero quadratic invariant."""


class NotNormalizable(BihamError):
    """Normal-form reduction needs nonvanishing first partials at the base point."""
