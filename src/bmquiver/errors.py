"""Exception types shared across the package."""


class BmQuiverError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BmQuiverError):
    """Structurally invalid map, object, edge, or chain."""


class ParseError(BmQuiverError):
    """Malformed instance encoding."""


class CompositionError(BmQuiverError):
    """Composition of maps whose endpoints do not match."""


class DegenerateDecompositionError(BmQuiverError):
    """Segment decomposition requested for a one-point object."""


class LabelRangeError(BmQuiverError):
    """Raw label index outside the admissible range."""


class UnresolvableLabelError(BmQuiverError):
    """Label resolution needed the crossing generator of a non-crossing object."""


class PairingConstructionError(BmQuiverError):
    """The pairing rules produced an invalid label on an edge."""


class IllDefinedComponentError(BmQuiverError):
    """Two generators of one quotient class have different component images."""
