"""Exception types shared across the toolkit."""


class PosetsiError(Exception):
    """Base class for all toolkit errors."""


class CycleError(PosetsiError):
    """Input relation contains a directed cycle, so no partial order exists."""


class InvalidExtension(PosetsiError):
    """Label array is not a linear extension of the poset."""


class MalformedPartition(PosetsiError):
    """Partition is not cover 2-chains plus at most one singleton, all in
    range and disjoint. A singleton that is not maximal is NotATableau."""


class NotATableau(PosetsiError):
    """Matching fails the domino-tableau ordering condition."""


class BadGoodSet(PosetsiError):
    """Relation set is missing the diagonal or a cover, or leaves the order."""


class HeightExceeded(PosetsiError):
    """Operation requires a poset of height at most 2."""


class VerificationError(PosetsiError):
    """Two independent computations of the same quantity disagree."""


class ResourceLimit(PosetsiError):
    """Configured enumeration or memory cap exceeded."""


class FormatError(PosetsiError):
    """Malformed text input (poset files, relation files, family specs)."""
