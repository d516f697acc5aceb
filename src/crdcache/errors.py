"""Exception types raised across the package.

Every error deliberately carries a human-readable message; the CLI prints
``str(exc)`` verbatim and exits nonzero.
"""


class CrdCacheError(Exception):
    """Base class for all errors raised by this package."""


# --- design validation -------------------------------------------------------

class EmptyBlock(CrdCacheError):
    """A block (or the block list itself) contains no points."""


class NonUniformBlockSize(CrdCacheError):
    """Blocks of a single design differ in cardinality."""


class PointOutOfRange(CrdCacheError):
    """A block references a point outside 1..v."""


class NotAPartitionOfBlocks(CrdCacheError):
    """The parallel classes do not partition the block index set."""


class ClassNotPartitionOfPoints(CrdCacheError):
    """Blocks grouped into one parallel class fail to tile the point set."""


class MalformedDesignJson(CrdCacheError):
    """A design JSON document lacks a key or has a value of the wrong type."""


class IndexOutOfRange(CrdCacheError):
    """An intersection order or similar index lies outside its valid range."""


class SizeCapExceeded(CrdCacheError):
    """An exhaustive enumeration would exceed the configured size cap."""


# --- finite fields and constructions -----------------------------------------

class NotAPrimePower(CrdCacheError):
    """The requested field or plane order is not a prime power."""


class UnsupportedDegree(CrdCacheError):
    """No built-in irreducible polynomial for the requested extension field."""


class NoConstructionAvailable(CrdCacheError):
    """No supported Hadamard matrix construction for the requested order."""


class UnknownExample(CrdCacheError):
    """Catalog example id outside the built-in range."""


class BadSpec(CrdCacheError):
    """A spec, table or family name, or an integer list does not parse: an
    unknown name, a missing, unknown or repeated key, or a non-integer value."""


class BadFamilyParameter(CrdCacheError):
    """A family table parameter lies outside the family's range."""


# --- scheme -------------------------------------------------------------------

class MuUndefinedForZ(CrdCacheError):
    """The requested number of caches per user has no cross intersection number."""


class BadDemandLength(CrdCacheError):
    """Demand vector length differs from the user count."""


class DemandOutOfRange(CrdCacheError):
    """A demanded file id lies outside 1..N."""


class InternalMuMismatch(CrdCacheError):
    """A delivery-time set invariant failed; the resolution is not a valid CRD."""


# --- simulator ----------------------------------------------------------------

class MissingSideInformation(CrdCacheError):
    """A decoder needed a subfile its caches do not hold."""


class IncompleteRecovery(CrdCacheError):
    """A user finished the delivery phase without all subfiles of its demand."""


# --- baselines ----------------------------------------------------------------

class NonIntegerCacheRedundancy(CrdCacheError):
    """K*M/N is not an integer, so no dedicated-cache baseline point exists."""


class NonIntegerSubpacketization(CrdCacheError):
    """The cyclic-overlap baseline subpacketization K(K-2z+2)/4 is not an integer."""
