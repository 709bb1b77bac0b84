"""Exception types shared across the package."""


class QKSeidelError(Exception):
    """Base class for all package errors."""


class VerificationError(QKSeidelError):
    """An identity that the engine must certify failed to hold."""


class SizeLimitError(QKSeidelError):
    """A computation exceeded the term budget or the Weyl group enumeration limit."""


class UnsupportedProductError(QKSeidelError):
    """A product outside the partial multiplication calculus was requested."""
