"""Exception types shared across the package."""


class GlassError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GlassError):
    """A structure was configured outside its supported parameter range."""


class PoolExhausted(GlassError):
    """Node pool cannot satisfy an allocation within its capacity limit."""


class InvalidArgument(GlassError):
    """A call was given an argument outside what it accepts."""


class GlassFull(GlassError):
    """Insert of a new key would exceed the map's configured maximum size."""


class PriceTooFar(GlassError):
    """Order-book query addressed a rank the bounded tree cannot reach."""


class NegativeAmount(GlassError):
    """An adjust would drive a price level's amount below zero (corrupt feed)."""


class MalformedEvent(GlassError):
    """A market-event line could not be parsed."""


class IntegrityError(GlassError):
    """A structure's internal invariants were found broken."""
