"""Exception hierarchy shared across the toolkit.

The CLI maps these onto stable exit codes: usage problems exit 1,
validation/compatibility problems exit 2, I/O and transport problems exit 3.
"""


class AdapterKitError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(AdapterKitError):
    """Operands do not conform to a primitive's shape rule."""


class NonFiniteError(AdapterKitError):
    """A primitive produced NaN or Inf."""


class GradientError(AdapterKitError):
    """Backward pass called on an unusable loss (non-scalar or detached)."""


class UnknownAdapterError(AdapterKitError, KeyError):
    """Adapter name not present in the model's registry."""

    def __str__(self):  # KeyError quotes its message; keep it readable
        return self.args[0] if self.args else ""


class RegistryError(AdapterKitError):
    """Hub index is malformed or duplicated, or an archive contradicts its entry.

    Deleting an active adapter is not an error: it leaves the active stack.
    """


class CompatibilityError(AdapterKitError):
    """Adapter package or hub entry does not match the live model."""


class ChecksumError(AdapterKitError):
    """A digest recorded in a package, archive or hub entry does not match."""


class PackageFormatError(AdapterKitError):
    """Malformed package container or archive."""


class MetadataError(AdapterKitError):
    """Hub metadata failed validation; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class HubLookupError(AdapterKitError):
    """No hub entry matches the query (after compatibility filtering)."""


class AmbiguousQueryError(AdapterKitError):
    """More than one hub entry matches the query."""

    def __init__(self, query, candidates):
        self.query = query
        self.candidates = list(candidates)
        ids = ", ".join(e.adapter_id for e in self.candidates)
        super().__init__(f"query {query!r} is ambiguous: matches {ids}")


class TransportError(AdapterKitError):
    """Network or file transfer failed; retriable, distinct from digest errors."""
