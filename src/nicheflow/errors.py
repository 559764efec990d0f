"""Exception hierarchy shared across the package."""


class NicheflowError(Exception):
    """Base class for all package errors."""


class InvalidInput(NicheflowError):
    """A caller violated an operation precondition."""


class InvalidState(NicheflowError):
    """An object is missing state required by the operation (e.g. a genome
    scored by tag similarity that has no tags)."""


class ConfigError(NicheflowError):
    """A configuration document is malformed or violates a constraint."""


class StorageError(NicheflowError):
    """A durable read or write failed."""


class UnknownModel(NicheflowError):
    """A model_id does not resolve in the configured backend or pool."""


class ProviderError(NicheflowError):
    """A model backend failed after exhausting its retry budget."""

    def __init__(self, message: str, attempts: int = 0, last_error: Exception | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class GenomeParseError(NicheflowError):
    """A genome document failed to parse; carries a position or field name."""

    def __init__(self, message: str, field: str | None = None, position: int | None = None):
        super().__init__(message)
        self.field = field
        self.position = position


class StructureError(NicheflowError):
    """An operator's structure does not match its kind's arity rules."""


class TemplateError(NicheflowError):
    """A prompt placeholder could not be resolved at execution time."""

    def __init__(self, op_id: str, placeholder: str):
        super().__init__(f"operator {op_id!r}: unresolved placeholder {{{placeholder}}}")
        self.op_id = op_id
        self.placeholder = placeholder


class BudgetExceeded(NicheflowError):
    """A workflow execution exceeded its per-run model-call budget.

    Carries the cost already incurred so callers can still account for it.
    """

    def __init__(self, message: str, partial_cost: float = 0.0):
        super().__init__(message)
        self.partial_cost = partial_cost
