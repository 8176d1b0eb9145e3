"""Exception types shared across the package.

Each error names the contract it enforces; callers that want to recover
(e.g. the dataset generator retrying a degenerate scene) catch the
specific type rather than a bare Exception.
"""

import dataclasses


class VigorError(Exception):
    """Base class for all package errors."""


class ShapeError(VigorError, ValueError):
    """Operands have incompatible or malformed shapes."""


class NumericError(VigorError, ArithmeticError):
    """Non-finite values where finite ones are required."""


class ContractError(VigorError, ValueError):
    """A documented precondition was violated by the caller."""


class NotFoundError(VigorError, LookupError):
    """A lookup (class name, proposal id, ...) matched nothing."""


class GenerationError(VigorError, RuntimeError):
    """The scene sampler exhausted its rejection budget."""


class SkipSample(VigorError):
    """The drawn scene cannot support the requested sample; retry."""


class AmbiguityError(VigorError, RuntimeError):
    """A relation chain has no unique solution (distance tie)."""


class EmptyOrderError(VigorError, ValueError):
    """A description mentions no known class name."""


class OrderParseError(VigorError, ValueError):
    """A language-model reply did not follow the expected format."""

    def __init__(self, message: str, raw_response: str | None = None):
        super().__init__(message)
        self.raw_response = raw_response


class EndpointError(VigorError, RuntimeError):
    """The language-model endpoint failed after all retries."""


class CheckpointError(VigorError, RuntimeError):
    """A checkpoint file is unreadable, truncated, or incompatible."""


class ValidationError(VigorError, ValueError):
    """A dataset record violates the file-format contract."""


_KINDS = {"int": (int,), "float": (int, float), "str": (str,)}


def check_field_types(config) -> None:
    """The one type rule of the config dataclasses: refuse, naming the
    field, a value of another type (a bool is no number) in a field
    annotated int, float or str, and store a float field as a float.
    NaN and ±inf pass, for each class's own range check to refuse."""
    for f in dataclasses.fields(config):
        # Annotations are strings under `from __future__ import annotations`.
        kinds = _KINDS.get(getattr(f.type, "__name__", f.type), ())
        value = getattr(config, f.name)
        try:
            ok = not kinds or (isinstance(value, kinds) and not isinstance(value, bool))
            if ok and float in kinds:
                object.__setattr__(config, f.name, float(value))  # a huge int overflows
        except OverflowError:
            ok = False
        if not ok:
            want = " or ".join(k.__name__ for k in kinds)
            raise ContractError(f"{f.name} must be {want}, got {value!r}")
