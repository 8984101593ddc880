"""Exception hierarchy shared by all tbk modules.

Errors that have a finite witness (a failing triple, a non-commuting pair, ...)
carry it in the ``witness`` attribute so callers and the CLI can report it.
"""

from __future__ import annotations


class TbkError(Exception):
    """Base class for all package errors."""

    exit_code = 3  # CLI precondition failure unless overridden

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAGroupError(TbkError):
    pass


class OrderBoundExceededError(TbkError):
    exit_code = 4


class NotAbelianError(TbkError):
    pass


class NonCentralSubgroupError(TbkError):
    pass


class NotAHomomorphismError(TbkError):
    pass


class DivisionByZeroError(TbkError):
    pass


class IncompatibleOrdersError(TbkError):
    exit_code = 4


class DimensionMismatchError(TbkError):
    pass


class SingularMatrixError(TbkError):
    pass


class NonInvertibleGeneratorError(TbkError):
    pass


class NotNormalizedError(TbkError):
    pass


class NotACocycleError(TbkError):
    pass


class DefectOutsideKernelError(TbkError):
    pass


class IllDefinedFormError(TbkError):
    pass


class ModulusMismatchError(TbkError):
    pass


class InfeasibleError(TbkError):
    exit_code = 4


class NonCommutingPairError(TbkError):
    pass


class NonIntegralDimensionError(TbkError):
    pass


class MalformedError(TbkError):
    """Bad file content; ``pointer`` locates the offending JSON node."""

    exit_code = 2

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


class InternalDisagreementError(TbkError):
    """Two supposedly equivalent algorithms returned different verdicts."""

    exit_code = 5
