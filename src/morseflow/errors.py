"""Exception hierarchy for the morseflow library.

Most errors signal bad input.  ``AcyclicityBug``, ``ProofFailure`` and
``PropertyViolation`` are different: they flag internal inconsistencies that
are unreachable for valid inputs and exist as tripwires for the test suites.
"""

from __future__ import annotations


class MorseflowError(Exception):
    """Base class for every error raised by this library."""


class EmptyInput(MorseflowError):
    pass


class MalformedSimplex(MorseflowError):
    pass


class SimplexNotInComplex(MorseflowError):
    pass


class ComplexMismatch(MorseflowError):
    pass


class TooLargeForEnumeration(MorseflowError):
    pass


class MissingValue(MorseflowError):
    pass


class UnreadableInput(MorseflowError):
    """An input file that cannot be opened, read or decoded as UTF-8."""


class MorseConditionViolated(MorseflowError):
    """Raised with the full list of (simplex, upper size, lower size) offenders."""

    def __init__(self, violations):
        self.violations = list(violations)
        head = ", ".join(
            f"{tuple(s)} (|upper|={u}, |lower|={l})" for s, u, l in self.violations[:3]
        )
        tail = "" if len(self.violations) <= 3 else f" and {len(self.violations) - 3} more"
        super().__init__(f"not a discrete Morse function: {head}{tail}")


class AcyclicityBug(MorseflowError):
    """A closed gradient path where none can exist; indicates a library bug."""


class NotFreeFace(MorseflowError):
    """The pair ``(free, coface)`` is not an elementary collapse at its step."""

    def __init__(self, free, coface, reason):
        self.free = free
        self.coface = coface
        super().__init__(reason)


class CriticalValueInWindow(MorseflowError):
    pass


class ProofFailure(MorseflowError):
    """A certified construction failed to replay; unreachable for valid input."""


class PreconditionViolated(MorseflowError):
    pass


class SignatureMismatch(MorseflowError):
    pass


class NotACriticalVertex(MorseflowError):
    pass


class EmptyFamily(MorseflowError):
    pass


class TheoremViolation(MorseflowError):
    """A value that must be critical is not; test-failure signal."""


class ClosureViolated(MorseflowError):
    def __init__(self, map_name, member):
        self.map_name = map_name
        self.member = member
        super().__init__(f"map {map_name!r} leaves the family on {sorted(map(tuple, member))}")


class DeformationViolated(MorseflowError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"no map shrinks the sublevel set across the regular value {value}")


class NotLocalMinima(MorseflowError):
    pass


class NoPathExists(MorseflowError):
    pass


class ReassemblyFailure(MorseflowError):
    """A flowed edge path did not reassemble into an admissible path."""


class PropertyViolation(MorseflowError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"flow matrix check failed: {report}")


class ParseError(MorseflowError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}{reason}")
