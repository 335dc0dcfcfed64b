"""Exception types shared across the package, and the rules settings obey.

Every failure mode raised by the library derives from :class:`SfdnnError`,
so callers (including the CLI) can map errors onto exit codes without
string matching.  A rule is a (predicate that must hold, phrase) pair,
declared once in the ``RULES`` of the class or module that owns the setting;
:func:`broken_rules` lists the rules values break (the CLI reports them all)
and :func:`check_rules` raises on the first (the library's checks).
"""

import math
import numbers


def at_least(minimum):
    return (lambda v: v >= minimum, f"must be at least {minimum}")


def one_of(options):
    return (lambda v: v in options, "must be one of " + "/".join(options))


POSITIVE = (lambda v: v > 0, "must be positive")
NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
FINITE = (math.isfinite, "must be finite")
# an int or a numpy integer; a bool is not a count
INTEGER = (
    lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "must be an integer, got {!r}",
)


def _items(value):
    if isinstance(value, tuple):
        return [v for item in value for v in _items(item)]
    return [] if value is None else [value]


def _broken(rule, items):
    # the phrase of the first part of ``rule`` that an item breaks (None breaks every part), or None
    for holds, phrase in rule if isinstance(rule, list) else [rule]:
        if bad := [v for v in items if v is None or not holds(v)]:
            return phrase.format(bad[0])


def broken_rules(rules, values) -> list:
    """(name, phrase) for each setting in ``rules`` that ``values[name]`` breaks.

    A setting has one rule or a list of rules, checked in order; only the
    first it breaks is reported.  A tuple breaks a rule when an item does
    (``None`` items pass); a phrase may name the first such item as "{}".
    NaN breaks every comparison rule.
    """
    return [(name, phrase) for name, rule in rules.items() if (phrase := _broken(rule, _items(values[name])))]


def check_rules(error, rules, **values):
    """Raise ``error("<name> <phrase>")`` for the first of ``values`` that breaks its rule in ``rules``, each checked
    as itself (``None`` or a tuple breaks a scalar's rule); a name without a rule passes, as ``**vars(self)`` may."""
    for name, value in values.items():
        if phrase := _broken(rules.get(name, []), [value]):
            raise error(f"{name} {phrase}")


class SfdnnError(Exception):
    """Base class for all library errors."""


class DimensionError(SfdnnError, ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class InvalidArchitectureError(SfdnnError, ValueError):
    """Network or basis architecture parameters are not realizable."""


class InsufficientDataError(SfdnnError, ValueError):
    """Too few observations for the requested estimator."""


class InvalidSizeError(SfdnnError, ValueError):
    """A size argument is outside its admissible range."""


class DegenerateBandwidthError(SfdnnError, ValueError):
    """An adaptive kernel bandwidth collapsed to zero (duplicate sites)."""


class DegenerateVarianceError(SfdnnError, ValueError):
    """A variance required by the statistic is zero."""


class AdmissibilityError(SfdnnError, ValueError):
    """Spatial dependence parameter lies outside the admissible region."""


class DesignRankError(SfdnnError, ValueError):
    """Design matrix is rank deficient."""


class NumericOverflowError(SfdnnError, FloatingPointError):
    """A computation produced non-finite values."""


class TrainingDivergedError(SfdnnError, RuntimeError):
    """Optimization produced a non-finite loss; carries the loss trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MissingWeightsError(SfdnnError, ValueError):
    """A spatial estimator was invoked without a weight matrix."""


class FoldSizeError(SfdnnError, ValueError):
    """Cross-validation folds would be smaller than two rows."""


class ConfigError(SfdnnError, ValueError):
    """Configuration file is invalid; carries every detected problem."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DataError(SfdnnError, ValueError):
    """Input data file is malformed or inconsistent."""
