"""Exception hierarchy shared by all subsystems: KawasakiError, and under it
ConfigError (with InvalidSpecError and GeometryError), BudgetError and
NumericError (with StepSizeError and HorizonError).

Exit-code mapping used by the command line tool: ConfigError -> 1,
NumericError -> 2, BudgetError -> 3.
"""

import math
import numbers


class KawasakiError(Exception):
    """Base class for all package errors."""


class ConfigError(KawasakiError):
    """Invalid configuration, schema violation, or bad input value."""


class InvalidSpecError(ConfigError):
    """Kernel/potential specification with non-positive or missing parameters,
    or whose integral over R^d is not a finite number."""


class GeometryError(ConfigError):
    """Torus too small for the interaction radii (minimal-image ambiguity)."""


class BudgetError(KawasakiError):
    """Planned run exceeds the configured particle/memory budget."""


class NumericError(KawasakiError):
    """Numerical failure: quadrature non-convergence, instability, etc."""


class StepSizeError(NumericError):
    """Time step produced negativity beyond round-off; a smaller dt is needed."""


class HorizonError(NumericError):
    """Requested window violates an analytic certificate (e.g. q(T) >= 1)."""


def collect_violations(*checks):
    """The broken rules, ConfigErrors and HorizonErrors, that the callables
    `checks` raise, in order."""
    found = []
    for check in checks:
        try:
            check()
        except (ConfigError, HorizonError) as exc:
            found.append(exc)
    return found


def raise_first(found):
    """Raise the first of the errors `found`, if there is one."""
    if found:
        raise found[0]


def _require_fields(obj, required, known, error=ConfigError):
    """Raise `error` unless obj is a dict that holds every name in `required`
    and no name outside `known`."""
    if not isinstance(obj, dict):
        raise error(f"must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise error(f"missing fields {missing}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise error(f"unknown fields {unknown}")


def _require_count(name, value, least=0, error=ConfigError):
    """value as an int when it is a whole number >= least, of any real type
    but bool; `error` otherwise."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value >= least
                                       and float(value).is_integer()):
        raise error(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _require_finite(name, value, error=ConfigError):
    """value as a float when it is a finite real (a bool is not); `error` otherwise."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and math.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _require_positive(name, value, error=ConfigError):
    """Raise `error` unless value is a finite real > 0 (a bool is not)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and math.isfinite(value) and value > 0):
        raise error(f"{name} must be finite and positive, got {value!r}")
