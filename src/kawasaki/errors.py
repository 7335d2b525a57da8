"""Exception hierarchy shared by all subsystems: KawasakiError, and under it
ConfigError (with InvalidSpecError and GeometryError), BudgetError and
NumericError (with StepSizeError and HorizonError).

Exit-code mapping used by the command line tool: ConfigError -> 1,
NumericError -> 2, BudgetError -> 3.

`_require_number`, `_require_reals` and `_require_flag` hold the value rules
for the library and the command line tool alike.
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


def _require_number(name, value, lo=-math.inf, strict=False, integer=False,
                    error=ConfigError):
    """value as an int (for an `integer`) or a float when it is a real number, not
    a bool, that is finite, >= lo (> lo if `strict`) and, for an `integer`, whole;
    `error` otherwise, its message naming `name` or, with None, starting at "must"."""
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value) and (value > lo if strict else value >= lo)
              and (not integer or float(value).is_integer()))
    except OverflowError:  # an int past the float range
        ok = False
    if ok:
        return int(value) if integer else float(value)
    if integer:
        rule = f"a whole number >= {lo}"
    elif lo == -math.inf:
        rule = "a finite number"
    else:
        rule = "finite and " + ("positive" if strict and lo == 0 else
                                f"{'>' if strict else '>='} {lo:g}")
    raise error(f"{name or ''} must be {rule}, got {value!r}".lstrip())


def _require_reals(name, values):
    """Raise ConfigError naming `name` unless each of values is a real number,
    not a bool; NaN and +-inf pass, for the field's own rule to word."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ConfigError(f"{name} must hold real numbers, got {v!r}")


def _require_flag(name, value, error=ConfigError):
    """value when it is a bool; `error` otherwise, named as by `_require_number`."""
    if not isinstance(value, bool):
        raise error(f"{name or ''} must be true or false, got {value!r}".lstrip())
    return value


def _require_dim(value, error):
    """Raise `error` unless value is an integer 1, 2 or 3 (a bool is not)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and 1 <= value <= 3):
        raise error(f"dimension must be 1, 2 or 3, got {value!r}")
