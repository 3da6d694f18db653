"""Package-wide exception types and the input checks every layer shares."""

import math

__all__ = ["SelfCheckError"]


class SelfCheckError(RuntimeError):
    """An internal consistency check failed.

    Raised when a result violates an invariant the implementation
    guarantees by construction (exactness of integer arithmetic, solver
    residual bounds, certified bracketing).  Indicates a defect, not bad
    user input.
    """


def _validate_count(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int, refused unless an integral number in lo..hi.

    int() truncates 2.5 to 2, so only an int() that equals the value passes.
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = math.nan  # equal to nothing, itself included
    if count == value and lo <= count <= hi:
        return count
    try:
        shown = repr(value)
    except ValueError:  # an int past CPython's digit limit for str()
        shown = "a number too large to print"
    raise ValueError(f"{name} must be in {lo}..{hi}, got {shown}")


def _validate_positive(value: float, name: str) -> float:
    """``value`` as a float, refused unless finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _validate_nonnegative(value: float, name: str) -> float:
    """``value`` as a float, refused unless finite and >= 0."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _validate_dt(dt: float, t_end: float) -> float:
    """``dt`` as a float, refused unless finite and in (0, t_end]."""
    dt = float(dt)
    if not (math.isfinite(dt) and 0.0 < dt <= t_end):
        raise ValueError(f"dt must be in (0, t_end], got {dt!r}")
    return dt


def _validate_t_end(t_end: float | None, tau: float) -> float:
    """``t_end`` as a float, refused unless finite and > 0; None gives
    the default horizon 40 tau, refused when it overflows."""
    if t_end is None:
        t_end = 40.0 * tau
        if t_end == math.inf:
            raise ValueError(
                f"the default t_end = 40 tau overflows for tau = {tau!r}: "
                "give t_end explicitly"
            )
    return _validate_positive(t_end, "t_end")


def _validate_tau(tau: float) -> float:
    tau = _validate_positive(tau, "relaxation time tau")
    if not math.isfinite(1.0 / tau):
        raise ValueError(
            f"relaxation time tau = {tau!r} is too small: 1/tau overflows"
        )
    return tau
