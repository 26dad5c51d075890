"""Shared exception types, input checks and the one block budget.

Three failure categories are kept apart so callers (and the command line
layer) can map them to distinct exit codes:

* ``ParameterError``: the request itself is malformed (bad field order,
  non-irreducible modulus, degree out of range, ...).
* ``ResourceCapError``: the request is well formed but would exceed an
  explicit enumeration cap.  Raised by ``check_cap`` before any heavy work
  starts.
* ``ContractError``: an internal consistency guarantee failed, or a caller
  asked for a quantity whose hypotheses are not established.  Seeing one of
  these means either a bug or a misuse that would silently produce wrong
  numbers if allowed through.

BLOCK_ENTRIES is the one budget every blocked array loop splits its work
by, through block_size and blocks; patching it here re-blocks them all.
"""

__all__ = ["ContractError", "ParameterError", "QvintError", "ResourceCapError"]


class QvintError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QvintError, ValueError):
    """Invalid user-supplied parameters."""


class ResourceCapError(QvintError, RuntimeError):
    """An enumeration or allocation would exceed its configured cap."""


def check_cap(stage: str, need: int, unit: str, cap: int) -> None:
    """Raise ResourceCapError("<stage> needs <need> <unit>, cap is <cap>")
    when need exceeds cap.

    A need wider than 64 bits prints as "at least 2^b", so the message
    never trips Python's limit on converting huge integers to text.
    """
    if need > cap:
        bits = need.bit_length()
        shown = need if bits <= 64 else f"at least 2^{bits - 1}"
        raise ResourceCapError(f"{stage} needs {shown} {unit}, cap is {cap}")


# Entries per block of every blocked array loop in the package: one fixed
# budget keeps peak memory flat whatever the count of items.  Not a limit:
# it changes how work is split, never a result.
BLOCK_ENTRIES = 1 << 14


def block_size(width: int) -> int:
    """Items of width entries each per block: BLOCK_ENTRIES // width, at least one."""
    return max(1, BLOCK_ENTRIES // width)


def blocks(count: int, width: int) -> list:
    """Consecutive slices covering range(count) in order, block_size(width)
    items each but the last."""
    step = block_size(width)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def check_int(name: str, value, low: int) -> None:
    """Raise ParameterError("<name> must be an integer >= <low>, got <value!r>")
    unless value is a plain int, not a bool, of at least low."""
    if type(value) is not int or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")


class ContractError(QvintError, RuntimeError):
    """An internal invariant or stated hypothesis does not hold."""
