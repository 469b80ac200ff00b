"""Rounding and overflow policies for fixed-point arithmetic.

All helpers operate on numpy int64 arrays (or python ints) holding raw
fixed-point integers, so results are exactly what an RTL implementation
with the same policy would produce.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

from repro.errors import RangeError
from repro.fixedpoint.qformat import QFormat
from repro.telemetry import collector as _telemetry

RawLike = Union[int, np.ndarray]


class Rounding(enum.Enum):
    """How to drop fractional bits when narrowing a value."""

    #: Round to nearest, ties to even (IEEE default; used for LUT contents).
    NEAREST_EVEN = "nearest-even"
    #: Round to nearest, ties away from zero upward (simple adder + shift).
    NEAREST_UP = "nearest-up"
    #: Arithmetic shift right — floor; the cheapest hardware option.
    FLOOR = "floor"
    #: Drop bits of the magnitude — truncate toward zero.
    TRUNCATE = "truncate"


class Overflow(enum.Enum):
    """What to do when a raw value exceeds the target format's range."""

    #: Clamp to the most positive / most negative representable value.
    SATURATE = "saturate"
    #: Two's-complement wraparound, as plain registers would do.
    WRAP = "wrap"
    #: Raise :class:`~repro.errors.RangeError`; used in tests.
    ERROR = "error"


def shift_right_round(raw: RawLike, shift: int, rounding: Rounding) -> RawLike:
    """Divide ``raw`` by ``2**shift`` with the requested rounding.

    Negative ``shift`` is a plain left shift (exact).
    """
    raw = np.asarray(raw, dtype=np.int64)
    if shift <= 0:
        return raw << (-shift)
    if rounding is Rounding.FLOOR:
        return raw >> shift
    half = np.int64(1) << (shift - 1)
    if rounding is Rounding.NEAREST_UP:
        return (raw + half) >> shift
    if rounding is Rounding.NEAREST_EVEN:
        # Round-half-even as one shifted add: biasing by half-1 rounds
        # ties down, and adding the floor quotient's parity bit promotes
        # exactly the ties whose floor is odd. Identical to the
        # compare-remainder formulation for every int64 (the softmax fast
        # path leans on this being the fewest-passes spelling).
        return (raw + (half - np.int64(1)) + ((raw >> shift) & np.int64(1))) >> shift
    if rounding is Rounding.TRUNCATE:
        floor_q = raw >> shift
        remainder = raw - (floor_q << shift)  # always in [0, 2**shift)
        # Toward zero: floor for positives, ceil for negatives.
        return floor_q + ((raw < 0) & (remainder != 0)).astype(np.int64)
    raise ValueError(f"unknown rounding mode {rounding!r}")


def _record_overflow(tel, raw: np.ndarray, fmt: QFormat,
                     overflow: Overflow) -> None:
    """Fold one ``apply_overflow`` call into the telemetry collector.

    Event = one element leaving the representable range; magnitude = how
    many raw LSBs past the bound it was (the quantity clipped or wrapped
    away). Only reached when a collector is installed.
    """
    below = np.maximum(np.int64(fmt.raw_min) - raw, 0)
    above = np.maximum(raw - np.int64(fmt.raw_max), 0)
    events = int(np.count_nonzero(below) + np.count_nonzero(above))
    tel.count("fx.overflow.checked", raw.size)
    if events:
        kind = "saturate" if overflow is Overflow.SATURATE else "wrap"
        tel.count(f"fx.{kind}.events", events)
        tel.count(
            f"fx.{kind}.magnitude", _exact_total(below) + _exact_total(above)
        )


def _exact_total(excess: np.ndarray) -> int:
    """The exact integer sum of non-negative integer-valued magnitudes.

    A float sum rounds once past 2**53, so the tally would depend on how
    elements are grouped into calls — per request or per fused batch.
    Float magnitudes (below 2**63, see :func:`quantize_float_into`) are
    split into 32-bit halves that int64 sums hold exactly.
    """
    if excess.dtype.kind != "f":
        return int(np.sum(excess))
    high = np.floor(excess / 2.0**32)
    low = excess - high * 2.0**32
    return (
        (int(np.sum(high.astype(np.int64))) << 32)
        + int(np.sum(low.astype(np.int64)))
    )


def apply_overflow(raw: RawLike, fmt: QFormat, overflow: Overflow) -> np.ndarray:
    """Fold ``raw`` into ``fmt``'s representable raw range."""
    raw = np.asarray(raw, dtype=np.int64)
    # One module-attribute load + None check per (vectorised) call — the
    # entire cost of disabled telemetry on this hot path.
    tel = _telemetry._active
    if tel is not None and overflow is not Overflow.ERROR:
        _record_overflow(tel, raw, fmt, overflow)
    if overflow is Overflow.SATURATE:
        return np.clip(raw, fmt.raw_min, fmt.raw_max)
    if overflow is Overflow.WRAP:
        modulus = np.int64(fmt.raw_modulus)
        wrapped = np.mod(raw - fmt.raw_min, modulus) + fmt.raw_min
        return wrapped.astype(np.int64)
    if overflow is Overflow.ERROR:
        if np.any(raw < fmt.raw_min) or np.any(raw > fmt.raw_max):
            bad_lo = int(np.min(raw))
            bad_hi = int(np.max(raw))
            raise RangeError(
                f"raw range [{bad_lo}, {bad_hi}] overflows format {fmt} "
                f"(raw range [{fmt.raw_min}, {fmt.raw_max}])"
            )
        return raw
    raise ValueError(f"unknown overflow mode {overflow!r}")


def _round_in_place(scaled: np.ndarray, rounding: Rounding) -> None:
    """Round the scaled floats in ``scaled`` to integers, in place."""
    if rounding is Rounding.NEAREST_EVEN:
        np.rint(scaled, out=scaled)
    elif rounding is Rounding.NEAREST_UP:
        scaled += 0.5
        np.floor(scaled, out=scaled)
    elif rounding is Rounding.FLOOR:
        np.floor(scaled, out=scaled)
    elif rounding is Rounding.TRUNCATE:
        np.trunc(scaled, out=scaled)
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}")


def quantize_float_into(
    values: np.ndarray,
    fmt: QFormat,
    out: np.ndarray,
    rounding: Rounding = Rounding.NEAREST_EVEN,
) -> None:
    """Saturating :func:`quantize_float` written straight into ``out``.

    One float temporary: scale, round and clip it in place, then one
    casting copy into the int64 destination, so a serving layer can
    quantise a fused batch directly into its payload buffer or ring
    slot with no int64 intermediate. ``values`` must hold no NaN — the
    caller validates at admission, where the error belongs to one
    request instead of to a whole batch.
    """
    scaled = np.empty(np.shape(values), dtype=np.float64)
    np.multiply(values, 1 << fmt.fb, out=scaled)
    _round_in_place(scaled, rounding)
    tel = _telemetry._active
    if tel is not None:
        bound = float(1 << 62)  # keeps the magnitude tally finite
        _record_overflow(
            tel, np.clip(scaled, -bound, bound), fmt, Overflow.SATURATE
        )
    np.clip(scaled, fmt.raw_min, fmt.raw_max, out=scaled)
    np.copyto(out, scaled, casting="unsafe")


def quantize_float(
    values: Union[float, np.ndarray],
    fmt: QFormat,
    rounding: Rounding = Rounding.NEAREST_EVEN,
    overflow: Overflow = Overflow.SATURATE,
) -> np.ndarray:
    """Convert float values to raw integers in ``fmt``.

    Saturation clips the rounded *float*, before the int64 cast, so
    ``±inf`` and magnitudes past int64 land on the correct end of the
    range instead of wrapping. NaN has no code and raises
    :class:`RangeError`; so does any input the cast cannot hold under
    ``WRAP``/``ERROR``.
    """
    values = np.asarray(values, dtype=np.float64)
    if overflow is Overflow.SATURATE:
        if np.isnan(values).any():
            raise RangeError(f"NaN has no code in format {fmt}")
        raw = np.empty(values.shape, dtype=np.int64)
        quantize_float_into(values, fmt, raw, rounding)
        return raw
    raw = np.multiply(values, 1 << fmt.fb, out=np.empty(values.shape))
    _round_in_place(raw, rounding)
    if not np.all(np.abs(raw) < float(1 << 63)):
        raise RangeError(
            f"non-finite or int64-overflowing input cannot be quantised "
            f"into format {fmt} under {overflow.value} overflow"
        )
    return apply_overflow(raw.astype(np.int64), fmt, overflow)
