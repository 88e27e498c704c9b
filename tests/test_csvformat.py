"""``csvformat.csv_lines`` writes the bytes of ``'%.16g' %`` on every class
of double where the kernel is hard to get right, and each of three planted
defects makes it fail.

The seeded set (``seeded_doubles``, over 10^6 doubles) holds random bit
patterns over every exponent, 10^k for k = -300..299 and their neighbours,
1-17-digit decimals, integers, near-ties (a 16-digit decimal with a 5
appended), exact ties (N + 1/2 for 1e15 <= N < 2^52, and short dyadic
fractions such as 1 + 2^-16 = 1.0000152587890625), carries into the next
power of ten, the switches between fixed and scientific notation at
exponents -5/-4 and 15/16, the edges 1e-280 and 1e280 of the kernel's
range, subnormals, zeros, infinities and NaN.  The reference is one ``%``
per chunk, as ``to_csv`` wrote it before the kernel.  The fallback to ``%``
is checked to run on exactly the values the module names: zeros, non-finite
values, values outside [LO, HI] and values whose mantissa's fraction lies
within ``TIE_BAND`` of one half, the last decided with exact integers."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singular_geodesics import csvformat
from singular_geodesics.csvformat import csv_lines

COLS = 8
ROWS = 1024


def _decimals(rng, digits: int, count: int, exponents) -> np.ndarray:
    """``count`` floats parsed from random ``digits``-digit integers times
    10^k, k drawn from ``exponents``."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    mantissas = [int(v) for v in rng.integers(lo, hi, count, dtype=np.uint64)]
    return np.array([float(f"{m}e{k}") for m, k in zip(mantissas, rng.choice(exponents, count))])


def _neighbours(values, steps: int) -> np.ndarray:
    """``values`` and the ``steps`` doubles on either side of each."""
    out = [np.asarray(values, dtype=float)]
    up = down = out[0]
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def seeded_doubles() -> np.ndarray:
    """The seeded set, the classes that planted defects break first."""
    rng = np.random.default_rng(20231)
    powers = np.array([10.0 ** k for k in range(-300, 300)])
    classes = [
        _neighbours(powers, 3),
        # exact ties, which '%' rounds half-even: N + 1/2, and among the
        # short dyadic fractions k 2^-j
        np.floor(rng.uniform(1e15, 2.0 ** 52, 20_000)) + 0.5,
        rng.integers(1, 2 ** 20, 20_000) * 2.0 ** -rng.integers(1, 60, 20_000),
        # near-ties: 16 digits and a 5, at every exponent and near 10^0
        *[np.array([float(f"{m}5e{k}") for m, k in zip(
            rng.integers(10 ** 15, 10 ** 16, 50_000).tolist(), rng.integers(lo, hi, 50_000))])
          for lo, hi in ((-296, 264), (-30, 10))],
        # carries: 16 nines and a digit past the tie, into 10^(k + 17)
        np.array([float(f"9999999999999999{d}e{k}") for d in range(5, 10)
                  for k in range(-296, 264)]),
        # the switches between fixed and scientific notation
        _neighbours([9.9999999999999995e-5, 1e-4, 1e-5, 1e15, 1e16, 9999999999999999.0,
                     999999999999999.9, 9.9999999999999995e14, 9.9999999999999995e15], 40),
        10.0 ** rng.uniform(-5.5, -3.5, 20_000),
        10.0 ** rng.uniform(14.5, 16.5, 20_000),
        # the kernel's range ends at 1e-280 and 1e280
        _neighbours([1e-280, 1e280, 1e-281, 1e281, 1e-279, 1e279], 30),
        10.0 ** rng.uniform(-281, -279, 5_000), 10.0 ** rng.uniform(279, 281, 5_000),
        rng.integers(1, 2 ** 52, 5_000, dtype=np.uint64).view(np.float64),  # subnormals
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308]),
        *[_decimals(rng, d, 10_000, np.arange(-300, 290)) for d in range(1, 18)],
        rng.integers(-2 ** 63, 2 ** 63 - 1, 60_000).astype(float),
        rng.integers(-10 ** 6, 10 ** 6, 20_000).astype(float),
        rng.standard_normal(120_000) * 10.0 ** rng.integers(-30, 30, 120_000),
        rng.integers(0, 2 ** 64, 260_000, dtype=np.uint64).view(np.float64),
    ]
    values = np.concatenate(classes)
    # 200000 of them again with random signs, by their bits: a signalling
    # NaN times -1 would raise
    signs = (rng.random(200_000) < 0.5).astype(np.uint64) << np.uint64(63)
    values = np.concatenate([values, (values[:200_000].view(np.uint64) ^ signs).view(np.float64)])
    return np.concatenate([values, np.zeros(-len(values) % COLS)]).reshape(-1, COLS)


def chunks(block: np.ndarray):
    return [block[i:i + ROWS] for i in range(0, len(block), ROWS)]


def first_mismatch(seeded) -> list:
    """(value, kernel text, reference text) of the values that differ in the
    first chunk of the seeded set that does not match."""
    for chunk, reference in zip(chunks(seeded["values"]), seeded["reference"]):
        got = csv_lines(chunk)
        if got != reference:
            ours, theirs = (t.replace(b"\r\n", b",").split(b",") for t in (got, reference))
            return [(v, a, b) for v, a, b in zip(chunk.ravel().tolist(), ours, theirs) if a != b]
    return []


@pytest.fixture(scope="module")
def seeded():
    """The seeded set, its reference text per chunk, and the values that the
    kernel handed to its fallback on the way."""
    block = seeded_doubles()
    row = ",".join(["%.16g"] * COLS) + "\r\n"
    reference = [(row * len(c) % tuple(c.ravel().tolist())).encode() for c in chunks(block)]
    fallback, percent = [], csvformat._reference

    def recording(values):
        fallback.extend(values)
        return percent(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvformat, "_reference", recording)
        output = [csv_lines(c) for c in chunks(block)]
    return {"values": block, "reference": reference, "output": output,
            "fallback": np.array(fallback)}


def test_the_seeded_set_is_large(seeded):
    assert seeded["values"].size >= 10 ** 6


def test_same_bytes_as_percent_format(seeded):
    assert seeded["output"] == seeded["reference"], first_mismatch(seeded)[:5]


def _fraction_near_half(x: float) -> bool:
    """Whether |x| 10^(15 - e), e = floor(log10 |x|), has a fraction within
    TIE_BAND of 1/2, in exact integers."""
    a, b = abs(x).as_integer_ratio()
    e = math.floor(math.log10(abs(x)))
    while a * 10 ** max(-e, 0) < b * 10 ** max(e, 0):  # 10^e > |x|
        e -= 1
    while a * 10 ** max(-e - 1, 0) >= b * 10 ** max(e + 1, 0):  # 10^(e+1) <= |x|
        e += 1
    num, den = a * 10 ** max(15 - e, 0), b * 10 ** max(e - 15, 0)
    return Fraction(abs(2 * (num % den) - den), 2 * den) < Fraction(csvformat.TIE_BAND)


def test_the_fallback_runs_on_the_named_values_only(seeded):
    fb, ax = seeded["fallback"], np.abs(seeded["values"])
    in_range = (csvformat.LO <= np.abs(fb)) & (np.abs(fb) <= csvformat.HI)
    # every zero, NaN, infinity, subnormal and value out of range ...
    assert (~in_range).sum() == (~((csvformat.LO <= ax) & (ax <= csvformat.HI))).sum()
    # ... and, of the others, near-ties only, the 20000 exact ties among them
    ties = fb[in_range].tolist()
    assert len(ties) >= 20_000
    assert all(_fraction_near_half(v) for v in ties)


def plant_float_floor(ax, e):
    """The integer part carried as a float: above 2^53 the floor minus one
    rounds to an even neighbour."""
    hi, lo, hh, hl = csvformat._POW10.take(15 - csvformat._P0 - e, axis=1)
    p = ax * hi
    xh, xl = csvformat._split(ax)
    s = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + ax * lo
    fl = np.floor(p)
    frac = (p - fl) + s
    k = np.floor(frac)
    return (fl + k).astype(np.int64), frac - k


def plant_no_correction(ax):
    """log10's exponent taken as it is."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    return (e, *csvformat._mantissa(ax, e))


@pytest.mark.parametrize("name, value", [("_mantissa", plant_float_floor),
                                         ("_decimal", plant_no_correction),
                                         ("TIE_BAND", 0.0)],
                         ids=["float-floor", "no-exponent-correction", "no-tie-band"])
def test_a_planted_defect_fails(seeded, monkeypatch, name, value):
    monkeypatch.setattr(csvformat, name, value)
    try:
        assert first_mismatch(seeded)
    except IndexError:  # a 17-digit mantissa indexes past the digit table
        pass


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=12))
def test_any_row_of_floats(row):
    expected = (",".join("%.16g" % v for v in row) + "\r\n").encode()
    assert csv_lines(np.array([row], dtype=float)) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_any_bit_pattern(bits):
    x = np.array([[bits]], dtype=np.uint64).view(np.float64)
    assert csv_lines(x) == ("%.16g\r\n" % x[0, 0]).encode()
