"""The numpy CSV kernel against its oracle, ``'%.15g' % x``, byte for byte."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rankone_gap import _table
from rankone_gap.cfunction import halfopen_grid


def assert_same_bytes(values):
    x = np.asarray(values, dtype=float)
    with np.errstate(all="raise"):
        got = _table.rows([x]).splitlines()
    want = ["%.15g" % v for v in x.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]
    assert len(got) == len(want)


def test_random_bit_patterns():
    bits = np.random.default_rng(27).integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert_same_bytes(bits.view(float))


def test_powers_of_ten_their_neighbours_and_carries():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    # 9.999999999999995e-280 rounds up to 1e-279: D = 1e15 carries into the exponent
    carries = [float(f"9.999999999999995e{k}") for k in range(-300, 300)]
    values = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), carries]
    assert_same_bytes(np.concatenate([*values, -np.concatenate(values)]))


def test_sixteen_digit_ties():
    # a 16th digit 5: exact ties (which % rounds half to even) and their neighbours
    ties = np.array([float(f"{m}5e{k}") for m in (100000000000000, 123456789012345,
                                                  999999999999999) for k in range(-40, 40)])
    integers = np.arange(2**52, 2**52 + 20, dtype=float)  # 16 digits, exact
    halves = np.arange(1e14, 1e14 + 20) + 0.5  # 15 digits and an exact half
    # exact ties above 1e16, where 10**(14 - e) is not a double
    tens = 10 * np.arange(1_000_000_000_000_005, 1_000_000_000_000_205, 10, dtype=np.int64)
    assert_same_bytes(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
                                      integers, halves, -halves, tens]))


def test_special_values_and_notation_switches():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
               1e-280, 1e280, 1.7976931348623157e308]
    switches = np.array([1e-5, 1e-4, 1e15, 1e16])
    near = [switches, np.nextafter(switches, 0), np.nextafter(switches, np.inf),
            [9.999999999999995e-6, 9.999999999999995e-5, 999999999999999.5, 9999999999999999.0]]
    assert_same_bytes(np.concatenate([special, *near, -np.concatenate(near)]))


def test_every_scan_grid_of_the_witness_intervals():
    grids = [halfopen_grid(d / 2, d, n) for d in range(1, 9) for n in (5000, 20000)]
    assert_same_bytes(np.concatenate(grids))


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    assert_same_bytes(values)


def test_string_columns_and_separators():
    x = np.array([1.5, -0.0, np.nan, 2e-7])
    labels = np.array(["finite", "zero", "pole", "a-label-longer-than-eight"])
    table = _table.rows([x, labels, x])
    assert table == "".join(f"{v:.15g},{s},{v:.15g}\n" for v, s in zip(x, labels))
