"""Sampling calibration: the ``accurate`` preset must hold sampled CPI
within the documented 5% of full-detail CPI on every seed function, with
the instruction stream functionally exact throughout."""

import pytest

from repro.core.calibration import CalibrationReport, calibrate
from repro.sim.sampling import SamplingConfig

CPI_BOUND = 0.05

#: (function, phase) -> (full_cycles, sampled_cycles) of the ``accurate``
#: report at the calibration scale.  Sampled timing drift shows here even
#: when it stays inside the CPI bound.
ACCURATE_CYCLES = {
    ('fibonacci-go', 'cold'): (11174, 11174),
    ('fibonacci-go', 'warm'): (2109, 2109),
    ('fibonacci-python', 'cold'): (23165, 23138),
    ('fibonacci-python', 'warm'): (1423, 1423),
    ('fibonacci-nodejs', 'cold'): (21679, 21679),
    ('fibonacci-nodejs', 'warm'): (2840, 2840),
    ('aes-go', 'cold'): (11183, 11183),
    ('aes-go', 'warm'): (2111, 2111),
    ('aes-python', 'cold'): (22762, 22770),
    ('aes-python', 'warm'): (1212, 1212),
    ('aes-nodejs', 'cold'): (21297, 21297),
    ('aes-nodejs', 'warm'): (2596, 2596),
    ('auth-go', 'cold'): (11095, 11095),
    ('auth-go', 'warm'): (2072, 2072),
    ('auth-python', 'cold'): (22341, 22388),
    ('auth-python', 'warm'): (1185, 1185),
    ('auth-nodejs', 'cold'): (21252, 21252),
    ('auth-nodejs', 'warm'): (2551, 2551),
    ('productcatalogservice-go', 'cold'): (13005, 13005),
    ('productcatalogservice-go', 'warm'): (2493, 2493),
    ('shippingservice-go', 'cold'): (11108, 11108),
    ('shippingservice-go', 'warm'): (2066, 2066),
    ('recommendationservice-python', 'cold'): (27306, 27888),
    ('recommendationservice-python', 'warm'): (1980, 1980),
    ('emailservice-python', 'cold'): (15492, 15492),
    ('emailservice-python', 'warm'): (1236, 1236),
    ('currencyservice-nodejs', 'cold'): (21201, 21201),
    ('currencyservice-nodejs', 'warm'): (2545, 2545),
    ('paymentservice-nodejs', 'cold'): (21174, 21174),
    ('paymentservice-nodejs', 'warm'): (2545, 2545),
    ('hotel-geo-go', 'cold'): (101044, 100660),
    ('hotel-geo-go', 'warm'): (3749, 3749),
    ('hotel-recommendation-go', 'cold'): (101167, 100794),
    ('hotel-recommendation-go', 'warm'): (3724, 3724),
    ('hotel-user-go', 'cold'): (99420, 98542),
    ('hotel-user-go', 'warm'): (3388, 3388),
    ('hotel-reservation-go', 'cold'): (115933, 116312),
    ('hotel-reservation-go', 'warm'): (3225, 3225),
    ('hotel-rate-go', 'cold'): (165228, 166192),
    ('hotel-rate-go', 'warm'): (3424, 3424),
    ('hotel-profile-go', 'cold'): (259200, 260610),
    ('hotel-profile-go', 'warm'): (2445, 2445),
}


@pytest.fixture(scope="module")
def report():
    return calibrate(SamplingConfig.parse("accurate"))


def test_requires_a_sampling_config():
    with pytest.raises(ValueError):
        calibrate(None)


def test_covers_full_catalog(report):
    from repro.workloads.catalog import (
        HOTEL_FUNCTIONS,
        ONLINESHOP_FUNCTIONS,
        STANDALONE_FUNCTIONS,
    )

    expected = {fn.name for fn in STANDALONE_FUNCTIONS}
    expected |= {fn.name for fn in ONLINESHOP_FUNCTIONS}
    expected |= {fn.name for fn in HOTEL_FUNCTIONS}
    assert {row.function for row in report.rows} == expected
    # Cold and warm phases for every function.
    assert len(report.rows) == 2 * len(expected)


def test_functionally_exact(report):
    assert report.functional_exact
    for row in report.rows:
        assert row.insts_match, row.function


def test_cycles_match_goldens(report):
    assert {(row.function, row.phase): (row.full_cycles, row.sampled_cycles)
            for row in report.rows} == ACCURATE_CYCLES


def test_cpi_error_within_documented_bound(report):
    report.assert_bounded(CPI_BOUND)
    assert report.worst_cpi_error <= CPI_BOUND


def test_assert_bounded_raises_when_exceeded(report):
    if report.worst_cpi_error == 0.0:
        pytest.skip("zero measured error; nothing to exceed")
    with pytest.raises(AssertionError):
        report.assert_bounded(report.worst_cpi_error / 2)


def test_report_renders(report):
    text = report.render()
    assert "worst" in text
    assert report.worst.function in text


def test_report_round_trips_rows(report):
    assert isinstance(report, CalibrationReport)
    for row in report.rows:
        assert row.full_cycles > 0
        assert row.sampled_cycles > 0
        assert row.phase in ("cold", "warm")
