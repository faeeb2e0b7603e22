"""Refutation power: how wrong an identity must be before the suite
REFUTES it, held to ``data/power.json`` (written by make_power_data.py)."""

import json

import pytest

from make_power_data import OUT, TWINS, median_delta, smallest_refuted


@pytest.fixture(scope="module")
def power():
    return smallest_refuted()


def test_no_record_loses_refutation_power(power):
    # a record whose smallest REFUTED delta grew hides a larger error; a
    # record new to the suite needs its row written first
    committed = json.loads(OUT.read_text())
    assert sorted(power) == sorted(committed)
    inf = float("inf")
    grew = [(rid, twin, committed[rid][twin], now[twin])
            for rid, now in power.items() for twin in TWINS
            if (inf if now[twin] is None else now[twin])
            > (inf if committed[rid][twin] is None else committed[rid][twin])]
    assert grew == []


@pytest.mark.parametrize("twin, bound", [("relative", 1e-9),
                                         ("absolute", 1e-10)])
def test_median_refuted_delta(power, twin, bound):
    # 1e-6 for both twins while every budget held a 1e-9 floor
    assert median_delta(power, twin) <= bound
