"""Coefficient series and the one grading rule of every bound check."""

import logging
import sys

import numpy as np

from predprey.series import constant, grade, sampled

TIMES = np.array([0.0, 0.5, 1.0])


def test_constant_series_is_a_broadcast_view():
    values = np.arange(6.0).reshape(2, 3)
    stack = constant(values)(TIMES)
    assert stack.shape == (3, 2, 3)
    assert np.all(stack == values)
    assert not stack.flags.writeable


def test_sampled_series_blends_between_and_clamps_outside():
    values = np.array([[0.0, 2.0], [4.0, 6.0], [8.0, 10.0]])
    series = sampled(TIMES, values)
    assert np.array_equal(series(np.array([-1.0, 0.5, 0.75, 2.0])),
                          [[0.0, 2.0], [4.0, 6.0], [6.0, 8.0], [8.0, 10.0]])


def test_grade_slack_is_relative_1e6_plus_absolute_1e14():
    rhs = np.array([0.0, 1.0, 2.0])
    assert grade("equal", TIMES, rhs, rhs).passed
    assert grade("within", TIMES, rhs * (1 + 1e-6) + 1e-14, rhs).passed
    for k in range(3):
        lhs = rhs.copy()
        lhs[k] = rhs[k] * (1 + 1e-6) + 1e-13
        assert not grade("over", TIMES, lhs, rhs).passed, k


def test_grade_saturates_infinite_rhs_and_warns_once(caplog):
    with caplog.at_level(logging.WARNING, logger="predprey.series"):
        check = grade("vacuous", TIMES, np.ones(3), np.array([2.0, np.inf, np.inf]))
    assert check.passed
    assert check.rhs.tolist() == [2.0, sys.float_info.max, sys.float_info.max]
    assert check.min_margin == 1.0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "vacuous" in warnings[0] and "t=0.5 " in warnings[0] and "(2 of 3 times)" in warnings[0]
