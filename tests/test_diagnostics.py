"""The decay report's Fourier-amplitude bound and Cesaro-mean checks, on
closed-form record series."""

import numpy as np
import pytest

from fchsim.diagnostics import (
    EnergyRecord, fourier_amplitude_bound_check, time_average_decay_check,
)

T = np.linspace(0.0, 10.0, 401)
H = T[1] - T[0]


def records(v_l2, gradv_l2=None, fhat_max=None):
    """EnergyRecords on T from functions of t; E and D are not read."""
    def column(fn):
        return [0.0] * len(T) if fn is None else [float(fn(t)) for t in T]

    return [EnergyRecord(t=float(t), E=0.0, D=0.0, v_l2=v, gradv_l2=g, fhat_max=f)
            for t, v, g, f in zip(T, column(v_l2), column(gradv_l2),
                                  column(fhat_max))]


def test_cesaro_mean_of_an_algebraic_decay():
    # |v| = (1+t)^-1, so (1/t) int_0^t |v| = log(1+t) / t, which decreases;
    # the trapezoid error of int_0^t f is at most t h^2/12 max|f''| = t h^2/6
    check = time_average_decay_check(records(lambda t: (1.0 + t) ** -2))
    mean = np.array(check["cesaro_mean"])
    exact = np.concatenate(([1.0], np.log1p(T[1:]) / T[1:]))
    assert np.max(np.abs(mean - exact)) <= H ** 2 / 6
    assert check["t"] == T.tolist()
    assert check["decreasing_final_half"] is True
    assert check["final_mean"] == mean[-1]
    assert check["final_mean"] == pytest.approx(np.log(11.0) / 10.0, abs=H ** 2 / 6)


def test_cesaro_mean_of_a_growing_series_is_not_decreasing():
    # |v| = 1 + t is integrated exactly: the mean is 1 + t/2
    check = time_average_decay_check(records(lambda t: (1.0 + t) ** 2))
    assert np.allclose(check["cesaro_mean"], 1.0 + T / 2, rtol=1e-13, atol=0)
    assert check["decreasing_final_half"] is False


def amplitude_records(ratio):
    # |v|^2 = |grad v|^2 = 1 integrate exactly to t, so the bound's
    # denominator is 1 + sqrt(t) sqrt(t) = 1 + t and fhat = ratio (1 + t)
    return records(lambda t: 1.0, lambda t: 1.0,
                   lambda t: ratio(t) * (1.0 + t))


def test_amplitude_ratio_of_a_bounded_series():
    check = fourier_amplitude_bound_check(amplitude_records(lambda t: 0.5))
    assert np.allclose(check["ratio"], 0.5, rtol=1e-13, atol=0)
    assert check["max_ratio"] == pytest.approx(0.5, rel=1e-13)
    assert check["t"] == T.tolist()
    assert check["bounded"] is True


@pytest.mark.parametrize("tail, bounded", [(1.01, True), (1.03, False)])
def test_amplitude_ratio_growing_past_its_head_maximum(tail, bounded):
    # the final quarter may exceed the head's maximum by 2% at most
    start = T[(3 * len(T)) // 4]
    check = fourier_amplitude_bound_check(
        amplitude_records(lambda t: tail if t >= start else 1.0))
    assert check["max_ratio"] == pytest.approx(tail, rel=1e-13)
    assert check["bounded"] is bounded


def test_amplitude_ratio_of_a_blowing_up_series_is_unbounded():
    check = fourier_amplitude_bound_check(amplitude_records(lambda t: 1.0 + t))
    assert check["bounded"] is False
