import numpy as np
import pytest

from duetsep import NoiseSchedule, make_grid
from duetsep.errors import ConfigurationError


def test_endpoints():
    grid = make_grid(NoiseSchedule(0.01, 10.0), 4)
    assert grid.sigmas[-1] == pytest.approx(0.01)
    assert grid.sigmas[0] == pytest.approx(10.0)


def test_geometric_mean_at_half():
    grid = make_grid(NoiseSchedule(0.01, 10.0), 2)
    assert grid.times[1] == 0.5
    assert grid.sigmas[1] == pytest.approx(np.sqrt(0.01 * 10.0), rel=1e-12)


def test_invalid_schedule():
    with pytest.raises(ConfigurationError):
        NoiseSchedule(sigma_min=1.0, sigma_max=0.5)
    with pytest.raises(ConfigurationError):
        NoiseSchedule(sigma_min=0.0, sigma_max=1.0)


def test_single_step_grid():
    grid = make_grid(NoiseSchedule(), 1)
    np.testing.assert_array_equal(grid.times, [1.0, 0.0])
    np.testing.assert_allclose(grid.sigmas, [10.0, 0.01])


def test_hundred_step_grid():
    grid = make_grid(NoiseSchedule(), 100)
    assert grid.times.shape == (101,)
    np.testing.assert_allclose(np.diff(grid.times), -0.01, atol=1e-12)
    assert grid.sigmas[0] == 10.0 and grid.sigmas[-1] == 0.01


def test_sigmas_strictly_decreasing():
    for steps in (1, 7, 100):
        grid = make_grid(NoiseSchedule(0.02, 5.0), steps)
        assert np.all(np.diff(grid.sigmas) < 0)
        assert np.all(np.diff(grid.times) < 0)


def test_zero_steps_rejected():
    with pytest.raises(ConfigurationError):
        make_grid(NoiseSchedule(), 0)


def test_monotone_in_t():
    grid = make_grid(NoiseSchedule(0.05, 3.0), 49)
    # times descend from 1 to 0, so sigma must descend with them
    assert np.all(np.diff(grid.sigmas) < 0)
    # each node is sigma_min^(1-t) * sigma_max^t
    np.testing.assert_allclose(
        grid.sigmas, 0.05 ** (1 - grid.times) * 3.0**grid.times, rtol=1e-14
    )
