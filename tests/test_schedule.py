import numpy as np
import pytest

from duetsep import NoiseSchedule, TimeGrid, make_grid
from duetsep.errors import ConfigurationError


def test_endpoints():
    grid = make_grid(NoiseSchedule(0.01, 10.0), 4)
    assert grid.sigmas[-1] == pytest.approx(0.01)
    assert grid.sigmas[0] == pytest.approx(10.0)


def test_geometric_mean_at_half():
    grid = make_grid(NoiseSchedule(0.01, 10.0), 2)
    assert grid.sigmas[1] == pytest.approx(np.sqrt(0.01 * 10.0), rel=1e-12)


def test_invalid_schedule():
    with pytest.raises(ConfigurationError):
        NoiseSchedule(sigma_min=1.0, sigma_max=0.5)
    with pytest.raises(ConfigurationError):
        NoiseSchedule(sigma_min=0.0, sigma_max=1.0)
    with pytest.raises(ConfigurationError):
        NoiseSchedule(0.01, np.inf)


def test_single_step_grid():
    grid = make_grid(NoiseSchedule(), 1)
    assert grid.steps == 1
    np.testing.assert_allclose(grid.sigmas, [10.0, 0.01])


def test_hundred_step_grid():
    grid = make_grid(NoiseSchedule(), 100)
    assert grid.steps == 100 and grid.sigmas.shape == (101,)
    assert grid.sigmas[0] == 10.0 and grid.sigmas[-1] == 0.01


def test_sigmas_strictly_decreasing():
    for steps in (1, 7, 100):
        grid = make_grid(NoiseSchedule(0.02, 5.0), steps)
        assert np.all(np.diff(grid.sigmas) < 0)


def test_bad_steps_rejected():
    # a step count below 1, or one that is not integral; numpy integers pass
    for steps in (0, -1, 2.5, 2.0, np.float64(3)):
        with pytest.raises(ConfigurationError):
            make_grid(NoiseSchedule(), steps)
            pytest.fail(f"make_grid accepted steps = {steps!r}")
    assert make_grid(NoiseSchedule(), np.int64(3)).steps == 3


def test_monotone_in_t():
    grid = make_grid(NoiseSchedule(0.05, 3.0), 49)
    # times descend from 1 to 0, so sigma must descend with them
    assert np.all(np.diff(grid.sigmas) < 0)
    # each node is sigma_min^(1-t) * sigma_max^t
    t = np.linspace(1, 0, 50)
    np.testing.assert_allclose(grid.sigmas, 0.05 ** (1 - t) * 3.0**t, rtol=1e-14)


@pytest.mark.parametrize(
    "sigmas",
    [[1.0], [1.0, 1.0], [0.5, 1.0], [2.0, np.nan, 0.5]],
    ids=["single-node", "flat", "rising", "nan"],
)
def test_grid_rejects_non_descending(sigmas):
    with pytest.raises(ConfigurationError):
        TimeGrid(np.array(sigmas))
