"""Grid and path containers."""

import numpy as np
import pytest

from filtralab.errors import ConfigurationError, DataError
from filtralab.grids import GridPath, TimeGrid


class TestTimeGrid:
    def test_points_and_horizon(self):
        g = TimeGrid(0.25, 4)
        assert g.horizon == 1.0
        assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_index_of(self):
        g = TimeGrid(1e-3, 1000)
        assert g.index_of(0.3) == 300
        assert g.index_of(1.0) == 1000
        with pytest.raises(ConfigurationError):
            g.index_of(0.30002)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 5)
        with pytest.raises(ConfigurationError):
            TimeGrid(0.1, 0)


class TestGridPath:
    def test_length_checked(self):
        g = TimeGrid(0.5, 2)
        with pytest.raises(DataError):
            GridPath(g, np.zeros(2))

    def test_values_immutable(self):
        g = TimeGrid(0.5, 2)
        p = GridPath(g, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            p.values[0] = 9.0
