import numpy as np
import pytest

from wavetank.grid import Field, make_grid
from wavetank.surface import (
    Diffeomorphism,
    build_diffeomorphism,
    random_surface,
    surface_from_values,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid():
    return make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh",
                     stretch_gamma=3.0)


@pytest.fixture(scope="session")
def uniform_grid():
    return make_grid(32, 40, 2.0 * np.pi, 2.0, clustering="uniform")


@pytest.fixture
def flat_metric(grid):
    h = surface_from_values(grid, np.zeros(grid.n_y))
    return build_diffeomorphism(h, A=1.0, c0=0.5)


@pytest.fixture
def curved_metric(grid):
    h = surface_from_values(
        grid, 0.08 * np.cos(grid.y_nodes) + 0.05 * np.sin(2.0 * grid.y_nodes)
    )
    return build_diffeomorphism(h, A=1.0, c0=0.5)


def analytic_metric(grid, delta=0.12):
    """Diffeomorphism with closed-form metric fields (no cutoff extension).

    The bump cutoff has very large high-order derivatives, which hides
    asymptotic FD rates at coarse resolutions; refinement studies use this
    analytically mild metric instead.
    """
    y = grid.y_nodes[:, None]
    z = grid.z_nodes[None, :]
    profile = np.exp(2.0 * z)
    c = 1.0 + 2.0 * delta * np.cos(y) * profile * np.ones(grid.shape)
    b = -delta * np.sin(y) * profile * np.ones(grid.shape)
    h = surface_from_values(grid, delta * np.cos(grid.y_nodes))
    return Diffeomorphism(
        grid=grid,
        A=1.0,
        h=h,
        dzphi=Field(grid, c),
        grad_y_phi=Field(grid, b),
        c0_observed=float(np.min(c)),
    )


def random_valid_metric(grid, rng, amplitude=0.08):
    # fixed max_mode so equal seeds give the same continuum surface on
    # nested grids (refinement studies rely on this)
    h = random_surface(grid, rng, amplitude=amplitude, max_mode=6)
    return build_diffeomorphism(h, A=None, c0=0.25)


def smooth_scalar(grid, rng):
    from wavetank.conormal import random_smooth_field

    return Field(grid, random_smooth_field(grid, rng))


def smooth_vector(grid, rng, scale=1.0):
    from wavetank.conormal import random_smooth_field

    return Field(
        grid,
        scale
        * np.stack(
            [random_smooth_field(grid, rng), random_smooth_field(grid, rng)]
        ),
    )
