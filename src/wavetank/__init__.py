"""Desk-scale free-surface Navier-Stokes solver and verification lab.

The moving fluid domain is flattened onto a fixed periodic strip by the
smoothing map phi = A z + eta; the package evolves the transformed system,
splits the pressure into its advective, viscous, and capillary parts, and
ships a diagnostics layer that measures energy identities, operator
cross-validations, and the vanishing-viscosity limit as executable checks.
"""

# BLAS rounds its products differently at each thread count: one thread, set
# before numpy loads, makes a run's bytes the same on every machine.
import os
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .grid import Field, Grid, d_horizontal, d_vertical, integrate_dVt, make_grid
from .surface import (
    CutoffSpec,
    Diffeomorphism,
    SurfaceState,
    build_diffeomorphism,
    extend_surface,
    surface_from_values,
    surface_geometry,
)
from .conormal import FieldHistory, MultiIndex, apply_conormal, conormal_norm
from .operators import (
    commutator_residual,
    div_phi,
    grad_phi,
    laplacian_phi,
    strain_phi,
    vorticity_phi,
)
from .elliptic import (
    EllipticOperator,
    PressureSplit,
    decompose_pressure,
    qE_inner_split,
)
from .evolution import (
    EnergyReport,
    FlowState,
    StepReport,
    advance,
    cfl_dt,
    check_compatibility,
    energy_report,
    make_flow_state,
    run,
)
from .diagnostics import (
    SweepResult,
    energy_identity_residual,
    epsilon_sweep,
    korn_audit,
    layer_profile,
    sn_reconstruction_audit,
)
from .config import SimulationConfig, initial_state, parse_config, serialize_config
from .persist import restore_checkpoint, save_checkpoint

__version__ = "0.1.0"
