"""Sector-based navigation on random planar point sets.

A traveller hops from point to point of a random set, each hop chosen as the
minimal element of an angular decision domain aimed at (or near) the target.
The package provides the planar primitives, seeded samplers with a grid
index, the navigation engines, the closed-form/ODE limit predictions, and a
configuration-driven experiment harness with a CLI.
"""

from .density import DensitySpec, Rect, UNIT_SQUARE
from .errors import (ConfigError, DegeneratePair, EmptyInput, EmptyPointSet,
                     GammaLeavesInset, GeonavError, NoValidPairs,
                     OutOfRangeTheta, SegmentLeavesDomain, StepOutOfDomain,
                     TooFewPoints)
from .geometry import (CrossParams, as_point, corner_point, gamma_path,
                       hausdorff_distance, sector_index)
from .harness import (ExperimentConfig, ResultRow, generate_pairs,
                      render_svg, run_experiment, summarize)
from .limits import (ConstantsRow, LimitCurve, constants, euler_solve, hit_time,
                     mc_constants, predict_cost, predict_cross, predict_straight)
from .navigation import (CostReport, NavKind, NavSpec, PathRecord, costs,
                         next_stop, run, run_directed, stage_samples)
from .points import (Diagnostics, PointSet, load_points, maxball, navmax,
                     nearest_in_sector, r_min, sample_iid, sample_ppp,
                     save_points)

__version__ = "0.1.0"
