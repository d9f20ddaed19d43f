"""Certified lower and upper bounds for the nonorientable four-ball genus
of torus knots, in exact integer and rational arithmetic."""

from .bounds import (AuditRecord, framed_profile, invariants,
                     obstruction_audit)
from .heegaard import d_b_circle_bundle, d_minus1_alternating, t0
from .pinch import GAMMA3, GAMMA4, pinch_runs, pinch_step
from .reports import (BoundReport, family_table, json_parts, report,
                      write_rows)
from .torus import (Hand, TorusKnotClass, UNKNOT, alexander, alexander_family,
                    alexander_t0, alexander_text, canonicalize, mirror,
                    sigma_lattice, sigma_rec)

__version__ = "0.1.0"
