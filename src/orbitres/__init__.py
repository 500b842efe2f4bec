"""orbitres: decision engine for classical nilpotent orbits.

Computes, purely from partition data, the Picard group of a nilpotent
orbit, (Q-)factoriality of its normalized closure, polarizability, and
whether the closure admits a symplectic resolution, with two independent
algorithms cross-validating every resolution verdict.

The package exports what the README and the command line use; everything
else is imported from its own module (``orbitres.orbits``,
``orbitres.picard``, ``orbitres.hesselink``, ``orbitres.resolution``,
``orbitres.exceptional``, ``orbitres.enumeration``, ``orbitres.report``,
``orbitres.errors``).
"""

from types import ModuleType as _ModuleType

from .enumeration import count_orbits, enumerate_orbits
from .errors import OrbitresError
from .hesselink import HesselinkAnalysis, polarizable, resolution_by_search
from .orbits import Family, LieType, orbit_dimension, parse_algebra, parse_partition, validate_orbit
from .picard import picard
from .report import build_report
from .resolution import Verdict, admits_symplectic_resolution

__version__ = "0.1.0"

# The names imported above, each written once; the submodules that importing
# them binds on the package are not exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
