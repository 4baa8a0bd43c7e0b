"""Graded local cohomology of module fibers over a parameter ring.

The package computes strand-by-strand local cohomology of finitely
generated graded modules over polynomial rings whose coefficients carry
parameters, locates the closed loci in the parameter spectrum where the
fiber picture jumps, and specializes modules, their Rees powers, and
rational maps at chosen fiber points.

Entry points by theme:

* :mod:`gradedfibers.rings` builds the graded rings; everything else
  consumes them.
* :mod:`gradedfibers.localcohom` turns presentations into cohomology
  tables and numeric invariants.
* :mod:`gradedfibers.loci` finds non-free loci and jump loci.
* :mod:`gradedfibers.specialize` evaluates modules and their powers at
  fiber points.
* :mod:`gradedfibers.ratmap` handles degrees and multiplicities of
  rational maps between projective spaces.
* :mod:`gradedfibers.cli` runs session scripts end to end.
"""

from .errors import AlgebraError
from .rings import make_ring, MonomialOrder, PrimeField, QQ
from .modules import FreeModule, FreeMap, Presentation
from .localcohom import cohomology_invariants, local_cohomology_table
from .loci import cohomology_jump_loci, constancy_report, nonfree_locus
from .specialize import FiberPoint, rees_powers
from .ratmap import RationalMap

__all__ = [
    "AlgebraError",
    "make_ring",
    "MonomialOrder",
    "PrimeField",
    "QQ",
    "FreeModule",
    "FreeMap",
    "Presentation",
    "cohomology_invariants",
    "local_cohomology_table",
    "cohomology_jump_loci",
    "constancy_report",
    "nonfree_locus",
    "FiberPoint",
    "rees_powers",
    "RationalMap",
]

__version__ = "0.1.0"
