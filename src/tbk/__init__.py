"""tbk: exact tools for finite-group 2-cocycles, Brauer-type obstruction
subgroups and twisted orbifold dimension bookkeeping.

Everything is exact: groups are Cayley tables on dense indices, scalars are
cyclotomic numbers with rational coordinates, cocycles are additive exponent
tables modulo m. See README.md for the command-line surface.
"""

from . import brauer, cocycle, cyclo, example, grp, rep, zmlin
from .brauer import (
    BicyclicWitness,
    OrbifoldReport,
    SpanReport,
    bg_cross_check,
    in_B0,
    in_BG,
    in_BG_bicyclic,
    orbifold_dims,
    span_analysis,
    verify_cor53,
)
from .cocycle import (
    BilinearForm,
    Cochain1,
    Cocycle2,
    coboundary_of,
    from_bilinear_form,
    from_central_extension,
    h2_small,
    inflate,
    is_coboundary,
    is_cocycle,
    restrict,
)
from .cyclo import CycloMatrix, CycloNumber, RootOfUnity, Subspace, eigenspace, kernel
from .example import ExampleBundle, bogomolov_example
from .grp import (
    AbelianStructure,
    CentralExtension,
    Character,
    FiniteGroup,
    Subgroup,
    abelian_structure,
    build_from_cayley,
    center,
    centralizer,
    closure,
    commuting_pairs,
    conjugacy_classes,
    quotient_by_central,
    subgroup_generated,
)
from .rep import (
    FixedLocusSurvey,
    LinearActionModel,
    MatrixRep,
    build_model,
    eigen_survey,
    fixed_locus_survey,
    matrix_closure,
    meets_complement,
    pointwise_stabilizer,
)

__version__ = "0.1.0"
