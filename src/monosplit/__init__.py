"""monosplit: cyclic-monotonicity verification and splitting-potential
construction for pairwise-sum transport costs on finite point sets.

The package answers three questions about a finite set G inside a product
of Euclidean factors, under a cost that is a sum of two-marginal couplings
(optionally plus a separable shift):

* is G n-c-monotone, for the order n you care about?  (`monotone`)
* can potentials splitting the cost on G be built explicitly from the
  pair projections of G?  (`antiderivative`, `splitting`)
* what do the classical families look like in closed form?  (`onedim`
  for scalar marginals and curve-supported sets, `quadratic` for
  commuting-SPD images and the plane whose projections all fail)

Everything numeric is certified: verifiers return verdicts with witnesses,
constructors return certificates with the worst residual and the sample
that produced it.
"""

from .antiderivative import (
    AntiderivativeCheck,
    Potential,
    c_conjugate,
    rockafellar_potential,
    verify_antiderivative,
)
from .core import (
    CostSpec,
    EvenPowerForm,
    GammaSet,
    IndicatorQuadraticForm,
    LinearForm,
    PairwiseCost,
    Point,
    QuadraticForm,
    Vec,
    as_point,
    as_vec,
    classical_cost,
    dumps_json,
    form_from_json,
    loads_json,
    project,
    project_pair,
)
from .errors import (
    BasePointNotInGamma,
    BasePointNotInProjection,
    BudgetExceeded,
    DimensionMismatch,
    ImproperInput,
    IndexOutOfRange,
    InputValidationError,
    InternalInconsistency,
    InversionFailure,
    MonosplitError,
    NotCommuting,
    NotCyclicallyMonotone,
    NotOneDimensional,
    NotPositiveDefinite,
    NotSymmetric,
    OffGrid,
    OrderTooLarge,
    ParseError,
    ProjectionNotMonotone,
    UndefinedOnGamma,
    UnknownExample,
)
from .monotone import (
    MonotonicityVerdict,
    ProjectionReport,
    Witness,
    check_projection_condition,
    is_c_monotone,
    is_n_c_monotone_bruteforce,
    is_pair_monotone_classical,
    is_two_marginal_cyclically_monotone,
    recheck_witness,
    scan_gain_digraph,
    sign_criterion_1d,
)
from .onedim import (
    CurvePotentials,
    KnottSmithValues,
    MonotoneBijection,
    OneDimReport,
    YoungCheck,
    characterize_1d,
    curve_potentials,
    emit_curve_figure_data,
    integral_from_zero,
    knott_smith_alphas,
    knott_smith_forms,
    knott_smith_potentials,
    signed_power,
    young_check,
)
from .quadratic import (
    Counterexample,
    CounterexampleReport,
    QuadraticSplitting,
    SymMatrix,
    commuting_spd_gamma,
    counterexample_construct,
    counterexample_verify,
    psd_check,
    quadratic_splitting,
    random_commuting_spds,
)
from .splitting import (
    SplittingCertificate,
    SplittingTuple,
    assemble_splitting_tuple,
    certify_splitting,
    sample_test_points,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
