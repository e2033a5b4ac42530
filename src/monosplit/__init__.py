"""monosplit: cyclic-monotonicity verification and splitting-potential
construction for pairwise-sum transport costs on finite point sets.

Verifiers (`monotone`) return verdicts with witnesses; constructors
(`antiderivative`, `splitting`) build potentials from the pair projections
and return certificates; `onedim` and `quadratic` hold the classical
families.  The top level exports the names of the README's Library
section; everything else is imported from its module.
"""

from .antiderivative import Potential
from .core import (
    EvenPowerForm, GammaSet, IndicatorQuadraticForm, LinearForm, PairwiseCost, QuadraticForm,
    classical_cost,
)
from .monotone import check_projection_condition, is_n_c_monotone_bruteforce
from .onedim import MonotoneBijection, curve_potentials
from .splitting import assemble_splitting_tuple, certify_splitting

__all__ = [
    "EvenPowerForm", "GammaSet", "IndicatorQuadraticForm", "LinearForm", "MonotoneBijection",
    "PairwiseCost", "Potential", "QuadraticForm", "assemble_splitting_tuple", "certify_splitting",
    "check_projection_condition", "classical_cost", "curve_potentials",
    "is_n_c_monotone_bruteforce",
]
