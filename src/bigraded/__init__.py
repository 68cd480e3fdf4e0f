"""Exact computer algebra for bigraded modules over K[x0..xm, y0..yn].

The toolkit decides weak and strong bigraded regularity, computes minimal
free resolutions and Betti tables, and evaluates graded pieces of sheaf
and local cohomology on a product of two projective spaces.  Everything
runs in exact arithmetic over the rationals or an odd prime field.
"""

from .errors import (BigradedError, EmptyRing, InputError, InvalidField,
                     InvalidIndex, InvalidPower, InvalidRegion, InvalidSpace,
                     NeedsWindow, NoStabilization, NotBihomogeneous,
                     ResolutionTooLong, ZeroPolynomial)
from .fields import QQ, PrimeField, field_from_spec
from .groebner import (GroebnerBasis, buchberger, graded_piece,
                       ideal_presentation, ideal_quotient,
                       multiplication_matrix, normal_form, saturate,
                       syzygies, upset_nonvanishing_witness,
                       vanishes_on_upset)
from .localcoh import (IRRELEVANT, X, XY_SUM, Y, ext_graded_dim, free_lc_dim,
                       h0_via_saturation, lc_table, local_cohomology_dim)
from .modules import (FreeModule, ModuleMap, Presentation, free_presentation,
                      quotient_presentation, twist)
from .regions import (DREG, REG, REG_DOUBLE_PRIME, REG_PRIME, ST, Region,
                      dreg, reg, reg_double_prime, reg_prime, region_ascii,
                      region_contains, region_points,
                      region_shift_properties_check, st, st_points)
from .regularity import (RegularityVerdict, classical_reduction_check,
                         module_betti, multiplication_surjectivity,
                         strong_regularity_check, strong_regularity_frontier,
                         vc_window_verify, weak_regularity_check)
from .resolutions import (FreeComplex, Resolution, betti_table,
                          homology_dims, irrelevant_resolution,
                          koszul_complex, minimal_free_resolution,
                          minimal_generators, minimize)
from .ring import Poly, Ring, make_ring
from .sheaf import (LineBundleSum, chi, h0_monomial_basis,
                    h0_multiplication_surjective, kunneth_dim, serre_dim,
                    sheaf_regularity_check, sheaf_regularity_upset_check)

__version__ = "0.1.0"

__all__ = [
    "BigradedError", "EmptyRing", "InputError", "InvalidField",
    "InvalidIndex", "InvalidPower", "InvalidRegion", "InvalidSpace",
    "NeedsWindow",
    "NoStabilization", "NotBihomogeneous", "ResolutionTooLong",
    "ZeroPolynomial",
    "QQ", "PrimeField", "field_from_spec",
    "GroebnerBasis", "buchberger", "graded_piece", "ideal_presentation",
    "ideal_quotient", "multiplication_matrix", "normal_form", "saturate",
    "syzygies", "upset_nonvanishing_witness", "vanishes_on_upset",
    "IRRELEVANT", "X", "XY_SUM", "Y", "ext_graded_dim", "free_lc_dim",
    "h0_via_saturation", "lc_table", "local_cohomology_dim",
    "FreeModule", "ModuleMap", "Presentation", "free_presentation",
    "quotient_presentation", "twist",
    "DREG", "REG", "REG_DOUBLE_PRIME", "REG_PRIME", "ST", "Region", "dreg",
    "reg", "reg_double_prime", "reg_prime", "region_ascii",
    "region_contains", "region_points", "region_shift_properties_check",
    "st", "st_points",
    "RegularityVerdict", "classical_reduction_check", "module_betti",
    "multiplication_surjectivity", "strong_regularity_check",
    "strong_regularity_frontier", "vc_window_verify",
    "weak_regularity_check",
    "FreeComplex", "Resolution", "betti_table", "homology_dims",
    "irrelevant_resolution", "koszul_complex", "minimal_free_resolution",
    "minimal_generators", "minimize",
    "Poly", "Ring", "make_ring",
    "LineBundleSum", "chi", "h0_monomial_basis",
    "h0_multiplication_surjective", "kunneth_dim", "serre_dim",
    "sheaf_regularity_check", "sheaf_regularity_upset_check",
    "__version__",
]
