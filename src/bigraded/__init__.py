"""Exact computer algebra for bigraded modules over K[x0..xm, y0..yn].

The toolkit decides weak and strong bigraded regularity, computes minimal
free resolutions and Betti tables, and evaluates graded pieces of sheaf
and local cohomology on a product of two projective spaces.  Everything
runs in exact arithmetic over the rationals or an odd prime field.

The exported names are resolved on first access (PEP 562), so importing
the package, or one submodule, loads no other layer.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package root exports from it
_EXPORTS = {
    "errors": "BigradedError EmptyRing InputError InvalidField InvalidIndex "
              "InvalidPower InvalidRegion InvalidSpace NeedsWindow "
              "NoStabilization NotBihomogeneous ZeroModule ZeroPolynomial",
    "fields": "QQ PrimeField field_from_spec",
    "groebner": "GroebnerBasis buchberger graded_piece ideal_presentation "
                "ideal_quotient multiplication_matrix normal_form saturate "
                "syzygies upset_nonvanishing_witness vanishes_on_upset",
    "localcoh": "IRRELEVANT X XY_SUM Y ext_graded_dim free_lc_dim "
                "h0_via_saturation lc_table local_cohomology_dim",
    "modules": "FreeModule ModuleMap Presentation free_presentation "
               "quotient_presentation twist",
    "regions": "DREG REG REG_DOUBLE_PRIME REG_PRIME ST Region dreg reg "
               "reg_double_prime reg_prime region_ascii region_contains "
               "region_points region_shift_properties_check st st_points",
    "regularity": "RegularityVerdict classical_reduction_check module_betti "
                  "multiplication_surjectivity strong_regularity_check "
                  "strong_regularity_frontier vc_window_verify "
                  "weak_regularity_check",
    "resolutions": "FreeComplex betti_table homology_dims "
                   "irrelevant_resolution koszul_complex "
                   "minimal_free_resolution minimal_generators minimize",
    "ring": "Poly Ring make_ring",
    "sheaf": "LineBundleSum chi h0_monomial_basis "
             "h0_multiplication_surjective kunneth_dim serre_dim "
             "sheaf_regularity_check sheaf_regularity_upset_check",
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items()
           for name in names.split()}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    # nothing is cached here, so the submodule's binding is always the one
    # returned (a function wrapped in place there is seen through the root)
    mod = _SOURCE.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + mod, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
