"""Exact-arithmetic preprojective algebras, quiver grassmannians and
Demazure submodules of truncated injectives, with a JSON command line.

Importing the package imports none of its modules. The first read of a
package attribute (`quivergrass.X`, `from quivergrass import X`, `*`)
imports every module in `_EXPORTS` and binds the whole public API at once.
The command line reads no package attribute, so each verb loads only the
modules it calls. Binding everything on the first read, rather than one
name at a time, keeps the namespace the same as an eager import: a tracer
that patches functions in every `quivergrass` namespace finds every layer
module loaded and every name bound.
"""

from importlib import import_module

# module: the public names it gives the package, each listed once.
_EXPORTS = {
    "acceptance": ("CRITERION_NUMBERS", "CheckResult", "format_result", "run_criterion",
                   "run_suite"),
    "demazure": ("DemazureChain", "check_nesting", "demazure_module", "extend_step",
                 "stabilization_sigma"),
    "errors": ("InternalCheckError", "LimitError", "QuivergrassError", "ValidationError"),
    "fields": ("QQ", "PrimeField", "Rationals", "is_prime"),
    "geomrep": ("ChevalleyReport", "FiniteRealization", "Sl2Report", "chevalley_compare",
                "fiber_euler", "finite_points", "operator_matrices", "restricted_compat",
                "verify_sl2"),
    "grassmann": ("CountPoly", "count_polynomial", "count_submodules", "enumerate_submodules",
                  "expected_dimension", "gaussian_binomial", "graded_submodules",
                  "hull_count", "interpolation_plan", "tilde_count"),
    "hull": ("ExtensionResult", "FramedPoint", "Grading", "InjectiveModel", "arrow_weights",
             "eigen_grading", "extend_to_injective", "framed_point", "identity_framing",
             "induced_automorphism", "injective_hull", "is_stable", "projective_sum",
             "vertex_injective", "vertex_projective"),
    "palg": ("PathAlgebra", "algebra", "default_truncation", "hilbert", "vanishing_bound"),
    "quiver": ("Arrow", "CartanData", "Classification", "Quiver", "build_quiver",
               "cartan_matrix", "classify", "double", "kronecker_quiver", "line_quiver",
               "parse_dimvec", "quiver_from_json", "star_quiver"),
    "repmod": ("Rep", "Subrep", "full_subrep", "is_nilpotent", "make_rep", "make_subrep",
               "quotient", "radical_filtration", "reduce_mod", "reduce_subrep", "rep_to_obj",
               "restrict", "socle", "socle_filtration", "sub_generated", "subrep_to_obj",
               "zero_subrep"),
    "weyl": ("act", "apply_involution", "bruhat_leq", "diagram_involution", "extremal_orbit",
             "is_reduced", "longest_element", "positive_roots", "weight_census",
             "weight_multiplicity"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    # import_module, not `from . import mod`: the latter tests the package
    # with hasattr, which would call this function again.
    for module, names in _EXPORTS.items():
        mod = import_module(f"{__name__}.{module}")
        globals().update((n, getattr(mod, n)) for n in names)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
