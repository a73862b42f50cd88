"""stablext: exact stable-category computations over finite-dimensional
Iwanaga-Gorenstein algebras.

The layers, bottom to top:

- :mod:`stablext.exactlin`   exact linear algebra over Q and F_p
- :mod:`stablext.algmod`     split basic algebras, modules, morphisms,
  conflations
- :mod:`stablext.resolve`    resolutions, Ext spaces, extension classes
- :mod:`stablext.frobenius`  Gorenstein detection, unit conflations,
  G-projectives
- :mod:`stablext.phantom`    the relative-projective subfunctor,
  quasi-invertibles, phantoms, the composition on Ext^n/P
- :mod:`stablext.stablecat`  stable hom-spaces, the canonical functor,
  the syzygy isomorphism
- :mod:`stablext.fixtures`   shipped example algebras and inventories
- :mod:`stablext.textio`     the workspace file format
- :mod:`stablext.suites`     acceptance batteries
- :mod:`stablext.cli`        the command line
"""

from .exactlin import GF, QQ, Field, Matrix, kernel_basis, quotient_reps, rank, rref, solve
from .algmod import (
    Algebra, Conflation, Module, ModuleMap, QuiverPresentation,
    algebra_from_quiver, algebra_from_table, check_conflation, cokernel_module,
    direct_sum, dual_module, hom_space, identity_map,
    image_module, indecomposable_summands, injective_envelope,
    injective_indecs, is_isomorphic, kernel_module, projective_cover,
    projective_indecs, pullback, pushout, quotient_module, simples, socle,
    splice, submodule, top, zero_map, zero_module,
)
from .resolve import (
    ExtElement, ExtSpace, Resolver, baer_sum, baer_sum_sequence,
    class_from_sequence, connecting_map, pull_back, pullback_sequence,
    push_out, pushout_sequence, sequence_from_element,
)
from .frobenius import (
    FrobeniusContext, UnitConflation, gorenstein_one_search,
    gorenstein_parameter, inj_dim, proj_dim,
)
from .phantom import (
    angled, coangled, compose_mod_p, divide_by_sigma, ext_ring, is_phantom,
    is_phantom_right, is_quasi_invertible, luf, p_member, p_member_factoring,
    p_subspace, phi, ruf, unit_coset,
)
from .stablecat import (
    StableHomSpace, StableMorphism, classical_stable_dim, embedding_dim_check,
    functor_T, is_stably_zero, normalize, omega_iso, stable_compose,
    stable_hom, stable_is_iso,
)
from .fixtures import (
    dual_numbers, hereditary_a2, indecomposable_inventory, t2_dual_numbers,
    trunc_poly,
)
from .textio import Workspace, dump_workspace, load_workspace, loads_workspace

__version__ = "0.1.0"
