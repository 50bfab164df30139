"""Degeneration calculus for representations of the equioriented type-A
quiver, with the symmetric (symplectic and orthogonal) variant and the
combinatorics of degenerate Lagrangian flag loci."""

from types import ModuleType as _ModuleType

from .core import (
    Representation,
    RankSequence,
    dim_vector,
    dual,
    euler_form,
    ext_dim,
    hom_dim,
    ranks_of,
    rep_of,
    sigma,
)
from .degen import (
    Move,
    apply_move,
    degenerates,
    degeneration_path,
    generic_quotient,
)
from .symdegen import (
    DegenStep,
    EpsilonRep,
    SymMove,
    SymmetricType,
    apply_sym_move,
    is_epsilon_rank,
    is_epsilon_rep,
    perp_quotient_ranks,
    sym_degenerates,
    sym_degeneration_path,
    sym_move_refinement,
)
from .coxeter import (
    PermutationA,
    SignedPermutation,
    WeylWord,
    evaluate,
    is_reduced,
    word_to_str,
)
from .pbw import (
    CRootVector,
    FixedPoint,
    PbwSubset,
    build_Mi,
    check_lemma_ui,
    count_lagrangian_fixed_points,
    dynkin_face_contains,
    dynkin_face_violations,
    find_interior_point,
    lagrangian_fixed_points,
    u_iprime_word,
    w_i_word,
)
from . import errors

__version__ = "0.1.0"

# every public name bound above except the submodules, which importing
# binds as a side effect; errors is imported to be exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__all__ += ["errors", "__version__"]
