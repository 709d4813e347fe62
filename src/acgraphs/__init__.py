"""Andrews-Curtis and product-replacement graphs over concrete finite
groups: exhaustive graph analysis, randomized sampling walks, and the
statistical reference machinery used to validate them."""

__version__ = "0.1.0"

from .elements import (
    AbelianTuple,
    GroupElement,
    MatrixGF,
    Permutation,
    format_cycles,
    parse_cycles,
)
from .errors import (
    GroupSpecError,
    PreconditionError,
    ResourceCapError,
    VerificationError,
)
from .graphs import (
    GraphHandle,
    GraphMode,
    cayley_diameter,
    components,
    cover_check,
    diameter,
    distance,
    soluble_component_check,
)
from .groups import FiniteGroup, SymmetricAmbient, parse_group
from .subgroups import (
    AbelianStructure,
    Subgroup,
    abelianization,
    closure,
    covering_numbers,
    derived_subgroup,
    is_soluble,
    mazurov_lift,
    nd_pair,
    normal_closure,
    normal_subgroups,
    psi_k,
    quotient_group,
)
from .walkers import (
    WalkConfig,
    acr_sample_many,
    cayley_class_walk,
    default_step_budget,
    mixing_diagnostic,
    pra_sample_many,
)

__all__ = [
    "AbelianStructure",
    "AbelianTuple",
    "FiniteGroup",
    "GraphHandle",
    "GraphMode",
    "GroupElement",
    "GroupSpecError",
    "MatrixGF",
    "Permutation",
    "PreconditionError",
    "ResourceCapError",
    "Subgroup",
    "SymmetricAmbient",
    "VerificationError",
    "WalkConfig",
    "abelianization",
    "acr_sample_many",
    "cayley_class_walk",
    "cayley_diameter",
    "closure",
    "components",
    "cover_check",
    "covering_numbers",
    "default_step_budget",
    "derived_subgroup",
    "diameter",
    "distance",
    "format_cycles",
    "is_soluble",
    "mazurov_lift",
    "mixing_diagnostic",
    "nd_pair",
    "normal_closure",
    "normal_subgroups",
    "parse_cycles",
    "parse_group",
    "pra_sample_many",
    "psi_k",
    "quotient_group",
    "soluble_component_check",
]


def __getattr__(name: str):
    # ``verify`` loads on first use, so commands that do not run the
    # checks never import it (PEP 562)
    if name == "verify":
        import importlib

        return importlib.import_module(".verify", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
