"""Exact-arithmetic relative Weyl group decompositions and R-group
irreducibility criteria for parabolic induction data."""

__version__ = "0.1.0"

from .charlat import (
    UnramifiedParam,
    ValueExp,
    eval_on_coroot,
    is_wall,
    param_from_coords,
    same_character,
    stabilizer,
    trivial_param,
    weyl_act,
)
from .criterion import (
    CriterionReport,
    SigmaOracle,
    conjecture_predict,
    decide_gps,
    decide_ps_unramified,
    delta_1,
    explicit_oracle,
    knapp_stein_ladder,
    phi_sigma_nu_0,
    product_formula_count,
    r_group,
    regular_shortcut,
    translate_datum,
    trivial_twist_oracle,
    unitary_shortcut,
    unramified_oracle,
)
from .errors import (
    CapExceeded,
    EngineRejection,
    InvariantViolation,
    RGroupsError,
    SchemaError,
)
from .levi import (
    LeviContext,
    LeviDatum,
    analyze,
    certify,
    decompose_WM,
    reflections_in_WM,
    relative_reflection_simple,
    relative_roots,
    relative_weyl_group,
)
from .rootsys import (
    CartanDatum,
    RootSystem,
    WeylElement,
    WeylGroup,
    build_cartan,
    build_root_system,
    generate_weyl,
    longest_element,
    weyl_order,
)
