"""Exact-arithmetic graded frames, fuzzy topological spaces and systems,
the functors connecting them, and a fuzzy geometric logic evaluator."""

from .checks import LawReport, Violation
from .errors import (
    ArityMismatch,
    CaptureViolation,
    FormulaSyntaxError,
    GradeRangeError,
    GradeSetTooSmall,
    GradedToposError,
    MixedCarrier,
    MixedStructure,
    MixedUniverse,
    NoPoints,
    NotContinuous,
    Overflow,
    ParseError,
    SchemaError,
    UnboundVariable,
    UndeclaredSymbol,
)
from .frames import (
    FrameHom,
    GradedFrame,
    chain_frame,
    check_frame,
    check_frame_hom,
    compose_frame_hom,
    finite_meet,
    frame_from_space,
)
from .functors import (
    GradeSet,
    PointHom,
    check_naturality,
    check_spatial_equivalence,
    check_triangle_identities,
    counit,
    enumerate_point_homs,
    ext_column,
    ext_morphism,
    ext_object,
    fm_morphism,
    fm_object,
    j_morphism,
    j_object,
    point_evaluation,
    s_morphism,
    s_object,
    unit_space,
    unit_system,
)
from .fuzzy_sets import (
    FuzzySet,
    PointMap,
    Universe,
    compose_point_maps,
    empty_set,
    full_set,
    graded_inclusion,
    image,
    intersection,
    preimage,
    union,
)
from .generators import GeneratorConfig
from .grades import Grade, ONE, ZERO, format_grade, godel_arrow, grade, inf, join, meet, sup
from .reports import Report
from .spaces import (
    GradedSpace,
    check_continuous,
    check_space,
    compose_continuous,
    generate_topology,
    space_iso_check,
)
from .suites import SUITE_NAMES, run_suite
from .systems import (
    GradedSystem,
    SystemMorphism,
    check_spatial,
    check_system,
    check_system_morphism,
    compose_system_morphisms,
    system_iso_check,
)

__version__ = "0.1.0"
