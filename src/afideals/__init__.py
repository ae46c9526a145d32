"""Exact metrics on the ideal space of AF algebras over the quantized interval."""

from .bratteli import (
    BratteliDiagram,
    EventualDescriptor,
    FiniteDescriptor,
    WidthMismatchError,
    ideal_closure,
    is_ideal,
    level_set,
    parse_diagram,
    qi_diagram,
    serialize_diagram,
    to_finite,
    validate_diagram,
)
from .exact import (
    BinaryWord,
    EmptyRangeError,
    format_word,
    geom_block,
    pow2,
    word_weight,
    word_xor,
)
from .metrics import (
    CertifiedValue,
    MalformedComparisonError,
    closed_form_dbeta,
    closed_form_dhausdorff,
    closed_form_dphi,
    d_beta,
    d_beta_truncated,
    d_phi,
    first_disagreement,
)
from .qi import (
    ZERO,
    ClosedSubsetQI,
    DescriptorConventionError,
    EmptySetError,
    QIPoint,
    closed_set_of_ideal,
    contains,
    format_closed_set,
    hausdorff,
    ideal_of_closed_set,
    paper_table_descriptor,
    parse_closed_set,
    point_distance,
)

__version__ = "0.1.0"
