"""Exact metrics on the ideal space of AF algebras over the quantized interval."""

from .bratteli import (
    BratteliDiagram,
    EventualDescriptor,
    FiniteDescriptor,
    WidthMismatchError,
    first_disagreement,
    ideal_closure,
    is_ideal,
    level_set,
    qi_diagram,
    to_finite,
)
from .exact import (
    BinaryWord,
    pow2,
    word_weight,
    word_xor,
)
from .metrics import (
    CertifiedValue,
    MalformedComparisonError,
    d_beta,
    d_beta_truncated,
    d_phi,
)
from .qi import (
    ClosedSubsetQI,
    DescriptorConventionError,
    EmptySetError,
    closed_set_of_ideal,
    format_closed_set,
    hausdorff,
    ideal_of_closed_set,
    parse_closed_set,
    point_distance,
)

__version__ = "0.1.0"
