"""Construction and certification of Berge-star-saturated 3-graphs.

The package splits along the lifecycle of a witness: hypercore holds the
edge-list data structure and Berge-degree machinery, confmodel samples
the random sparse layers, gadgets builds the fixed blocks, assembler
plans and assembles full witnesses for a requested edge count, checker
certifies the results, and oracle provides the independent brute-force
ground truth used by the test suite.
"""

from .assembler import (
    Verdict,
    build_spectrum_witness,
    ex_formula,
    sat_formula,
)
from .checker import (
    VerifyReport,
    aggressive_sufficient,
    classify_aggressive,
    is_berge_free,
    is_saturated,
)
from .hypercore import (
    FormatError,
    Hypergraph3,
    InternalError,
    berge_degree,
    berge_witness,
    link,
    make,
    read_h3,
    read_json,
    write_h3,
    write_json,
)
from .confmodel import (
    DegreeSpec,
    NoDisjointPair,
    SamplerBudgetError,
    degree_spec,
    sample_linear,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeSpec",
    "FormatError",
    "Hypergraph3",
    "InternalError",
    "NoDisjointPair",
    "SamplerBudgetError",
    "Verdict",
    "VerifyReport",
    "aggressive_sufficient",
    "berge_degree",
    "berge_witness",
    "build_spectrum_witness",
    "classify_aggressive",
    "degree_spec",
    "ex_formula",
    "is_berge_free",
    "is_saturated",
    "link",
    "make",
    "read_h3",
    "read_json",
    "sample_linear",
    "sat_formula",
    "write_h3",
    "write_json",
    "__version__",
]
