"""Construction and certification of Berge-star-saturated 3-graphs.

The package splits along the lifecycle of a witness: hypercore holds the
edge-list data structure and Berge-degree machinery, confmodel samples
the random sparse layers, gadgets builds the fixed blocks, assembler
plans and assembles full witnesses for a requested edge count, checker
certifies the results, and oracle provides the independent brute-force
ground truth used by the test suite.

The names in ``__all__`` are exported lazily (PEP 562): ``bergesat.<name>``
imports the one submodule that defines it on first use, so a bare
``import bergesat`` loads no submodule and each CLI command loads only
the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in {
        "assembler": ("Verdict", "build_spectrum_witness", "ex_formula", "sat_formula"),
        "checker": ("VerifyReport", "aggressive_sufficient", "is_saturated"),
        "hypercore": ("FormatError", "Hypergraph3", "InternalError", "SamplerBudgetError",
                      "link", "make", "read_h3", "read_json", "write_h3", "write_json"),
        "confmodel": ("DegreeSpec", "degree_spec", "sample_linear"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
