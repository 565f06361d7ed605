"""Construction and certification of Berge-star-saturated 3-graphs.

The package splits along the lifecycle of a witness: hypercore holds the
edge-list data structure and Berge-degree machinery, confmodel samples
the random sparse layers, gadgets builds the fixed blocks, assembler
plans and assembles full witnesses for a requested edge count, checker
certifies the results, and oracle provides the independent brute-force
ground truth used by the test suite.
"""

__version__ = "0.1.0"
