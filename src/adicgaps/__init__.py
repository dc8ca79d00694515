"""Finite combinatorics of multiple gaps on n-adic trees.

Subpackages cover the tree of finite words and its structural equivalences
(:mod:`adicgaps.tree`), comb configurations and their induced maps
(:mod:`adicgaps.combs`), chain/comb type descriptors (:mod:`adicgaps.types`),
tree embeddings (:mod:`adicgaps.embeddings`), the candidate-embedding search
shared by the record-layer order and breaking (:mod:`adicgaps.search`), gap
presentations and the strong order (:mod:`adicgaps.gaps`), and breaking
analysis (:mod:`adicgaps.breaking`).
"""

__version__ = "0.1.0"
