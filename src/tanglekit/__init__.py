"""Tangles of finite abstract separation systems, with brute-force oracles.

Separation systems, universes, order-function refinement, forbidden families,
tangle structure trees, tangle-tree duality and trees of tangles, all at desk
scale with exact rational arithmetic.
"""

__version__ = "0.1.0"
