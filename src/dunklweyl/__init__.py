"""Exact engine for the rank-one symplectic reflection algebra.

Normal-form multiplication in the algebra generated by z, zb and the
reflection g over Q(i)[h1, h1^-1, h2], the induced star product on invariant
polynomials, the closed-form trace with constructive commutator
certificates, characteristic-class generating functions, and a CLI.
"""

# The verify suites in run order: the CLI's choices and the keys of the suites' runner table.
SUITE_NAMES = ("relations", "trace", "hh0", "degeneration", "euler", "chphi", "series", "roundtrip")
