"""Exact engine for the rank-one symplectic reflection algebra.

Normal-form multiplication in the algebra generated by z, zb and the
reflection g over Q(i)[h1, h1^-1, h2], the induced star product on invariant
polynomials, the closed-form trace with constructive commutator
certificates, characteristic-class generating functions, and a CLI.
"""
