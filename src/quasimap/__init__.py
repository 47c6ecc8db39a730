"""Exact toric residue calculus for the quasi-map moduli of P(1,1,1,3).

The package constructs the fan, Chow ring and volume form of the degree-d
two-pointed quasi-map moduli of the weighted projective space P(1,1,1,3),
evaluates its intersection numbers by iterated multivariate residues in exact
rational arithmetic, and checks that they reproduce the expansion
coefficients of the inverse function of -log(j) and hence the Fourier
coefficients of the j-invariant.
"""
