"""Recovery of 1D signals from randomly undersampled 2D DCT coefficients.

Pipeline: embed the signal into a square matrix column-wise, take the
orthonormal 2D DCT, keep a random subset of zig-zag-ordered coefficients,
and recover the image by total-variation minimization under an exact
constraint on the kept coefficients.
"""

__version__ = "0.1.0"
