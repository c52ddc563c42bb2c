"""Orthonormal 8x8 DCT-II, the block transform of baseline JPEG.

Forward: S(u,v) = 1/4 C(u) C(v) sum_xy s(x,y) cos((2x+1)u pi/16) cos((2y+1)v pi/16)
with C(0) = 1/sqrt(2) and C(k>0) = 1.  Implemented as the separable matrix
product B s B^T, which is exactly the orthonormal form of that definition.
"""

import numpy as np

BLOCK_SIZE = 8


def _basis_matrix(n=BLOCK_SIZE):
    m = np.zeros((n, n))
    for u in range(n):
        scale = np.sqrt(1.0 / n) if u == 0 else np.sqrt(2.0 / n)
        for x in range(n):
            m[u, x] = scale * np.cos((2 * x + 1) * u * np.pi / (2 * n))
    return m


_BASIS = _basis_matrix()
# A contiguous copy of the transpose: matmul takes a faster kernel for it
# than for the ``_BASIS.T`` view, with equal results (tests/test_dct.py).
_BASIS_T = np.ascontiguousarray(_BASIS.T)


def forward_dct(block):
    """Transform one 8x8 pixel block (or a (..., 8, 8) batch) to coefficients."""
    block = np.asarray(block, dtype=np.float64)
    return _BASIS @ block @ _BASIS_T


def inverse_dct(coeffs):
    """Exact adjoint of :func:`forward_dct`; returns real-valued samples."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return _BASIS.T @ coeffs @ _BASIS


def forward_dct_rows(samples):
    """Transform every block of an (8k, 8m) strip, keeping its row layout.

    Equals :func:`forward_dct` per block, bit for bit (tests/test_dct.py).
    The second product must stay one 2-D product: a batched (..., m, 8)
    one changes bits at m = 1.
    """
    height, width = samples.shape
    cols = _BASIS @ samples.reshape(height // BLOCK_SIZE, BLOCK_SIZE, width)
    return (cols.reshape(-1, BLOCK_SIZE) @ _BASIS_T).reshape(height, width)


def inverse_dct_rows(coeffs):
    """Exact adjoint of :func:`forward_dct_rows`; equals :func:`inverse_dct` per block."""
    height, width = coeffs.shape
    cols = _BASIS.T @ coeffs.reshape(height // BLOCK_SIZE, BLOCK_SIZE, width)
    return (cols.reshape(-1, BLOCK_SIZE) @ _BASIS).reshape(height, width)
