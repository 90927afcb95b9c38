"""Independent closed-form reference for the ten measures, summed exactly.

The factors are written out here again, not taken from the library, so
the check does not depend on how the library represents its kernels.
Each of the n B-products and n^2 C-products is rounded once to float64 and
then summed with ``math.fsum``; for n a power of two the 2/n and 1/n^2
scalings are exact, so the only error left is the rounding of each
product.  This is the ``math.fsum`` reference the evaluator is held to.
"""

from __future__ import annotations

import math

import numpy as np


def _abs_half(x):
    return np.abs(x - 0.5)


# measure -> (A(d), B(x) or None, C(x, z)); B None means no B term (per).
_PLAIN = {
    "star": (lambda d: 3.0 ** -d,
             lambda x: (1.0 - x * x) / 2.0,
             lambda x, z: 1.0 - np.maximum(x, z)),
    "ext": (lambda d: 12.0 ** -d,
            lambda x: x * (1.0 - x) / 2.0,
            lambda x, z: np.minimum(x, z) - x * z),
    "per": (lambda d: -(3.0 ** -d),
            None,
            lambda x, z: 0.5 - np.abs(x - z) + (x - z) ** 2),
    "ctr": (lambda d: 12.0 ** -d,
            lambda x: (_abs_half(x) - (x - 0.5) ** 2) / 2.0,
            lambda x, z: (_abs_half(x) + _abs_half(z) - np.abs(x - z)) / 2.0),
    "cad": (lambda d: 12.0 ** -d,
            lambda x: x * (1.0 - x) / 2.0,
            lambda x, z: ((x >= 0.5) == (z >= 0.5))
            * np.minimum(np.where(x >= 0.5, 1.0 - x, x),
                         np.where(z >= 0.5, 1.0 - z, z))),
    "sym": (lambda d: 12.0 ** -d,
            lambda x: x * (1.0 - x) / 2.0,
            lambda x, z: (1.0 - 2.0 * np.abs(x - z)) / 4.0),
    "mix": (lambda d: (7.0 / 12.0) ** d,
            lambda x: 2.0 / 3.0 - _abs_half(x) / 4.0 - (x - 0.5) ** 2 / 4.0,
            lambda x, z: 7.0 / 8.0 - (_abs_half(x) + _abs_half(z)) / 4.0
            - 0.75 * np.abs(x - z) + 0.5 * (x - z) ** 2),
    "asd": (lambda d: 3.0 ** -d,
            lambda x: (1.0 + 2.0 * x - 2.0 * x * x) / 4.0,
            lambda x, z: (1.0 - np.abs(x - z)) / 2.0),
}


def _kernel(measure: str, d: int, gamma):
    """(A, B(x, j) or None, C(x, z, j)) of one measure in d coordinates."""
    if measure in _PLAIN:
        a_of_d, b, c = _PLAIN[measure]
        return (a_of_d(d), None if b is None else (lambda x, j: b(x)),
                lambda x, z, j: c(x, z))
    g = np.asarray(gamma, dtype=np.float64)
    a = float(np.prod(1.0 + g / 12.0))
    if measure == "ctr_weighted":
        def b(x, j):
            u = _abs_half(x)
            return 1.0 + (g[j] / 2.0) * (u - u * u)

        def c(x, z, j):
            return 1.0 + (g[j] / 2.0) * (_abs_half(x) + _abs_half(z) - np.abs(x - z))
    else:  # sym_weighted
        def b(x, j):
            return 1.0 + (g[j] / 2.0) * x * (1.0 - x)

        def c(x, z, j):
            return 1.0 + (g[j] / 4.0) * (1.0 - 2.0 * np.abs(x - z))
    return a, b, c


def _fsum(arr: np.ndarray) -> float:
    return math.fsum(memoryview(np.ascontiguousarray(arr, dtype=np.float64)).cast("B").cast("d"))


def reference(measure: str, coords: np.ndarray, gamma=None) -> tuple[float, float]:
    """Squared discrepancy of ``coords`` under ``measure`` by exact summation,
    and the magnitude |A| + 2|sum B|/n + |sum C|/n^2 of the terms that cancel
    in it."""
    coords = np.asarray(coords, dtype=np.float64)
    n, d = coords.shape
    a, bcol, ccol = _kernel(measure, d, gamma)
    terms = [a]
    if bcol is not None:
        bprod = np.ones(n)
        for j in range(d):
            bprod = bprod * bcol(coords[:, j], j)
        terms.append(-2.0 * _fsum(bprod) / n)
    cprod = np.ones((n, n))
    for j in range(d):
        col = coords[:, j]
        cprod = cprod * ccol(col[:, None], col[None, :], j)
    terms.append(_fsum(cprod) / (n * n))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)
