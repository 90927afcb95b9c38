"""Point-set generators: Sobol', IID sampling, lattices, grids.

Everything is deterministic given its arguments.  Random generators use the
counter-based Philox bit generator keyed by an explicit integer seed, so the
same (n, d, seed) always yields the same matrix, independent of call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PointSet, ValidationError, check_count, check_point, check_seed

__all__ = [
    "DirectionNumbers",
    "iid_uniform",
    "sobol",
    "replicated_point",
    "fibonacci_lattice",
    "grid",
]

# Direction-number rows for dimensions 2..16 in the standard file format
# "d s a m_1 ... m_s": primitive-polynomial degree s, interior coefficient
# bits a, and the first s odd initial values m_i < 2^i.  Dimension 1 is the
# van der Corput sequence (all m_i = 1) and needs no row.
_DEFAULT_ROWS = """\
2 1 0 1
3 2 1 1 3
4 3 1 1 3 1
5 3 2 1 1 1
6 4 1 1 1 3 3
7 4 4 1 3 5 13
8 5 2 1 1 5 5 17
9 5 4 1 1 5 5 5
10 5 7 1 1 7 11 19
11 5 11 1 1 5 1 1
12 5 13 1 1 1 3 11
13 5 14 1 3 5 5 31
14 6 1 1 3 3 9 7 49
15 6 13 1 1 1 15 21 21
16 6 16 1 3 1 13 27 49
"""


@dataclass(frozen=True)
class DirectionNumbers:
    """Sobol' direction-number table: one (s, a, m) row per dimension >= 2.

    ``rows[k]`` holds dimension k+2.  The supported dimension count is
    ``len(rows) + 1`` (dimension 1 is implicit van der Corput).
    """

    rows: tuple

    def __post_init__(self) -> None:
        for idx, (s, a, m) in enumerate(self.rows):
            dim = idx + 2
            if s < 1 or len(m) != s:
                raise ValidationError(
                    f"direction row for dimension {dim}: need s >= 1 initial "
                    f"values m_1..m_s, got s={s} with {len(m)} values"
                )
            if not 0 <= a < 1 << (s - 1):
                # coefficient bits a_1..a_{s-1}; degree-1 polynomials have none
                raise ValidationError(
                    f"direction row for dimension {dim}: coefficient {a} "
                    f"out of range for degree {s}"
                )
            for i, mi in enumerate(m, start=1):
                if mi % 2 == 0 or not (0 < mi < (1 << i)):
                    raise ValidationError(
                        f"direction row for dimension {dim}: m_{i}={mi} must "
                        f"be odd and in (0, 2^{i})"
                    )

    @property
    def max_dimension(self) -> int:
        return len(self.rows) + 1

    @classmethod
    def default(cls) -> "DirectionNumbers":
        return cls.from_text(_DEFAULT_ROWS, header=False)

    @classmethod
    def from_text(cls, text: str, header: bool = True) -> "DirectionNumbers":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if header:
            lines = lines[1:]
        rows = []
        expected_dim = 2
        for ln in lines:
            parts = ln.split()
            try:
                nums = [int(p) for p in parts]
            except ValueError:
                raise ValidationError(f"malformed direction-number line: {ln!r}") from None
            if len(nums) < 4:
                raise ValidationError(f"direction-number line too short: {ln!r}")
            dim, s, a, m = nums[0], nums[1], nums[2], nums[3:]
            if dim != expected_dim:
                raise ValidationError(
                    f"direction-number rows must cover dimensions 2,3,... in "
                    f"order; expected {expected_dim}, got {dim}"
                )
            rows.append((s, a, tuple(m)))
            expected_dim += 1
        if not rows:
            raise ValidationError("direction-number table is empty")
        return cls(rows=tuple(rows))

    @classmethod
    def from_file(cls, path) -> "DirectionNumbers":
        """Load a table in the standard one-header-line text format."""
        return cls.from_text(Path(path).read_text(), header=True)


def _direction_integers(dirs: DirectionNumbers, dim_index: int, bits: int) -> np.ndarray:
    """Direction integers V_1..V_bits for one dimension, scaled to 2^bits."""
    m = [0] * (bits + 1)  # 1-based
    if dim_index == 0:
        for k in range(1, bits + 1):
            m[k] = 1
    else:
        s, a, m_init = dirs.rows[dim_index - 1]
        for k in range(1, min(s, bits) + 1):
            m[k] = m_init[k - 1]
        for k in range(s + 1, bits + 1):
            acc = (m[k - s] << s) ^ m[k - s]
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    acc ^= m[k - i] << i
            m[k] = acc
    v = np.zeros(bits, dtype=np.uint64)
    for k in range(1, bits + 1):
        v[k - 1] = np.uint64(m[k] << (bits - k))
    return v


def sobol(n: int, d: int, direction_numbers: "DirectionNumbers | None" = None) -> PointSet:
    """First n points of the unscrambled Sobol' sequence in d dimensions.

    Uses direct binary indexing (point i is the XOR of the direction
    integers selected by the binary digits of i), so the zero point is
    included and the ordering matches the standard published sequence
    rather than the Gray-code ordering some libraries emit.  Coordinates
    are exact dyadic rationals with denominator 2^ceil(log2 n).
    """
    n, d = check_count("n", n, 1), check_count("d", d, 1)
    dirs = direction_numbers if direction_numbers is not None else DirectionNumbers.default()
    if d > dirs.max_dimension:
        raise ValidationError(
            f"direction-number table covers {dirs.max_dimension} dimensions, "
            f"but d={d} was requested"
        )
    bits = max(1, (n - 1).bit_length())
    idx = np.arange(n, dtype=np.uint64)
    coords = np.empty((n, d))
    scale = math.ldexp(1.0, -bits)  # exact 2^-bits
    one = np.uint64(1)
    for j in range(d):
        v = _direction_integers(dirs, j, bits)
        acc = np.zeros(n, dtype=np.uint64)
        for t in range(bits):
            mask = ((idx >> np.uint64(t)) & one).astype(bool)
            acc[mask] ^= v[t]
        coords[:, j] = acc.astype(np.float64) * scale
    return PointSet(coords)


def iid_uniform(n: int, d: int, seed: int) -> PointSet:
    """n IID uniform points on [0,1)^d from a Philox stream keyed by seed."""
    n, d = check_count("n", n, 1), check_count("d", d, 1)
    gen = np.random.Generator(np.random.Philox(check_seed(seed)))
    return PointSet(gen.random((n, d)))


def replicated_point(p, n: int) -> PointSet:
    """n copies of a single point (degenerate designs used by diagnostics);
    a 2-d array is refused, not flattened into one point."""
    n = check_count("n", n, 1)
    return PointSet(np.repeat(check_point("point p", p)[None], n, axis=0))


def fibonacci_lattice(n: int) -> PointSet:
    """Two-dimensional golden-ratio lattice {(i/n, frac(i*phi))}."""
    n = check_count("n", n, 1)
    i = np.arange(n, dtype=np.float64)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    coords = np.column_stack([i / n, np.mod(i * phi, 1.0)])
    return PointSet(coords)


def grid(k: int, d: int) -> PointSet:
    """Cell centers of the regular k^d grid: coordinates (i + 1/2) / k.

    Rows are emitted in row-major order of the index tuple, so the output
    order is deterministic.
    """
    k, d = check_count("k", k, 1), check_count("d", d, 1)
    axis = (np.arange(k, dtype=np.float64) + 0.5) / k
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    coords = np.column_stack([m.reshape(-1) for m in mesh])
    return PointSet(coords)
