"""Geometry of n-particle configuration space.

A configuration of n particles in Z^d is a flat integer vector of length
n*d; particle i occupies ``coords[i*d:(i+1)*d]``.  Cubes are sup-norm balls
around a center configuration and factor into a Cartesian product of n
single-particle cubes.  Sites of a cube are enumerated in lexicographic
order of the flat coordinate vector, which fixes the matrix index basis
used by every other module.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class Site:
    """One n-particle configuration in (Z^d)^n."""

    n: int
    d: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        coords = tuple(int(c) for c in self.coords)
        if len(coords) != self.n * self.d:
            raise ValueError(
                f"coords length {len(coords)} does not match n*d = {self.n * self.d}"
            )
        object.__setattr__(self, "coords", coords)


def _check_same_shape(a: Site, b: Site):
    if (a.n, a.d) != (b.n, b.d):
        raise DimensionMismatchError(
            f"sites have different shapes: (n={a.n}, d={a.d}) vs (n={b.n}, d={b.d})"
        )


def sup_norm(a: Site, b: Site) -> int:
    """max_i |a_i - b_i| over all n*d components."""
    _check_same_shape(a, b)
    return max(abs(x - y) for x, y in zip(a.coords, b.coords))


@dataclass(frozen=True)
class Cube:
    """Sup-norm ball of radius L around a center configuration.

    Only center and radius are stored; the site count grows as
    (2L+1)^(n*d), so the site list is never materialized here.
    """

    center: Site
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "radius", int(self.radius))

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side ** (self.center.n * self.center.d)

    def field_region(self) -> np.ndarray:
        """Union over particles of the single-particle cube points in Z^d.

        A lexicographically sorted (m, d) int64 array of distinct points.
        """
        return np.unique(self.particle_points().reshape(-1, self.center.d), axis=0)

    def particle_points(self) -> np.ndarray:
        """(n, side^d, d) int64 array: the points of each single-particle cube.

        Particle i's points are in lexicographic order, which is the order
        of that particle's digit in the cube enumeration.
        """
        d = self.center.d
        offsets = np.indices((self.side,) * d, dtype=np.int64).reshape(d, -1).T - self.radius
        return np.asarray(self.center.coords, dtype=np.int64).reshape(-1, 1, d) + offsets


def coords_array(cube: Cube) -> np.ndarray:
    """(site_count, n*d) int64 array of cube sites in lexicographic order."""
    nd = cube.center.n * cube.center.d
    offsets = np.indices((cube.side,) * nd, dtype=np.int64).reshape(nd, -1).T
    return offsets + (np.asarray(cube.center.coords, dtype=np.int64) - cube.radius)
