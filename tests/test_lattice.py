import itertools

import numpy as np
import pytest

from wegnerlab.errors import DimensionMismatchError
from wegnerlab.lattice import Cube, Site, coords_array, sup_norm


def product_oracle(cube):
    """Cube sites listed by itertools.product: lexicographic by construction."""
    L = cube.radius
    axes = (range(c - L, c + L + 1) for c in cube.center.coords)
    return [list(p) for p in itertools.product(*axes)]


def test_site_validation():
    with pytest.raises(ValueError):
        Site(0, 1, ())
    with pytest.raises(ValueError):
        Site(2, 1, (0, 0, 0))
    s = Site(2, 2, (1, 2, 3, 4))
    assert s.particle(0) == (1, 2)
    assert s.particle(1) == (3, 4)


def test_norms_identity():
    a = Site(2, 1, (3, -1))
    assert sup_norm(a, a) == 0


def test_norms_direct_cases():
    a = Site(2, 1, (0, 0))
    b = Site(2, 1, (3, -1))
    assert sup_norm(a, b) == 3
    c = Site(1, 2, (1, 1))
    d = Site(1, 2, (2, 2))
    assert sup_norm(c, d) == 1


def test_norms_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        sup_norm(Site(1, 1, (0,)), Site(2, 1, (0, 0)))
    with pytest.raises(DimensionMismatchError):
        sup_norm(Site(1, 2, (0, 0)), Site(2, 1, (0, 0)))


def test_norm_inequality_chain():
    # sup <= l1 <= nd * sup on random pairs
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        a = Site(n, d, tuple(rng.integers(-10, 10, n * d).tolist()))
        b = Site(n, d, tuple(rng.integers(-10, 10, n * d).tolist()))
        s, o = sup_norm(a, b), sum(abs(x - y) for x, y in zip(a.coords, b.coords))
        assert s <= o <= n * d * s or (s == 0 and o == 0)


def test_radius_zero_cube():
    cube = Cube(Site(1, 1, (5,)), 0)
    assert coords_array(cube).tolist() == [[5]] == product_oracle(cube)
    assert cube.site_count == 1


def test_enumeration_1d():
    cube = Cube(Site(1, 1, (0,)), 1)
    assert coords_array(cube).tolist() == [[-1], [0], [1]] == product_oracle(cube)


def test_enumeration_two_particles_lexicographic():
    cube = Cube(Site(2, 1, (0, 0)), 1)
    sites = coords_array(cube).tolist()
    assert len(sites) == 9
    assert sites[0] == [-1, -1]
    assert sites[-1] == [1, 1]
    assert sites == sorted(sites) == product_oracle(cube)


@pytest.mark.parametrize("n,d,L", [(1, 1, 3), (2, 1, 2), (1, 2, 2), (3, 1, 1), (2, 2, 1)])
def test_site_count_and_distinctness(n, d, L):
    cube = Cube(Site(n, d, (0,) * (n * d)), L)
    sites = [Site(n, d, tuple(row)) for row in coords_array(cube).tolist()]
    assert len(sites) == (2 * L + 1) ** (n * d) == cube.site_count
    assert len({s.coords for s in sites}) == len(sites)
    assert all(sup_norm(cube.center, s) <= L for s in sites)


@pytest.mark.parametrize("n,d,L", [(1, 1, 4), (2, 1, 2), (1, 2, 2), (3, 1, 1)])
def test_index_round_trip(n, d, L):
    # row k of the site array is the k-th site in lexicographic order, i.e.
    # the mixed-radix digits of k in base 2L+1 shifted by center - L
    cube = Cube(Site(n, d, tuple(range(n * d))), L)
    arr = coords_array(cube)
    assert arr.tolist() == product_oracle(cube)
    shape = (cube.side,) * (n * d)
    digits = np.stack(np.unravel_index(np.arange(cube.site_count), shape), axis=1)
    assert np.array_equal(arr, digits + np.asarray(cube.center.coords) - L)


def test_coords_array_matches_enumeration():
    cube = Cube(Site(2, 1, (1, -1)), 1)
    arr = coords_array(cube)
    assert arr.shape == (9, 2)
    assert arr.dtype == np.int64
    assert arr.tolist() == product_oracle(cube)


def test_field_region_is_union_of_particle_boxes():
    cube = Cube(Site(2, 1, (0, 5)), 1)
    region = cube.field_region()
    assert region.dtype == np.int64
    assert region.tolist() == [[-1], [0], [1], [4], [5], [6]]
    # overlapping particle cubes contribute each point once, sorted lexicographically
    square = Cube(Site(2, 2, (0, 0, 1, -1)), 1).field_region()
    steps = (-1, 0, 1)
    expected = sorted(
        {(cx + x, cy + y) for cx, cy in ((0, 0), (1, -1)) for x in steps for y in steps}
    )
    assert [tuple(p) for p in square.tolist()] == expected


def test_particle_cube():
    cube = Cube(Site(2, 2, (0, 0, 3, 4)), 2)
    sub = cube.particle_cube(1)
    assert sub.center == Site(1, 2, (3, 4))
    assert sub.radius == 2
