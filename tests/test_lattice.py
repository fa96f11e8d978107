import numpy as np
import pytest

from wegnerlab.errors import DimensionMismatchError
from wegnerlab.lattice import (
    Cube,
    Site,
    coords_array,
    enumerate_sites,
    index_of,
    one_norm,
    site_at,
    sup_norm,
)


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
    assert one_norm(a, a) == 0


def test_norms_direct_cases():
    a = Site(2, 1, (0, 0))
    b = Site(2, 1, (3, -1))
    assert sup_norm(a, b) == 3
    assert one_norm(a, b) == 4
    c = Site(1, 2, (1, 1))
    d = Site(1, 2, (2, 2))
    assert sup_norm(c, d) == 1
    assert one_norm(c, d) == 2


def test_norms_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        sup_norm(Site(1, 1, (0,)), Site(2, 1, (0, 0)))
    with pytest.raises(DimensionMismatchError):
        one_norm(Site(1, 2, (0, 0)), Site(2, 1, (0, 0)))


def test_norm_inequality_chain():
    # sup <= one <= nd * sup on random pairs
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        a = Site(n, d, tuple(rng.integers(-10, 10, n * d).tolist()))
        b = Site(n, d, tuple(rng.integers(-10, 10, n * d).tolist()))
        s, o = sup_norm(a, b), one_norm(a, b)
        assert s <= o <= n * d * s or (s == 0 and o == 0)


def test_radius_zero_cube():
    cube = Cube(Site(1, 1, (5,)), 0)
    assert enumerate_sites(cube) == [Site(1, 1, (5,))]
    assert cube.site_count == 1


def test_enumeration_1d():
    cube = Cube(Site(1, 1, (0,)), 1)
    assert [s.coords for s in enumerate_sites(cube)] == [(-1,), (0,), (1,)]


def test_enumeration_two_particles_lexicographic():
    cube = Cube(Site(2, 1, (0, 0)), 1)
    sites = enumerate_sites(cube)
    assert len(sites) == 9
    assert sites[0].coords == (-1, -1)
    assert sites[-1].coords == (1, 1)
    flat = [s.coords for s in sites]
    assert flat == sorted(flat)


@pytest.mark.parametrize("n,d,L", [(1, 1, 3), (2, 1, 2), (1, 2, 2), (3, 1, 1), (2, 2, 1)])
def test_site_count_and_distinctness(n, d, L):
    cube = Cube(Site(n, d, (0,) * (n * d)), L)
    sites = enumerate_sites(cube)
    assert len(sites) == (2 * L + 1) ** (n * d) == cube.site_count
    assert len({s.coords for s in sites}) == len(sites)
    assert all(sup_norm(cube.center, s) <= L for s in sites)


@pytest.mark.parametrize("n,d,L", [(1, 1, 4), (2, 1, 2), (1, 2, 2), (3, 1, 1)])
def test_index_round_trip(n, d, L):
    cube = Cube(Site(n, d, tuple(range(n * d))), L)
    for k, site in enumerate(enumerate_sites(cube)):
        assert index_of(cube, site) == k
        assert site_at(cube, k) == site


def test_index_of_rejects_outside_site():
    cube = Cube(Site(1, 1, (0,)), 1)
    with pytest.raises(ValueError):
        index_of(cube, Site(1, 1, (2,)))


def test_coords_array_matches_enumeration():
    cube = Cube(Site(2, 1, (1, -1)), 1)
    arr = coords_array(cube)
    assert arr.shape == (9, 2)
    assert [tuple(r) for r in arr.tolist()] == [s.coords for s in enumerate_sites(cube)]


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
