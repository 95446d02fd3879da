import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snaklat import lattice, model, solver
from snaklat.lattice import (
    OFFSITE,
    ONSITE,
    Field,
    apply_element,
    fold,
    full_square,
    group_elements,
    laplacian_matrix,
    orbit,
    orbit_size,
    orbit_weights,
    symmetric_form,
    unfold,
    wedge,
)


def brute_orbit(site, symmetry):
    return {apply_element(g, *site) for g in group_elements(symmetry)}


class TestGridSpec:
    def test_wedge_size(self):
        for n_d in (1, 2, 5, 20):
            g = wedge(n_d, OFFSITE)
            assert g.size == n_d * (n_d + 1) // 2
            assert len(g.sites()) == g.size

    def test_full_square_sizes(self):
        assert full_square(5, OFFSITE).size == 100  # (2 N_d)^2
        assert full_square(5, ONSITE).size == 81    # (2 N_d - 1)^2

    def test_full_square_windows(self):
        g = full_square(4, OFFSITE)
        assert (g.n_min, g.n_max) == (-3, 4)
        g = full_square(4, ONSITE)
        assert (g.n_min, g.n_max) == (-2, 4)

    def test_symmetry_none_only_full(self):
        # every grid has a center; the full square is the orbit space of
        # the trivial group
        with pytest.raises(ValueError):
            lattice.GridSpec(4, None)
        with pytest.raises(ValueError):
            lattice.GridSpec(4, OFFSITE, ("e", "r90"))  # not a subgroup
        g = lattice.GridSpec(4, ONSITE, ("e",))
        assert g == full_square(4, ONSITE)
        assert np.array_equal(orbit_weights(g), np.ones(g.size))

    def test_index_roundtrip(self):
        for g in (wedge(6, ONSITE), full_square(3, OFFSITE), full_square(3, ONSITE)):
            for i, (n, m) in enumerate(g.sites()):
                assert g.index(n, m) == i


class TestSymmetryAction:
    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_generators_are_involutions(self, symmetry):
        elems = group_elements(symmetry)
        # reflections mv (index 4) and md (index 6) generate the group
        for g in (elems[4], elems[6]):
            for site in [(3, 1), (2, 2), (-1, 4), (0, 0)]:
                assert apply_element(g, *apply_element(g, *site)) == site

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_orbit_sizes_divide_eight(self, symmetry):
        for site in [(1, 1), (2, 1), (3, 2), (4, 4), (5, 1)]:
            assert 8 % orbit_size(site, symmetry) == 0

    def test_orbit_examples(self):
        assert orbit_size((3, 2), OFFSITE) == 8   # interior, off-axis
        assert orbit_size((3, 1), OFFSITE) == 8
        assert orbit_size((4, 4), OFFSITE) == 4   # diagonal
        assert orbit_size((1, 1), ONSITE) == 1    # fixed point of on-site action
        assert orbit_size((1, 1), OFFSITE) == 4

    def test_orbit_matches_brute_force(self):
        for symmetry in (OFFSITE, ONSITE):
            for site in [(2, 1), (3, 3), (5, 2), (1, 1)]:
                assert set(orbit(site, symmetry)) == brute_orbit(site, symmetry)

    def test_onsite_orbit_of_2_1(self):
        assert set(orbit((2, 1), ONSITE)) == {(2, 1), (0, 1), (1, 2), (1, 0)}

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_fold_site_lands_in_wedge_uniquely(self, symmetry):
        # each full-square site unfolds from one wedge site of its orbit
        g = wedge(5, symmetry)
        index = unfold(Field(g, np.arange(g.size))).values.astype(int)
        for (n, m), i in zip(full_square(5, symmetry).sites(), index):
            fn, fm = g.sites()[i]
            assert 1 <= fm <= fn
            assert (fn, fm) in brute_orbit((n, m), symmetry)
            in_wedge = [s for s in brute_orbit((n, m), symmetry) if 1 <= s[1] <= s[0]]
            assert set(in_wedge) == {(fn, fm)}


class TestUnfold:
    def test_unfold_corner_offsite(self):
        g = wedge(2, OFFSITE)
        u = lattice.zeros(g)
        u.values[g.index(1, 1)] = 1.0
        full = unfold(u)
        ones = {tuple(s) for s, v in zip(full.grid.sites(), full.values) if v == 1.0}
        assert ones == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_unfold_orbit8_offsite(self):
        g = wedge(4, OFFSITE)
        u = lattice.zeros(g)
        u.values[g.index(2, 1)] = 1.0
        full = unfold(u)
        ones = {tuple(s) for s, v in zip(full.grid.sites(), full.values) if v == 1.0}
        assert ones == brute_orbit((2, 1), OFFSITE)
        assert len(ones) == 8

    def test_unfold_orbit4_onsite(self):
        g = wedge(4, ONSITE)
        u = lattice.zeros(g)
        u.values[g.index(2, 1)] = 1.0
        full = unfold(u)
        ones = {tuple(s) for s, v in zip(full.grid.sites(), full.values) if v == 1.0}
        assert ones == {(2, 1), (0, 1), (1, 2), (1, 0)}

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_fold_unfold_roundtrip(self, symmetry):
        rng = np.random.default_rng(7)
        g = wedge(5, symmetry)
        u = Field(g, rng.standard_normal(g.size))
        assert np.array_equal(fold(unfold(u), g).values, u.values)

    @settings(max_examples=40, deadline=None)
    @given(symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_fold_unfold_roundtrip_property(self, symmetry, n_d, seed):
        g = wedge(n_d, symmetry)
        u = Field(g, np.random.default_rng(seed).standard_normal(g.size))
        assert np.array_equal(fold(unfold(u), g).values, u.values)

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_unfolded_field_is_invariant(self, symmetry):
        rng = np.random.default_rng(8)
        g = wedge(5, symmetry)
        full = unfold(Field(g, rng.standard_normal(g.size)))
        for p in lattice.action_permutations(full.grid):
            assert np.array_equal(full.values[p], full.values)


class TestLaplacian:
    @pytest.mark.parametrize(
        "grid",
        [wedge(5, OFFSITE), wedge(5, ONSITE), full_square(4, OFFSITE),
         full_square(4, ONSITE), lattice.GridSpec(4, OFFSITE, ("e", "md"))],
    )
    def test_annihilates_constants(self, grid):
        out = laplacian_matrix(grid) @ lattice.constant(grid, 3.7).values
        assert np.allclose(out, 0.0, atol=1e-13)

    @pytest.mark.parametrize(
        "grid",
        [wedge(5, OFFSITE), wedge(5, ONSITE), full_square(4, OFFSITE)],
    )
    def test_row_sums_zero(self, grid):
        lap = laplacian_matrix(grid)
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_impulse_stencil_offsite(self):
        g = wedge(5, OFFSITE)
        u = lattice.zeros(g)
        u.values[g.index(3, 2)] = 1.0
        out = Field(g, laplacian_matrix(g) @ u.values)
        assert out[(3, 2)] == -4.0
        assert out[(4, 2)] == 1.0
        assert out[(3, 1)] == 1.0
        # the diagonal rows (2,2) and (3,3) see (3,2) twice: directly and
        # through a folded neighbor; multiplicity accumulates
        assert out[(2, 2)] == 2.0
        assert out[(3, 3)] == 2.0

    def test_bottom_row_offsite_diagonal(self):
        # ghost u_{n,0} = u_{n,1} absorbs one connection
        g = wedge(5, OFFSITE)
        lap = laplacian_matrix(g).toarray()
        i = g.index(3, 1)
        assert lap[i, i] == -3.0

    def test_bottom_row_onsite_weight(self):
        # on-site symmetry maps (n,0) to (n,2): weight 2 on u_{n,2}
        g = wedge(5, ONSITE)
        lap = laplacian_matrix(g).toarray()
        i = g.index(3, 1)
        assert lap[i, i] == -4.0
        assert lap[i, g.index(3, 2)] == 2.0

    def test_corner_multiplicity_offsite(self):
        # two neighbors of (1,1) fold onto (1,1) itself, two onto (2,1)
        g = wedge(5, OFFSITE)
        lap = laplacian_matrix(g).toarray()
        i = g.index(1, 1)
        assert lap[i, i] == -2.0
        assert lap[i, g.index(2, 1)] == 2.0

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_commutes_with_unfold(self, symmetry):
        rng = np.random.default_rng(11)
        g = wedge(6, symmetry)
        u = Field(g, rng.standard_normal(g.size))
        full = unfold(u)
        lhs = unfold(Field(g, laplacian_matrix(g) @ u.values))
        rhs = laplacian_matrix(full.grid) @ full.values
        assert np.allclose(lhs.values, rhs, atol=1e-12)

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_full_square_matrix_symmetric(self, symmetry):
        lap = laplacian_matrix(full_square(4, symmetry))
        assert abs(lap - lap.T).max() == 0.0

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_wedge_weighted_self_adjointness(self, symmetry):
        # D L = L^T D with D the orbit weights, hence the similarity
        # transform is exactly symmetric
        g = wedge(6, symmetry)
        lap = laplacian_matrix(g)
        w = orbit_weights(g)
        lhs = (lap.T.multiply(w)).toarray()
        rhs = (lap.multiply(w[:, None])).toarray()
        assert np.allclose(lhs, rhs.T, atol=1e-12)
        sym = symmetric_form(lap, w)
        assert abs(sym - sym.T).max() == 0.0
        # same spectrum as the action matrix
        ev_a = np.sort(np.linalg.eigvals(lap.toarray()).real)
        ev_s = np.sort(np.linalg.eigvalsh(sym.toarray()))
        assert np.allclose(ev_a, ev_s, atol=1e-9)


SUBGROUPS = (lattice.D4, ("e", "r90", "r180", "r270"),
             ("e", "r180", "mv", "mh"), ("e", "r180", "md", "ma"),
             ("e", "md"), ("e", "mh"), ("e",))
ORBIT_SPACES = ([(group, "trivial") for group in SUBGROUPS]
                + [(lattice.D4, rep) for rep in ("sign1", "sign2", "sign3")])


class TestOrbitSpaceProperties:
    @settings(max_examples=60, deadline=None)
    @given(space=st.sampled_from(ORBIT_SPACES),
           symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_grid_is_the_orbit_space(self, space, symmetry, n_d, seed):
        group, rep = space
        g = lattice.GridSpec(n_d, symmetry, group, rep)
        full = full_square(n_d, symmetry)
        rng = np.random.default_rng(seed)
        v = Field(g, rng.standard_normal(g.size))
        big = unfold(v)
        assert np.array_equal(fold(big, g).values, v.values)
        lap = laplacian_matrix(g)
        assert np.allclose(unfold(Field(g, lap @ v.values)).values,
                           laplacian_matrix(full) @ big.values,
                           rtol=0, atol=1e-12)
        # D L is exactly symmetric, so symmetric_form only removes rounding
        w = orbit_weights(g)
        dl = lap.multiply(w[:, None]).tocsr()
        assert (dl != dl.T).nnz == 0
        sym = symmetric_form(lap, w)
        assert (sym != sym.T).nnz == 0
        # the residual is equivariant (the cubic-quintic is odd)
        u = Field(g, rng.uniform(-1.3, 1.3, g.size))
        nl, mu, d = model.cubic_quintic(), 0.6, rng.uniform(0.01, 1.0)
        assert np.allclose(unfold(solver.residual(u, nl, mu, d)).values,
                           solver.residual(unfold(u), nl, mu, d).values,
                           rtol=0, atol=1e-12)
        # a generic field is fixed by the kernel of chi on Sigma alone, once
        # the window has a site of trivial stabilizer (all but on-site N_d=2)
        if (symmetry, n_d) != (ONSITE, 2):
            chars = lattice.CHARACTERS[rep]
            assert lattice.isotropy(v) == tuple(
                name for name, chi in zip(lattice.element_names(), chars)
                if name in group and chi == 1)

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    @pytest.mark.parametrize("space", ORBIT_SPACES)
    def test_laplacian_band_fits_twice_the_half_width(self, space, symmetry):
        # the banded LU of every Newton step costs O(n N_d^2) only because
        # the natural site order keeps the stencil within this band
        for n_d in range(1, 26):
            g = lattice.GridSpec(n_d, symmetry, *space)
            lap = laplacian_matrix(g).tocoo()
            offset = lap.col.astype(int) - lap.row
            assert np.max(offset, initial=0) <= 2 * n_d
            assert np.max(-offset, initial=0) <= 2 * n_d


class TestProfileIO:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        u = Field(wedge(4, ONSITE), rng.standard_normal(10))
        path = tmp_path / "profile.json"
        lattice.save_profile(u, path)
        v = lattice.load_profile(path)
        assert v.grid == u.grid
        assert np.array_equal(v.values, u.values)
        obj = json.loads(path.read_text())
        assert obj["grid"] == {"kind": "wedge", "N_d": 4, "symmetry": "onsite"}

    def test_full_square_without_symmetry_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        g = full_square(3, ONSITE)
        u = Field(g, rng.standard_normal(g.size))
        path = tmp_path / "asym.json"
        lattice.save_profile(u, path)
        v = lattice.load_profile(path)
        assert v.grid == g
        assert np.array_equal(v.values, u.values)

    def test_csv_export(self, tmp_path):
        u = lattice.constant(wedge(2, OFFSITE), 1.5)
        path = tmp_path / "profile.csv"
        lattice.export_csv(u, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,m,value"
        assert len(lines) == 1 + u.grid.size
        assert lines[1].startswith("1,1,")
