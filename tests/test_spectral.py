from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from snaklat import (codim2, continuation, lattice, model, solver, spectral,
                     studies)
from snaklat.lattice import OFFSITE, ONSITE, Field
from snaklat.model import PatternId, UBAR, VBAR, anti_continuum_pattern


def random_banded_symmetric(n, bw, rng, shift=0.0):
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - bw), i + 1):
            a[i, j] = a[j, i] = rng.standard_normal()
    return a + shift * np.eye(n)


class TestInertia:
    def test_ldl_matches_eigh(self):
        rng = np.random.default_rng(12)
        for n, bw in [(10, 1), (25, 3), (60, 7)]:
            a = random_banded_symmetric(n, bw, rng)
            ev = np.linalg.eigvalsh(a)
            n_pos, n_neg = spectral.ldl_inertia(sp.csr_matrix(a))
            assert n_pos == int(np.sum(ev > 0))
            assert n_neg == int(np.sum(ev < 0))

    def test_eigencount_above(self):
        rng = np.random.default_rng(14)
        a = random_banded_symmetric(30, 4, rng)
        ev = np.linalg.eigvalsh(a)
        for thr in (-1.0, 0.0, 0.5):
            assert spectral.eigencount_above(sp.csr_matrix(a), thr) == int(
                np.sum(ev > thr)
            )

    def test_breakdown_raises(self, monkeypatch):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(spectral.FactorizationFailure):
            spectral.ldl_inertia(a)
        # the declined count falls back to the dense eigensolve, once
        dense = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m) or dense(m))
        assert spectral.eigencount_above(a, 0.0) == 1
        assert spectral.eigencount_above(1e3 * a, 0.0) == 1
        assert len(calls) == 2


def random_sparse_symmetric(n, density, seed, zero_diagonal=0.0):
    """Sparse symmetric matrix with a fraction ``zero_diagonal`` of its
    diagonal left at zero."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal)
    a = sp.triu(a, k=1)
    diag = rng.standard_normal(n) * (rng.random(n) >= zero_diagonal)
    return (a + a.T + sp.diags(diag)).tocsr()


class TestInertiaProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), density=st.floats(0.02, 0.3),
           seed=st.integers(0, 2**32 - 1), shift=st.floats(-2.0, 2.0),
           shifted=st.booleans(), zero_diagonal=st.sampled_from([0, 0.5, 1]))
    def test_counts_match_eigvalsh(self, n, density, seed, shift, shifted,
                                   zero_diagonal):
        a = random_sparse_symmetric(n, density, seed, zero_diagonal)
        threshold = shift if shifted else 0.0
        ev = np.linalg.eigvalsh(a.toarray())
        # an eigenvalue on the threshold has no well-defined side
        assume(np.min(np.abs(ev - threshold)) > 1e-8 * max(1.0, np.max(
            np.abs(ev))))
        above = int(np.sum(ev > threshold))
        try:
            n_pos, n_neg = spectral.ldl_inertia(
                a - threshold * sp.eye(n, format="csr"))
        except spectral.FactorizationFailure:
            pass  # the checked fast path declined; the oracle path counts
        else:
            assert (n_pos, n_neg) == (above, n - above)
        assert spectral.eigencount_above(a, threshold) == above


def d4_state(n_d, symmetry, seed):
    """A random D4-symmetric state: a field on the wedge."""
    grid = lattice.wedge(n_d, symmetry)
    return Field(grid, np.random.default_rng(seed).uniform(-0.3, 1.3,
                                                          grid.size))


def block_grid(state, kind):
    """The full square, the wedge, a sign component or a mirror plane of
    the two-dimensional representation on the state's window."""
    grid = state.grid
    if kind == "full":
        return lattice.full_square(grid.half_width, grid.symmetry)
    if kind in lattice.MIRROR_PLANES:
        return lattice.GridSpec(grid.half_width, grid.symmetry,
                                *lattice.MIRROR_PLANES[kind])
    return replace(grid, rep=kind)


def oracle_matrix(grid, d, diag):
    return lattice.symmetric_form(solver.bordered_matrix(grid, d, diag),
                                  lattice.orbit_weights(grid))


class TestCountAbove:
    @settings(max_examples=80, deadline=None)
    @given(n_d=st.integers(2, 8), symmetry=st.sampled_from([OFFSITE, ONSITE]),
           kind=st.sampled_from(["full", "trivial", *lattice.SIGN_REPS,
                                 *lattice.MIRROR_PLANES]),
           seed=st.integers(0, 2**32 - 1), mu=st.floats(0.05, 0.95),
           d=st.floats(0.0, 0.2),
           threshold=st.one_of(
               st.sampled_from([0.0, codim2.NULLITY_TOL,
                                -codim2.NULLITY_TOL]),
               st.floats(-0.5, 0.5)))
    def test_count_matches_eigvalsh_of_block(self, n_d, symmetry, kind, seed,
                                             mu, d, threshold):
        nl = model.cubic_quintic()
        u = d4_state(n_d, symmetry, seed)
        grid = block_grid(u, kind)
        assume(grid.size > 0)  # some small sign components have no sites
        ev = np.linalg.eigvalsh(
            spectral.symmetric_block(u, nl, mu, d, grid).toarray())
        # an eigenvalue on the threshold has no well-defined side
        assume(np.min(np.abs(ev - threshold))
               > 1e-8 * max(1.0, np.max(np.abs(ev))))
        diag = spectral.block_diagonal(u, nl, mu, grid)
        assert spectral.count_above(grid, d, diag, threshold) == int(
            np.sum(ev > threshold))

    def check_declines_to_oracle(self, grid, d, diag, threshold):
        sym = oracle_matrix(grid, d, diag)
        with solver.counting() as stats:
            got = spectral.count_above(grid, d, diag, threshold)
        assert stats["inertia"] == {"banded": 0, "fallback": 1}
        assert got == spectral.eigencount_above(sym, threshold)
        assert got == int(np.sum(np.linalg.eigvalsh(sym.toarray())
                                 > threshold))

    def test_row_interchange_declines_to_oracle(self):
        # a diagonal of 0.1 against couplings of 1 and 2: partial pivoting
        # swaps rows in the first column already
        grid = lattice.wedge(4, OFFSITE)
        diag = 0.1 - lattice.laplacian_matrix(grid).diagonal()
        band = solver._band(grid)
        ab = band.image.copy()
        ab[:, band.kl + band.ku] += diag
        _, piv, info = lapack.dgbtrf(ab.T, band.kl, band.ku)
        assert info == 0 and not np.array_equal(piv, np.arange(grid.size))
        self.check_declines_to_oracle(grid, 1.0, diag, 0.0)

    @pytest.mark.parametrize("pivot", [0.0, 1e-20])
    def test_pivot_breakdown_declines_to_oracle(self, pivot):
        # at d = 0 the Jacobian is diag(f_u); f_u vanishes at one site
        grid = lattice.wedge(4, OFFSITE)
        diag = np.random.default_rng(3).uniform(-1.0, 1.0, grid.size)
        diag[5] = pivot
        self.check_declines_to_oracle(grid, 0.0, diag, 0.0)

    def test_growth_bound_declines_to_oracle(self, monkeypatch):
        monkeypatch.setattr(spectral, "LDL_GROWTH_MAX", 0.0)
        u = d4_state(5, ONSITE, 8)
        grid = block_grid(u, "sign3")
        nl = model.cubic_quintic()
        self.check_declines_to_oracle(
            grid, 1e-2, spectral.block_diagonal(u, nl, 0.5, grid), 0.0)

    def test_banded_count_builds_no_sparse_matrix(self, monkeypatch):
        nl = model.cubic_quintic()
        u = anti_continuum_pattern(PatternId(3, 1, UBAR, OFFSITE), 0.5, nl,
                                   n_d=6)
        grid = block_grid(u, "full")
        diag = spectral.block_diagonal(u, nl, 0.5, grid)
        want = int(np.sum(np.linalg.eigvalsh(
            oracle_matrix(grid, 1e-3, diag).toarray()) > 0))

        def refuse(*args, **kwargs):
            raise AssertionError("sparse path taken")

        monkeypatch.setattr(solver, "bordered_matrix", refuse)
        monkeypatch.setattr(lattice, "symmetric_form", refuse)
        monkeypatch.setattr(spectral.spla, "splu", refuse)
        with solver.counting() as stats:
            assert spectral.count_above(grid, 1e-3, diag, 0.0) == want
        assert stats["inertia"] == {"banded": 1, "fallback": 0}


@pytest.fixture(scope="module")
def small_snake():
    nl = model.cubic_quintic()
    return nl, studies.snake_branch(nl, 1e-3, n_d=6, max_folds=4)


class TestUnstableCountProperties:
    @settings(max_examples=25, deadline=None)
    @given(where=st.floats(0.0, 1.0))
    def test_snake_counts_match_dense_spectrum(self, small_snake, where):
        nl, branch = small_snake
        pt = branch.points[round(where * (len(branch.points) - 1))]
        rep = spectral.unstable_count(pt.u, nl, pt.mu, pt.d)
        ev = spectral.dense_spectrum(pt.u, nl, pt.mu, pt.d)
        assert rep.n_unstable == int(np.sum(ev > rep.tau))
        assert rep.n_zero == int(np.sum(np.abs(ev) < rep.tau))


class TestTagStability:
    def test_counts_match_the_sparse_oracle_at_every_point(self):
        nl = model.cubic_quintic()
        branch = studies.snake_branch(nl, 1e-3, n_d=8, max_folds=5)
        with solver.counting() as stats:
            continuation.tag_stability(branch, nl)
        assert (stats["inertia"]["banded"] + stats["inertia"]["fallback"]
                == len(branch.points))
        assert stats["inertia"]["banded"] > 0
        for pt in branch.points:
            u_full, jac = spectral.full_square_jacobian(pt.u, nl, pt.mu,
                                                        pt.d)
            tau = spectral.zero_band(nl.f_u(u_full.values, pt.mu), pt.d)
            assert pt.unstable_count == spectral.eigencount_above(jac, tau)


class TestUnstableCount:
    def test_decoupled_vbar_count_is_orbit_size(self):
        nl = model.cubic_quintic()
        v = anti_continuum_pattern(PatternId(3, 2, VBAR, OFFSITE), 0.5, nl, n_d=5)
        rep = spectral.unstable_count(v, nl, 0.5, 0.0)
        assert rep.n_unstable == 8
        assert rep.n_zero == 0
        v = anti_continuum_pattern(PatternId(3, 3, VBAR, OFFSITE), 0.5, nl, n_d=5)
        assert spectral.unstable_count(v, nl, 0.5, 0.0).n_unstable == 4
        v = anti_continuum_pattern(PatternId(1, 1, VBAR, ONSITE), 0.5, nl, n_d=4)
        assert spectral.unstable_count(v, nl, 0.5, 0.0).n_unstable == 1

    def test_decoupled_ubar_is_stable(self):
        nl = model.cubic_quintic()
        for N, M in [(1, 1), (3, 1), (4, 4)]:
            u = anti_continuum_pattern(PatternId(N, M, UBAR, OFFSITE), 0.5, nl,
                                       n_d=5)
            assert spectral.unstable_count(u, nl, 0.5, 0.0).n_unstable == 0

    def test_decoupled_spectrum_is_sitewise(self):
        nl = model.quadratic_cubic()
        u = anti_continuum_pattern(PatternId(2, 2, VBAR, OFFSITE), 0.4, nl, n_d=4)
        full = lattice.unfold(u)
        expect = np.sort(nl.f_u(full.values, 0.4))
        got = spectral.dense_spectrum(u, nl, 0.4, 0.0)
        assert np.allclose(got, expect, atol=1e-12)

    def test_inertia_agrees_with_dense_at_small_coupling(self):
        nl = model.cubic_quintic()
        for N, M, variant, expect in [(2, 1, VBAR, 8), (2, 2, VBAR, 4),
                                      (3, 1, UBAR, 0)]:
            u0 = anti_continuum_pattern(PatternId(N, M, variant, OFFSITE), 0.5,
                                        nl, n_d=6)
            u, _ = solver.newton_solve(u0, nl, 0.5, 1e-3)
            rep = spectral.unstable_count(u, nl, 0.5, 1e-3)
            ev = spectral.dense_spectrum(u, nl, 0.5, 1e-3)
            assert rep.n_unstable == int(np.sum(ev > rep.tau)) == expect

    def test_near_zero_pairs_extracted(self):
        # at d=0 and mu=1 every filled cell sits at the degenerate double root
        # u_-(1) = u_+(1) = 1: zero modes on the (1,1) orbit (4) and the (2,1)
        # orbit (8)
        nl = model.cubic_quintic()
        v = anti_continuum_pattern(PatternId(2, 1, VBAR, OFFSITE), 1.0, nl, n_d=4)
        rep = spectral.unstable_count(v, nl, 1.0, 0.0)
        assert rep.n_zero == 12
        _, jac = spectral.full_square_jacobian(v, nl, 1.0, 0.0)
        vals, vecs = spectral.eigenpairs_near_zero(jac, 12)
        assert np.all(np.abs(vals) < rep.tau)
        for lam, vec in zip(vals, vecs):
            assert np.max(np.abs(jac @ vec - lam * vec)) < 1e-8

    def test_report_json(self):
        nl = model.cubic_quintic()
        v = anti_continuum_pattern(PatternId(2, 1, VBAR, OFFSITE), 0.5, nl, n_d=4)
        rep = spectral.unstable_count(v, nl, 0.5, 0.0)
        assert rep.n_unstable == 8
        assert rep.n_zero == 0

    def test_report_json_tags_near_zero_modes(self):
        # at the decoupled window endpoint every filled cell is degenerate;
        # each symmetry block holds one zero mode per grid site on the
        # filled orbits of (1, 1) (size 4, fixed by md) and (2, 1) (size 8)
        nl = model.cubic_quintic()
        v = anti_continuum_pattern(PatternId(2, 1, VBAR, OFFSITE), 1.0, nl,
                                   n_d=4)
        rep = spectral.unstable_count(v, nl, 1.0, 0.0)
        assert rep.n_zero == 12
        grids = {r: replace(v.grid, rep=r)
                 for r in ("trivial",) + lattice.SIGN_REPS}
        grids.update({name: lattice.GridSpec(4, OFFSITE, *space)
                      for name, space in lattice.MIRROR_PLANES.items()})
        zeros = {}
        for name, grid in grids.items():
            sym = spectral.symmetric_block(v, nl, 1.0, 0.0, grid)
            zeros[name] = (spectral.eigencount_above(sym, -rep.tau)
                           - spectral.eigencount_above(sym, rep.tau))
        assert zeros == {"trivial": 2, "sign1": 1, "sign2": 1, "sign3": 2,
                         "md": 3, "mh": 3}
        # the two-dimensional representation counts its plane twice
        assert sum(zeros.values()) - zeros["md"] + zeros["mh"] == 12


class TestEigenpairsNearZero:
    def test_shift_invert_matches_dense_eigh(self, monkeypatch):
        # past DENSE_EIG_MAX rows the pairs come from shift-invert Lanczos
        grid = lattice.full_square(16, OFFSITE)
        rng = np.random.default_rng(40)
        u = Field(grid, rng.uniform(-0.2, 1.3, grid.size))
        jac = solver.jacobian(u, model.cubic_quintic(), 0.5, 0.2).tocsr()
        assert jac.shape[0] == 1024 > spectral.DENSE_EIG_MAX
        calls = []
        eigsh = spectral.spla.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "eigsh", spy)
        vals, vecs = spectral.eigenpairs_near_zero(jac, 4)
        assert len(calls) == 1
        ev, ew = np.linalg.eigh(jac.toarray())
        order = np.argsort(np.abs(ev))[:4]
        assert np.allclose(vals, ev[order], rtol=0, atol=1e-10)
        for vec, i in zip(vecs, order):
            ref = ew[:, i]
            assert min(np.abs(vec - ref).max(), np.abs(vec + ref).max()) < 1e-8


class TestCrossingCount:
    def test_decoupled_fold_crossing_equals_orbit_size(self):
        # diagonal-matrix oracle: walking the skeleton through mu=1 swaps the
        # u_- cell to u_+, so the crossing count is the orbit of that cell
        nl = model.cubic_quintic()
        for M, expect in [(1, 8), (2, 8), (3, 4)]:
            pts = []
            for variant, mu in [(VBAR, 0.9), (VBAR, 0.97), (UBAR, 0.97),
                                (UBAR, 0.9)]:
                u = anti_continuum_pattern(PatternId(3, M, variant, OFFSITE),
                                           mu, nl, n_d=5)
                pts.append(SimpleNamespace(u=u, mu=mu, d=0.0))
            branch = SimpleNamespace(points=pts, parameter="mu", events=[])
            got = spectral.crossing_count_at_fold(branch, 2, nl, window=0.05)
            assert got == expect == lattice.orbit_size((3, M), OFFSITE)


class TestTransversality:
    def test_critical_eigenvalue_crosses_linearly_in_arclength(self):
        nl = model.cubic_quintic()
        fold, branch = studies.find_left_fold(nl, 1, 1, 1e-3, n_d=6,
                                              return_branch=True)
        idx = branch.fold_indices()[0]
        x_fold = np.concatenate([fold.u.values, [fold.mu]])

        def smallest_signed(pt):
            _, jac = spectral.full_square_jacobian(pt.u, nl, pt.mu, pt.d)
            vals, _ = spectral.eigenpairs_near_zero(jac, 3)
            return vals[0]

        lams, dists = [], []
        for i in (idx - 4, idx - 3, idx + 2, idx + 3):
            pt = branch.points[i]
            lams.append(smallest_signed(pt))
            dists.append(np.linalg.norm(
                np.concatenate([pt.u.values, [pt.mu]]) - x_fold))
        assert lams[0] * lams[-1] < 0  # sign change through the fold
        slopes = [abs(l) / s for l, s in zip(lams, dists)]
        assert min(slopes) > 1e-3  # bounded below: transversal crossing


class TestVBarReference:
    def test_both_indexings_reported(self):
        ref = spectral.vbar_unstable_reference(3, 2, OFFSITE)
        assert ref["orbit_size"] == 8
        assert ref["theorem_m_indexing"] == 4
        ref = spectral.vbar_unstable_reference(3, 3, OFFSITE)
        assert ref["orbit_size"] == 4
        assert ref["theorem_m_indexing"] == 8


class TestIsotypic:
    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_projections_reconstruct_and_are_orthogonal(self, symmetry):
        rng = np.random.default_rng(20)
        grid = lattice.full_square(4, symmetry)
        v = Field(grid, rng.standard_normal(grid.size))
        projs = spectral.isotypic_projections(v)
        total = sum(p.values for p in projs.values())
        assert np.allclose(total, v.values, atol=1e-12)
        sq = sum(np.linalg.norm(p.values) ** 2 for p in projs.values())
        assert abs(sq - np.linalg.norm(v.values) ** 2) < 1e-12
        # projectors are idempotent and mutually orthogonal
        for tag, p in projs.items():
            again = spectral.isotypic_projection(p.values, grid, tag)
            assert np.allclose(again, p.values, atol=1e-12)
        for t1 in spectral.ISOTYPIC_TAGS:
            for t2 in spectral.ISOTYPIC_TAGS:
                if t1 != t2:
                    dot = projs[t1].values @ projs[t2].values
                    assert abs(dot) < 1e-12

    def test_symmetric_field_is_trivial(self):
        rng = np.random.default_rng(21)
        g = lattice.wedge(4, OFFSITE)
        v = lattice.unfold(Field(g, rng.standard_normal(g.size)))
        tag, norms = spectral.isotypic_classify(v)
        assert tag == "trivial"
        others = sum(norms[t] for t in spectral.ISOTYPIC_TAGS if t != "trivial")
        assert others < 1e-12 * max(1.0, norms["trivial"])

    def test_alternating_ring_pattern_is_a_sign_representation(self):
        # indicator of the orbit of (3,1) weighted by the sign1 character
        grid = lattice.full_square(5, OFFSITE)
        vals = np.zeros(grid.size)
        chars = dict(zip(lattice.element_names(),
                         lattice.CHARACTERS["sign1"]))
        for name, g in zip(lattice.element_names(),
                           lattice.group_elements(OFFSITE)):
            site = lattice.apply_element(g, 3, 1)
            vals[grid.index(*site)] = chars[name]
        tag, norms = spectral.isotypic_classify(Field(grid, vals))
        assert tag == "sign1"
        assert norms["trivial"] < 1e-12
        assert norms["two_dim"] < 1e-12
