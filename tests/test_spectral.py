from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from snaklat import lattice, model, solver, spectral, studies
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

    def test_dense_ldl_matches_eigh(self):
        rng = np.random.default_rng(13)
        a = random_banded_symmetric(40, 40, rng)
        ev = np.linalg.eigvalsh(a)
        n_pos, n_neg, n_zero = spectral.dense_ldl_inertia(a)
        assert (n_pos, n_neg, n_zero) == (int(np.sum(ev > 0)), int(np.sum(ev < 0)), 0)

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
        assert spectral.eigencount_above(a, 0.0) == 1
        # at scale 1e3 the nudged shifts stay under the pivot tolerance, so
        # only the dense path can count
        dense = spectral.dense_ldl_inertia
        calls = []
        monkeypatch.setattr(spectral, "dense_ldl_inertia",
                            lambda m: calls.append(m) or dense(m))
        assert spectral.eigencount_above(1e3 * a, 0.0) == 1
        assert len(calls) == 1


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
