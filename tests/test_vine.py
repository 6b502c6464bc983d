import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from powerdep import bicop, errors, vine
from powerdep.bicop import BivariateCopula
from powerdep.errors import (
    DegenerateSeriesError,
    DomainError,
    ResolutionError,
    StructureError,
)
from powerdep.vine import VineEdge, VineModel, VineStructure

import copula_oracle
import spearman_oracle


def gaussian_sample(corr, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal(np.zeros(len(corr)), np.asarray(corr), size=n)
    return special.ndtr(z)


def manual_model(trees, copulas):
    structure = VineStructure(
        n_vars=max(max(e.constraint) for t in trees for e in t) + 1,
        trees=tuple(tuple(t) for t in trees),
    )
    meta = {
        e: {"loglik": 0.0, "aic": 0.0, "warnings": []}
        for e in structure.all_edges()
    }
    return VineModel(
        structure=structure,
        pair_copulas=dict(copulas),
        fit_meta=meta,
        n_obs=0,
        loglik=0.0,
    )


def embedded_pair_model(pair_copula):
    edges1 = (VineEdge((0, 1)), VineEdge((0, 2)))
    tree2 = (VineEdge((1, 2), (0,)),)
    indep = BivariateCopula("independence")
    return manual_model(
        (edges1, tree2),
        {edges1[0]: pair_copula, edges1[1]: indep, tree2[0]: indep},
    )


RHO_3D = [[1.0, 0.6, 0.4], [0.6, 1.0, 0.3], [0.4, 0.3, 1.0]]
RHO_4D = [
    [1.0, 0.6, 0.4, 0.3],
    [0.6, 1.0, 0.5, 0.35],
    [0.4, 0.5, 1.0, 0.45],
    [0.3, 0.35, 0.45, 1.0],
]


def spanning_trees(n_nodes, pairs):
    """Every choice of n_nodes - 1 of ``pairs`` that forms a spanning tree."""
    for combo in itertools.combinations(pairs, n_nodes - 1):
        parent = list(range(n_nodes))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        acyclic = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            yield combo


def exhaustive_tree1(u):
    """Best first tree by brute force over all spanning trees.

    Oracle for the greedy choice: enumerates every spanning tree on the
    variables (3 for n=3, 16 for n=4) and returns the edge set with
    maximal total |Kendall tau|, ties broken lexicographically.
    """
    n = u.shape[1]
    pairs = list(itertools.combinations(range(n), 2))
    weights = {p: abs(stats.kendalltau(u[:, p[0]], u[:, p[1]]).statistic) for p in pairs}
    best = min(
        spanning_trees(n, pairs),
        key=lambda combo: (-sum(weights[p] for p in combo), tuple(sorted(combo))),
    )
    return tuple(VineEdge(p) for p in sorted(best))


def labelled_rvines(n):
    """Tree sequences of every labelled R-vine on n variables.

    Each tree is a spanning tree on the previous tree's edges, joining
    only edges that share a node (the proximity condition).
    """

    def extend(nodes, pairs, trees):
        if len(nodes) == 1:
            yield tuple(trees)
            return
        for combo in spanning_trees(len(nodes), pairs):
            tree = tuple(
                VineEdge(tuple(nodes[i] ^ nodes[j]), tuple(nodes[i] & nodes[j]))
                for i, j in combo
            )
            adjacent = [
                (p, q)
                for p, q in itertools.combinations(range(len(combo)), 2)
                if set(combo[p]) & set(combo[q])
            ]
            yield from extend([e.constraint for e in tree], adjacent, trees + [tree])

    yield from extend(
        [frozenset({v}) for v in range(n)], list(itertools.combinations(range(n), 2)), []
    )


#: asymmetric and rotated pair copulas, assigned to edges in turn
ROTATED_COPULAS = (
    BivariateCopula("clayton", 90, (2.0,)),
    BivariateCopula("gumbel", 180, (1.8,)),
    BivariateCopula("gumbel", 270, (1.5,)),
    BivariateCopula("studentt", 0, (-0.5, 5.0)),
    BivariateCopula("clayton", 0, (1.2,)),
    BivariateCopula("frank", 0, (-4.0,)),
)


def assert_samples_tree1_taus(model, seed):
    sim = vine.simulate(model, 20_000, seed)
    assert sim.shape == (20_000, model.structure.n_vars)
    assert sim.min() > 0.0 and sim.max() < 1.0
    for edge in model.structure.trees[0]:
        a, b = edge.conditioned
        tau = stats.kendalltau(sim[:, a], sim[:, b]).statistic
        assert abs(tau - copula_oracle.tau_of(model.pair_copulas[edge])) < 0.02


class TestEdgeAndStructure:
    def test_edge_normalization(self):
        e = VineEdge((2, 0), (3, 1))
        assert e.conditioned == (0, 2)
        assert e.conditioning == (1, 3)
        assert e.label() == "0,2|1,3"

    def test_edge_rejects_overlap(self):
        with pytest.raises(DomainError):
            VineEdge((0, 1), (1,))
        with pytest.raises(DomainError):
            VineEdge((1, 1))

    def test_valid_three_var_structure(self):
        VineStructure(
            3, ((VineEdge((0, 1)), VineEdge((0, 2))), (VineEdge((1, 2), (0,)),))
        )

    def test_proximity_violation_rejected(self):
        # tree 2 edge 0,1|2 needs parents sharing variable 2, but tree 1
        # is the star {01, 02} whose only combination gives 1,2|0
        with pytest.raises(StructureError, match="proximity"):
            VineStructure(
                3,
                ((VineEdge((0, 1)), VineEdge((0, 2))), (VineEdge((0, 1), (2,)),)),
            )

    def test_tree1_cycle_rejected(self):
        with pytest.raises(StructureError):
            VineStructure(
                4,
                (
                    (VineEdge((0, 1)), VineEdge((1, 2)), VineEdge((0, 2))),
                    (VineEdge((0, 2), (1,)), VineEdge((1, 3), (2,))),
                    (VineEdge((0, 3), (1, 2)),),
                ),
            )

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(StructureError):
            VineStructure(3, ((VineEdge((0, 1)),), (VineEdge((1, 2), (0,)),)))

    def test_conditioning_on_tree1_rejected(self):
        with pytest.raises(StructureError):
            VineStructure(
                3,
                ((VineEdge((0, 1), (2,)), VineEdge((0, 2))), (VineEdge((1, 2), (0,)),)),
            )

    def test_four_var_dvine_valid(self):
        VineStructure(
            4,
            (
                (VineEdge((0, 1)), VineEdge((1, 2)), VineEdge((2, 3))),
                (VineEdge((0, 2), (1,)), VineEdge((1, 3), (2,))),
                (VineEdge((0, 3), (1, 2)),),
            ),
        )


class TestSelectStructure:
    def test_matches_exhaustive_mst_three_vars(self):
        # tau targets approx (01: 0.6, 02: 0.5, 12: 0.15)
        corr = [
            [1.0, np.sin(0.6 * np.pi / 2), np.sin(0.5 * np.pi / 2)],
            [np.sin(0.6 * np.pi / 2), 1.0, np.sin(0.15 * np.pi / 2)],
            [np.sin(0.5 * np.pi / 2), np.sin(0.15 * np.pi / 2), 1.0],
        ]
        u = gaussian_sample(corr, 1500, seed=21)
        structure = vine.fit_auto(u).structure
        assert structure.trees[0] == (VineEdge((0, 1)), VineEdge((0, 2)))
        assert structure.trees[0] == exhaustive_tree1(u)

    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_matches_exhaustive_mst_four_vars(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 4))
        corr = a.T @ a
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)
        u = gaussian_sample(corr, 800, seed=seed + 1)
        structure = vine.fit_auto(u).structure
        assert structure.trees[0] == exhaustive_tree1(u)

    def test_exact_tie_breaks_lexicographically(self):
        base = np.linspace(0.01, 0.99, 400)
        u = np.column_stack([base, base, base])
        structure = vine.fit_auto(u).structure
        assert structure.trees[0] == (VineEdge((0, 1)), VineEdge((0, 2)))

    def test_noisy_copy_pair_joined_in_tree1(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        others = rng.standard_normal((1000, 2))
        copy = x + 0.3 * rng.standard_normal(1000)
        raw = np.column_stack([x, copy, others])
        u = np.column_stack(
            [stats.rankdata(raw[:, j]) / (raw.shape[0] + 1.0) for j in range(4)]
        )
        structure = vine.fit_auto(u).structure
        assert VineEdge((0, 1)) in structure.trees[0]

    def test_row_permutation_invariance(self):
        u = gaussian_sample(RHO_3D, 700, seed=9)
        perm = np.random.default_rng(1).permutation(u.shape[0])
        assert vine.fit_auto(u).structure == vine.fit_auto(u[perm]).structure

    def test_determinism(self):
        u = gaussian_sample(RHO_3D, 500, seed=15)
        assert vine.fit_auto(u).structure == vine.fit_auto(u).structure

    def test_degenerate_column_rejected(self):
        u = gaussian_sample(RHO_3D, 300, seed=2)
        u[:, 1] = 0.5
        with pytest.raises(DegenerateSeriesError):
            vine.fit_auto(u).structure

    def test_hundred_rows_suffice(self):
        u = gaussian_sample(RHO_3D, 100, seed=6)
        assert vine.fit_auto(u).n_obs == 100

    def test_two_columns_rejected(self):
        with pytest.raises(DomainError, match="3 or 4"):
            vine.fit_auto(gaussian_sample([[1.0, 0.5], [0.5, 1.0]], 200, seed=7))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            vine.fit_auto(np.random.default_rng(0).random((99, 3))).structure
        with pytest.raises(DomainError):
            vine.fit_auto(np.random.default_rng(0).random((200, 5))).structure


class TestFit:
    def test_gaussian_vine_recovery(self):
        u = gaussian_sample(RHO_3D, 5000, seed=100)
        model = vine.fit_auto(u)
        families = {model.fit_meta[e]["family"] for e in model.structure.all_edges()}
        assert families <= {"gaussian", "studentt"}
        sim = vine.simulate(model, 100_000, seed=6)
        targets = {(0, 1): 0.6, (0, 2): 0.4, (1, 2): 0.3}
        for (a, b), rho in targets.items():
            implied = stats.spearmanr(sim[:, a], sim[:, b]).statistic
            analytic = 6.0 / np.pi * np.arcsin(rho / 2.0)
            assert abs(implied - analytic) < 0.04

    @pytest.mark.parametrize("indep_level", [None, vine.INDEP_TEST_LEVEL])
    def test_edge_computes_kendall_tau_once(self, indep_level, monkeypatch):
        # the edge fit reads the weight pass's test and computes no tau of its own
        u = gaussian_sample(RHO_3D, 400, seed=8)
        test = stats.kendalltau(u[:, 0], u[:, 1])
        expected = bicop.select_family_aic(u[:, :2], bicop.DEFAULT_CANDIDATES).best.copula
        calls = []
        kendalltau = stats.kendalltau

        def counted(*args, **kwargs):
            calls.append(args)
            return kendalltau(*args, **kwargs)

        monkeypatch.setattr(stats, "kendalltau", counted)
        copula, meta = vine._fit_edge(
            u[:, 0], u[:, 1], test, bicop.DEFAULT_CANDIDATES, indep_level
        )
        assert len(calls) == 0
        assert copula == expected
        assert meta["family"] != "independence"

    def test_fit_computes_one_kendall_tau_per_candidate_pair(self, monkeypatch):
        # three pairs weigh tree 1 and one pair tree 2; the fits reuse them
        u = gaussian_sample(RHO_3D, 400, seed=8)
        expected = vine.fit_auto(u)
        calls = []
        kendalltau = stats.kendalltau

        def counted(*args, **kwargs):
            calls.append(args)
            return kendalltau(*args, **kwargs)

        monkeypatch.setattr(stats, "kendalltau", counted)
        model = vine.fit_auto(u)
        assert len(calls) == 4
        assert model.pair_copulas == expected.pair_copulas
        assert model.fit_meta == expected.fit_meta

    def test_markov_chain_selects_chain_structure(self):
        # 0 and 2 are conditionally independent given 1, so tree 1 must
        # join both through 1 and leave (0, 2 | 1) for tree 2
        rho = 0.7
        chain = [[1.0, rho, rho**2], [rho, 1.0, rho], [rho**2, rho, 1.0]]
        model = vine.fit_auto(gaussian_sample(chain, 1200, seed=33))
        assert model.structure == VineStructure(
            3, ((VineEdge((0, 1)), VineEdge((1, 2))), (VineEdge((0, 2), (1,)),))
        )

    def test_independent_columns_all_independence(self):
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(100):
            u = rng.random((1000, 3)) * 0.998 + 0.001
            model = vine.fit_auto(u)
            families = [
                model.fit_meta[e]["family"] for e in model.structure.all_edges()
            ]
            hits += all(f == "independence" for f in families)
        assert hits >= 90

    def test_pretest_can_be_disabled(self):
        u = np.random.default_rng(8).random((500, 3)) * 0.998 + 0.001
        model = vine.fit_auto(u, indep_test=None)
        for e in model.structure.all_edges():
            assert "indep_test_p" not in model.fit_meta[e]

    def test_refit_reproduces_strong_families(self):
        clayton = BivariateCopula("clayton", 0, (2.0,))
        gumbel = BivariateCopula("gumbel", 0, (2.0,))
        indep = BivariateCopula("independence")
        edges1 = (VineEdge((0, 1)), VineEdge((1, 2)))
        tree2 = (VineEdge((0, 2), (1,)),)
        generator = manual_model(
            (edges1, tree2), {edges1[0]: clayton, edges1[1]: gumbel, tree2[0]: indep}
        )
        hits = 0
        for rep in range(20):
            u = vine.simulate(generator, 2000, seed=500 + rep)
            refit = vine.fit_auto(u)
            fams = {
                e.conditioned: refit.fit_meta[e]["family"]
                for e in refit.structure.trees[0]
            }
            hits += fams.get((0, 1)) == "clayton" and fams.get((1, 2)) == "gumbel"
        assert hits >= 18

    @pytest.mark.parametrize("corr", [RHO_3D, RHO_4D], ids=["3d", "4d"])
    def test_loglik_additivity(self, corr):
        u = gaussian_sample(corr, 1500, seed=55)
        model = vine.fit_auto(u)
        edge_sum = sum(
            model.fit_meta[e]["loglik"] for e in model.structure.all_edges()
        )
        assert_allclose(model.loglik, edge_sum, rtol=1e-8)
        assert_allclose(copula_oracle.vine_loglik(model, u), model.loglik, rtol=1e-8)

    def test_simulate_fit_loglik_consistency(self):
        u = gaussian_sample(RHO_3D, 5000, seed=60)
        model = vine.fit_auto(u)
        sim = vine.simulate(model, 10_000, seed=61)
        refit = vine.fit_auto(sim)
        per_obs = model.loglik / model.n_obs
        per_obs_refit = refit.loglik / refit.n_obs
        assert abs(per_obs - per_obs_refit) < 0.05


class TestSimulate:
    def test_all_independence_vine(self):
        indep = BivariateCopula("independence")
        edges1 = (VineEdge((0, 1)), VineEdge((0, 2)))
        tree2 = (VineEdge((1, 2), (0,)),)
        model = manual_model(
            (edges1, tree2), {edges1[0]: indep, edges1[1]: indep, tree2[0]: indep}
        )
        sim = vine.simulate(model, 100_000, seed=12)
        for a in range(3):
            for b in range(a + 1, 3):
                tau = stats.kendalltau(sim[:, a], sim[:, b]).statistic
                assert abs(tau) < 0.01

    def test_embedded_gaussian_pair_spearman(self):
        model = embedded_pair_model(BivariateCopula("gaussian", 0, (0.5,)))
        sim = vine.simulate(model, 100_000, seed=4)
        rho_s = stats.spearmanr(sim[:, 0], sim[:, 1]).statistic
        assert abs(rho_s - 6.0 / np.pi * np.arcsin(0.25)) < 0.01

    def test_same_seed_identical(self):
        model = embedded_pair_model(BivariateCopula("clayton", 0, (1.5,)))
        a = vine.simulate(model, 2000, seed=9)
        b = vine.simulate(model, 2000, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, vine.simulate(model, 2000, seed=10))
        # a shorter draw with the same seed is a prefix of the longer one
        assert np.array_equal(vine.simulate(model, 700, seed=9), a[:700])

    def test_output_in_open_unit_cube(self):
        model = embedded_pair_model(BivariateCopula("gumbel", 180, (3.0,)))
        sim = vine.simulate(model, 5000, seed=2)
        assert sim.min() > 0.0 and sim.max() < 1.0

    def test_four_var_tau_round_trip(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(8, 4))
        corr = a.T @ a
        d = np.sqrt(np.diag(corr))
        corr = corr / np.outer(d, d)
        u = gaussian_sample(corr, 4000, seed=15)
        model = vine.fit_auto(u)
        sim = vine.simulate(model, 50_000, seed=16)
        for i in range(4):
            for j in range(i + 1, 4):
                tau_data = stats.kendalltau(u[:, i], u[:, j]).statistic
                tau_sim = stats.kendalltau(sim[:, i], sim[:, j]).statistic
                assert abs(tau_data - tau_sim) < 0.03

    def test_labelled_rvine_counts(self):
        assert [len(list(labelled_rvines(n))) for n in (3, 4, 5)] == [3, 24, 480]

    @pytest.mark.parametrize(
        "n_vars, index", [(3, k) for k in range(3)] + [(4, k) for k in range(24)]
    )
    def test_every_small_rvine_with_rotated_copulas(self, n_vars, index):
        trees = list(labelled_rvines(n_vars))[index]
        edges = [e for tree in trees for e in tree]
        model = manual_model(
            trees,
            {
                e: ROTATED_COPULAS[(index + k) % len(ROTATED_COPULAS)]
                for k, e in enumerate(edges)
            },
        )
        assert_samples_tree1_taus(model, seed=100 + index)

    def test_five_var_dvine_from_json(self):
        copulas = itertools.cycle(ROTATED_COPULAS)
        trees = [
            [
                {
                    "conditioned": [i, i + level],
                    "conditioning": list(range(i + 1, i + level)),
                    "copula": next(copulas).to_json_dict(),
                    "loglik": 0.0,
                    "aic": 0.0,
                }
                for i in range(5 - level)
            ]
            for level in range(1, 5)
        ]
        model = VineModel.from_json_dict(
            {"n_vars": 5, "n_obs": 0, "loglik": 0.0, "trees": trees}
        )
        assert_samples_tree1_taus(model, seed=5)

    def test_bad_n(self):
        model = embedded_pair_model(BivariateCopula("independence"))
        with pytest.raises(DomainError):
            vine.simulate(model, 0, seed=1)


class TestInducedMeasures:
    def test_spearman_independence(self):
        indep = BivariateCopula("independence")
        model = embedded_pair_model(indep)
        u = vine.simulate(model, 20_000, seed=5)
        rho, se = vine.induced_spearman(u, n_mc=20_000)
        assert abs(rho[1, 2]) < 0.02
        assert se[1, 2] < 0.02

    def test_spearman_gaussian_pair(self):
        model = embedded_pair_model(BivariateCopula("gaussian", 0, (0.5,)))
        u = vine.simulate(model, 100_000, seed=8)
        rho, se = vine.induced_spearman(u, n_mc=100_000)
        assert abs(rho[0, 1] - 0.4826) < 0.02
        assert se[0, 1] < 0.01

    def test_spearman_matches_scipy_on_the_prefix(self):
        model = embedded_pair_model(BivariateCopula("clayton", 0, (1.5,)))
        u = vine.simulate(model, 30_000, seed=6)
        rho, se = vine.induced_spearman(u, n_mc=20_000)
        expected = stats.spearmanr(u[:20_000]).statistic
        assert_allclose(rho, expected, rtol=0, atol=1e-12)
        assert np.array_equal(rho, rho.T) and np.array_equal(se, se.T)
        assert np.array_equal(np.diag(rho), np.ones(3))
        assert np.array_equal(np.diag(se), np.zeros(3))

    def test_spearman_preconditions(self):
        model = embedded_pair_model(BivariateCopula("independence"))
        u = vine.simulate(model, 20_000, seed=0)
        with pytest.raises(DomainError):
            vine.induced_spearman(u, n_mc=5000)
        with pytest.raises(DomainError):
            vine.induced_spearman(u, n_mc=30_000)

    @staticmethod
    def spearman_case(case):
        model = embedded_pair_model(BivariateCopula("clayton", 0, (1.5,)))
        u = vine.simulate(model, 20_000, seed=14)
        if case == "rounded":
            # every column repeats values, so every block takes the fallback
            u = np.round(u, 3)
        elif case == "clipped":
            u[::50, 0] = bicop.EPS
        n_mc = 10_010 if case == "n_mc_10010" else 20_000
        return u, n_mc

    @pytest.mark.parametrize("case", ["tie_free", "rounded", "clipped", "n_mc_10010"])
    def test_spearman_equals_the_rankdata_oracle(self, case):
        u, n_mc = self.spearman_case(case)
        rho, se = vine.induced_spearman(u, n_mc)
        expected_rho, expected_se = spearman_oracle.induced_spearman(u, n_mc)
        assert np.array_equal(rho, expected_rho)
        assert np.array_equal(se, expected_se)

    def test_spearman_ranks_a_tie_free_sample_without_rankdata(self, monkeypatch):
        u, n_mc = self.spearman_case("tie_free")
        expected = spearman_oracle.induced_spearman(u, n_mc)
        calls = []
        rankdata = stats.rankdata

        def counted(*args, **kwargs):
            calls.append(args)
            return rankdata(*args, **kwargs)

        monkeypatch.setattr(stats, "rankdata", counted)
        rho, se = vine.induced_spearman(u, n_mc)
        assert len(calls) == 0
        assert np.array_equal(rho, expected[0]) and np.array_equal(se, expected[1])
        # a tie in one column sends the prefix and the stacked batches back
        u[1, 2] = u[0, 2]
        vine.induced_spearman(u, n_mc)
        assert len(calls) == 2

    def test_tdc_counts_at_the_level_boundaries(self):
        # coordinates exactly at t and at 1 - t, and rows with one coordinate
        # inside a corner and one outside, on top of a uniform background
        grid = (0.02, 0.05, 0.1)
        rows = []
        for t in grid:
            s = 1.0 - t
            t_in, t_out = np.nextafter(t, 0.0), np.nextafter(t, 1.0)
            s_in = np.nextafter(s, 1.0)
            rows += [
                (t, t), (t, 0.5 * t), (0.5 * t, t), (t, t_out), (t_in, t_in),
                (t, 0.5), (0.5, t),
                (s, s), (s, 0.5 * (1.0 + s)), (s_in, s_in), (s_in, s),
                (s, 0.5), (0.5, s_in),
            ]
        corners = np.tile(np.array(rows), (50, 1))
        background = np.random.default_rng(9).random((2000, 2))
        u = np.vstack([corners, background])
        u = np.column_stack([u[:, 0], np.full(len(u), 0.5), u[:, 1]])
        res = vine.induced_pair_tdc(u, (0, 2), grid, n_mc=len(u))
        ua, ub = u[:, 0], u[:, 2]
        for t, level in zip(grid, res["levels"]):
            low = np.count_nonzero((ua <= t) & (ub <= t)) / len(u)
            up = np.count_nonzero((ua > 1.0 - t) & (ub > 1.0 - t)) / len(u)
            assert level["t"] == t
            assert level["lower"] == low / t and level["upper"] == up / t

    def test_tdc_independence_identity(self):
        model = embedded_pair_model(BivariateCopula("independence"))
        res = vine.induced_pair_tdc(
            vine.simulate(model, 200_000, seed=3),
            (0, 1),
            alpha_grid=(0.05,),
            n_mc=200_000,
        )
        level = res["levels"][0]
        assert abs(level["lower"] - 0.05) < 0.01
        assert abs(level["upper"] - 0.05) < 0.01

    def test_tdc_clayton_limit(self):
        model = embedded_pair_model(BivariateCopula("clayton", 0, (2.0,)))
        res = vine.induced_pair_tdc(
            vine.simulate(model, 2_000_000, seed=10),
            (0, 1),
            alpha_grid=(1e-3,),
            n_mc=2_000_000,
        )
        level = res["levels"][0]
        assert abs(level["lower"] - 2.0 ** (-0.5)) < 3.5 * level["lower_stderr"]

    def test_tdc_gaussian_monotone_decay(self):
        model = embedded_pair_model(BivariateCopula("gaussian", 0, (0.5,)))
        res = vine.induced_pair_tdc(
            vine.simulate(model, 1_000_000, seed=7),
            (0, 1),
            alpha_grid=(0.1, 0.05, 0.02, 0.01),
            n_mc=1_000_000,
        )
        lows = [lv["lower"] for lv in res["levels"]]
        assert lows[0] < lows[1] < lows[2] < lows[3]
        assert res["lower_extrapolated"] < lows[0]

    def test_tdc_resolution_guard(self):
        model = embedded_pair_model(BivariateCopula("independence"))
        u = vine.simulate(model, 100_000, seed=0)
        with pytest.raises(ResolutionError):
            vine.induced_pair_tdc(u, (0, 1), alpha_grid=(1e-4,), n_mc=100_000)

    def test_tdc_grid_domain(self):
        model = embedded_pair_model(BivariateCopula("independence"))
        u = vine.simulate(model, 100_000, seed=0)
        with pytest.raises(DomainError):
            vine.induced_pair_tdc(u, (0, 1), alpha_grid=(0.2,), n_mc=100_000)
        # a repeated level would put two equal abscissae under the line fit
        with pytest.raises(DomainError, match="distinct"):
            vine.induced_pair_tdc(u, (0, 1), alpha_grid=(0.05, 0.05), n_mc=100_000)


def _uniform(d):
    return np.random.default_rng(2).random((20_000, d))


# every entry point that takes a Monte Carlo size, and the tests' copula
# sampler, called with size n
_SIZED = {
    "vine.simulate": lambda n: vine.simulate(
        embedded_pair_model(BivariateCopula("independence")), n, seed=1
    ),
    "copula_oracle.sample": lambda n: copula_oracle.sample(
        BivariateCopula("gaussian", 0, (0.5,)), n, seed=1
    ),
    "induced_spearman": lambda n: vine.induced_spearman(_uniform(3), n),
    "induced_pair_tdc": lambda n: vine.induced_pair_tdc(_uniform(3), (0, 1), (0.05,), n),
}


class TestMonteCarloSizes:
    @pytest.mark.parametrize("bad", [0.5, 2.9, True, 10_000.0, "12000"], ids=repr)
    @pytest.mark.parametrize("entry", list(_SIZED))
    def test_non_integer_size_is_rejected(self, entry, bad):
        with pytest.raises(DomainError, match="must be an integer"):
            _SIZED[entry](bad)

    @pytest.mark.parametrize("bad", [np.True_, np.float64(3.0), None], ids=repr)
    def test_check_rejects_numpy_booleans_and_floats(self, bad):
        with pytest.raises(DomainError, match="n_mc must be an integer"):
            errors.sample_size(bad, "n_mc")

    def test_check_returns_a_python_int(self):
        for value in (np.int64(7), np.uint8(7), 7):
            assert type(errors.sample_size(value, "n")) is int

    @pytest.mark.parametrize("entry", list(_SIZED))
    def test_numpy_integer_size_is_accepted(self, entry):
        assert repr(_SIZED[entry](np.int64(12_000))) == repr(_SIZED[entry](12_000))


class TestSerialization:
    def test_json_round_trip(self):
        u = gaussian_sample(RHO_3D, 1000, seed=42)
        model = vine.fit_auto(u)
        blob = json.dumps(model.to_json_dict(), sort_keys=True)
        back = VineModel.from_json_dict(json.loads(blob))
        assert back.structure == model.structure
        assert back.loglik == model.loglik
        assert np.array_equal(
            vine.simulate(back, 1000, seed=3), vine.simulate(model, 1000, seed=3)
        )

    def test_four_var_json_round_trip(self):
        model = vine.fit_auto(gaussian_sample(RHO_4D, 1000, seed=43))
        blob = json.dumps(model.to_json_dict(), sort_keys=True)
        back = VineModel.from_json_dict(json.loads(blob))
        assert back.structure == model.structure
        assert back.pair_copulas == model.pair_copulas
        assert np.array_equal(
            vine.simulate(back, 1000, seed=4), vine.simulate(model, 1000, seed=4)
        )
