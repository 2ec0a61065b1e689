"""Damped-superposition solver: amplitude law, constraints, readout, oracles."""

import math

import numpy as np
import pytest

from ttkit.errors import CapacityError, DimensionError, InfeasibilityError, NumericalError
from ttkit.optimize import (
    AmplitudeState,
    IteConfig,
    QudoProblem,
    Solution,
    apply_non_repetition,
    brute_force_qudo,
    brute_force_tsp,
    ite_state,
    non_repetition_layer,
    readout_exact,
    readout_greedy,
    solve_qudo,
    solve_tsp,
    uniform_state,
)
from ttkit.tt import TensorTrain, TruncationPolicy, tt_svd, tt_to_dense

from oracles import enumerate_qudo, enumerate_tours


def random_problem(rng, n, d, scale=1.0):
    return QudoProblem(
        tuple(rng.uniform(-scale, scale, size=d) for _ in range(n)),
        tuple(rng.uniform(-scale, scale, size=(d, d)) for _ in range(n - 1)),
    )


def worked_example():
    return QudoProblem(
        (np.array([0.0, 1.0]), np.array([0.0, -1.0])),
        (np.array([[0.0, 0.0], [0.0, -3.0]]),),
    )


class TestUniformState:
    def test_single_site(self):
        amps = uniform_state(1, 2).dense_amplitudes()
        assert np.allclose(amps, np.full(2, 1.0 / math.sqrt(2)), rtol=1e-14)

    def test_equal_amplitudes(self):
        amps = uniform_state(3, 2).dense_amplitudes()
        assert amps.shape == (2, 2, 2)
        assert np.allclose(amps, amps.ravel()[0])

    def test_unit_norm(self):
        for n in range(1, 11):
            amps = uniform_state(n, 2).dense_amplitudes()
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_bonds_are_one(self):
        assert uniform_state(5, 3).state.bond_dims == (1, 1, 1, 1)


class TestIteState:
    def test_zero_costs_give_uniform(self):
        p = QudoProblem(
            (np.zeros(2), np.zeros(2), np.zeros(2)),
            (np.zeros((2, 2)), np.zeros((2, 2))),
        )
        amps = ite_state(p, IteConfig(tau=1.0)).dense_amplitudes()
        assert np.allclose(amps, amps.ravel()[0], rtol=1e-14)

    def test_worked_two_site_ratios(self):
        s = ite_state(worked_example(), IteConfig(tau=1.0))
        amps = s.dense_amplitudes()
        ratios = amps / amps[0, 0]
        want = np.array([[1.0, math.e], [math.exp(-1.0), math.exp(3.0)]])
        assert np.allclose(ratios, want, rtol=1e-12)
        assert readout_exact(s) == (1, 1)

    def test_amplitude_law_random(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            n, d = 8, 2
            p = random_problem(rng, n, d)
            tau = float(rng.uniform(0.1, 10.0))
            amps = ite_state(p, IteConfig(tau=tau)).dense_amplitudes().ravel()
            configs, costs = enumerate_qudo(p.local, p.coupling)
            want = np.exp(-tau * np.array(costs))
            amps /= np.linalg.norm(amps)
            want /= np.linalg.norm(want)
            assert np.max(np.abs(amps - want) / want) <= 1e-10

    def test_bond_is_cardinality(self):
        rng = np.random.default_rng(71)
        p = random_problem(rng, 5, 3)
        s = ite_state(p, IteConfig(tau=1.0))
        assert s.state.bond_dims == (3, 3, 3, 3)

    def test_default_tau_normalizes_spread(self):
        rng = np.random.default_rng(72)
        p = random_problem(rng, 4, 2, scale=1000.0)
        cfg = IteConfig()
        assert cfg.effective_tau(p) * p.spread() == pytest.approx(10.0)
        # huge costs still stay in range thanks to the auto scale
        amps = ite_state(p, cfg).dense_amplitudes()
        assert np.all(np.isfinite(amps))
        assert solve_qudo(p, cfg).configuration == brute_force_qudo(p).configuration

    def test_direct_build_equals_damping_mpo_route(self):
        # The runtime path builds the damped state in one pass; applying one
        # diagonal damping operator per cost table to the uniform state must
        # give the same amplitudes (up to one global factor).
        from ttkit.optimize import uniform_state
        from ttkit.tt import TensorTrainOperator, apply_mpo

        rng = np.random.default_rng(99)
        n, d, tau = 5, 3, 0.7
        p = random_problem(rng, n, d)

        def identity_core():
            return np.eye(d).reshape(1, d, d, 1)

        state = uniform_state(n, d).state
        for i in range(n):
            cores = [identity_core() for _ in range(n)]
            cores[i] = np.diag(np.exp(-tau * p.local[i])).reshape(1, d, d, 1)
            state = apply_mpo(TensorTrainOperator(cores), state)
        for i in range(n - 1):
            cores = [identity_core() for _ in range(n)]
            copy = np.zeros((1, d, d, d))
            for x in range(d):
                copy[0, x, x, x] = 1.0
            table = np.zeros((d, d, d, 1))
            for a in range(d):
                for y in range(d):
                    table[a, y, y, 0] = math.exp(-tau * p.coupling[i][a, y])
            cores[i] = copy
            cores[i + 1] = table
            state = apply_mpo(TensorTrainOperator(cores), state)
        layered = tt_to_dense(state).ravel()
        direct = ite_state(p, IteConfig(tau=tau)).dense_amplitudes().ravel()
        layered /= np.linalg.norm(layered)
        direct /= np.linalg.norm(direct)
        assert np.max(np.abs(layered - direct) / direct) <= 1e-10


class TestNonRepetition:
    def test_uniform_three_sites_three_values(self):
        out = apply_non_repetition(uniform_state(3, 3))
        amps = out.dense_amplitudes()
        nz = np.abs(amps) > 1e-12 * np.max(np.abs(amps))
        assert int(nz.sum()) == 6
        assert np.allclose(amps[nz], amps[nz][0], rtol=1e-10)
        for idx in np.argwhere(nz):
            assert len(set(idx.tolist())) == 3

    def test_two_sites_two_values(self):
        amps = apply_non_repetition(uniform_state(2, 2)).dense_amplitudes()
        scale = np.max(np.abs(amps))
        assert abs(amps[0, 0]) <= 1e-12 * scale
        assert abs(amps[1, 1]) <= 1e-12 * scale
        assert abs(amps[0, 1]) > 0.1 * scale
        assert abs(amps[1, 0]) > 0.1 * scale

    def test_ite_state_support_and_ratios(self):
        rng = np.random.default_rng(73)
        p = random_problem(rng, 4, 4)
        tau = 1.0
        s = apply_non_repetition(ite_state(p, IteConfig(tau=tau)))
        amps = s.dense_amplitudes()
        configs, costs = enumerate_qudo(p.local, p.coupling)
        peak = np.max(np.abs(amps))
        nonzero = 0
        kept = []
        for x, c in zip(configs, costs):
            if len(set(x)) == 4:
                nonzero += 1
                kept.append((abs(amps[x]), math.exp(-tau * c)))
            else:
                assert abs(amps[x]) <= 1e-12 * peak
        assert nonzero == 24
        got = np.array([g for g, _ in kept])
        want = np.array([w for _, w in kept])
        got /= got[0]
        want /= want[0]
        assert np.max(np.abs(got - want) / want) <= 1e-10

    def test_counter_layer_bond(self):
        layer = non_repetition_layer(5, 4, value=2, max_count=1)
        assert layer.bond_dims == (2, 2, 2, 2)
        layer = non_repetition_layer(5, 4, value=2, max_count=3)
        assert layer.bond_dims == (4, 4, 4, 4)

    def test_repetition_bounded_variant(self):
        # value 0 allowed twice, value 1 once: three sites keep exactly the
        # arrangements of (0, 0, 1)
        out = apply_non_repetition(uniform_state(3, 2), max_counts=(2, 1))
        amps = out.dense_amplitudes()
        peak = np.max(np.abs(amps))
        survivors = {
            tuple(idx)
            for idx in np.argwhere(np.abs(amps) > 1e-12 * peak)
        }
        assert survivors == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}

    def test_infeasible_when_sites_exceed_values(self):
        with pytest.raises(InfeasibilityError):
            apply_non_repetition(uniform_state(3, 2))

    def test_counters_that_remove_the_whole_support(self):
        # Enough values for every site, but the one configuration the state
        # holds repeats value 0, so the first counter layer zeroes it.
        one_hot = np.array([1.0, 0.0]).reshape(1, 2, 1)
        s = AmplitudeState(TensorTrain([one_hot, one_hot]))
        with pytest.raises(InfeasibilityError):
            apply_non_repetition(s)

    def test_log_scale_keeps_cores_in_range(self):
        rng = np.random.default_rng(74)
        p = random_problem(rng, 5, 5, scale=3.0)
        s = apply_non_repetition(ite_state(p, IteConfig(tau=2.0)))
        for core in s.state.cores:
            peak = float(np.max(np.abs(core)))
            assert 1e-3 <= peak <= 1e3


class TestReadout:
    def test_uniform_ties_break_lexicographically(self):
        assert readout_exact(uniform_state(4, 3)) == (0, 0, 0, 0)

    def test_single_site_readout_leaves_the_state_intact(self):
        s = uniform_state(1, 3)
        core = s.state.cores[0].copy()
        assert readout_exact(s) == (0,)
        assert np.array_equal(s.state.cores[0], core)

    def test_negative_amplitude_wins_by_magnitude(self):
        amps = np.full((2, 3), 0.1)
        amps[1, 2] = -1.0
        s = AmplitudeState(tt_svd(amps, TruncationPolicy.exact()))
        assert readout_exact(s) == (1, 2)

    def test_dominant_amplitude_wins(self):
        amps = np.full((2, 2, 2), 0.1)
        amps[1, 0, 1] = 1.0
        s = AmplitudeState(tt_svd(amps, TruncationPolicy.exact()))
        assert readout_exact(s) == (1, 0, 1)
        assert readout_greedy(s) == (1, 0, 1)

    def test_capacity_guard(self):
        s = uniform_state(10, 2)
        with pytest.raises(CapacityError):
            readout_exact(s, max_elements=512)

    def test_greedy_exact_on_product_states(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            cores = [rng.uniform(0.1, 1.0, size=(1, 3, 1)) for _ in range(4)]
            s = AmplitudeState(TensorTrain(cores))
            assert readout_greedy(s) == readout_exact(s)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_greedy_ignores_core_scale(self, scale):
        # Scaled by 1e+-200, six cores multiply to far outside float64, yet
        # the choice must not change.
        rng = np.random.default_rng(3)
        bonds = [1, 3, 3, 3, 3, 3, 1]
        cores = [rng.uniform(0.1, 1.0, size=(bonds[i], 3, bonds[i + 1])) for i in range(6)]
        assert readout_greedy(AmplitudeState(TensorTrain(cores))) == (2, 2, 0, 0, 1, 0)
        scaled = AmplitudeState(TensorTrain([core * scale for core in cores]))
        assert readout_greedy(scaled) == (2, 2, 0, 0, 1, 0)

    def test_greedy_matches_exact_on_worked_example(self):
        s = ite_state(worked_example(), IteConfig(tau=1.0))
        assert readout_greedy(s) == readout_exact(s) == (1, 1)

    def test_greedy_adversarial_state_stays_nonzero(self):
        # Site-0 marginals favor value 1 (0.69^2 + 0.68^2 > 0.7^2), so greedy
        # returns (1, 0) while the exact argmax is (0, 1); greedy only
        # guarantees a nonzero-amplitude configuration.
        amps = np.array([[0.0, 0.7], [0.69, 0.68]])
        s = AmplitudeState(tt_svd(amps, TruncationPolicy.exact()))
        config = readout_greedy(s)
        assert abs(amps[config]) > 0.0
        assert readout_exact(s) == (0, 1)


class TestSolveQudo:
    def test_zero_costs(self):
        p = QudoProblem((np.zeros(2), np.zeros(2)), (np.zeros((2, 2)),))
        sol = solve_qudo(p, IteConfig(tau=1.0))
        assert sol.cost == 0.0
        assert sol.configuration == (0, 0)
        assert sol.method == "ite-exact"

    def test_worked_example(self):
        sol = solve_qudo(worked_example(), IteConfig(tau=1.0))
        assert sol.configuration == (1, 1)
        assert sol.cost == pytest.approx(-3.0)

    def test_agreement_with_brute_force(self):
        rng = np.random.default_rng(76)
        for _ in range(30):
            p = random_problem(rng, 6, 2)
            want = brute_force_qudo(p)
            got = solve_qudo(p, IteConfig(tau=float(rng.uniform(0.5, 5.0))))
            assert got.configuration == want.configuration
            assert got.cost == pytest.approx(want.cost, rel=1e-12)

    def test_greedy_method_label(self):
        sol = solve_qudo(worked_example(), IteConfig(tau=1.0, readout="greedy"))
        assert sol.method == "ite-greedy"

    def test_shift_invariance(self):
        rng = np.random.default_rng(77)
        p = random_problem(rng, 5, 3)
        base = solve_qudo(p, IteConfig(tau=1.0)).configuration
        shifted = QudoProblem(
            tuple(v + rng.uniform(-5, 5) for v in p.local),
            tuple(w + rng.uniform(-5, 5) for w in p.coupling),
        )
        assert solve_qudo(shifted, IteConfig(tau=1.0)).configuration == base
        # shifting cost tables only rescales the amplitudes globally
        a = ite_state(p, IteConfig(tau=1.0)).dense_amplitudes().ravel()
        b = ite_state(shifted, IteConfig(tau=1.0)).dense_amplitudes().ravel()
        ratios = b / a
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-10


class TestExactReadoutEdges:
    """Exact solves that float64 damping alone cannot settle."""

    def test_overflowing_spread_raises(self):
        # Finite tables whose ranges sum past float64 would make tau 0.
        p = QudoProblem((np.array([1e308, -1e308]), np.zeros(2)), (np.zeros((2, 2)),))
        with pytest.raises(NumericalError):
            IteConfig().effective_tau(p)
        with pytest.raises(NumericalError):
            solve_qudo(p)
        legs = np.ones((4, 4))
        legs[1, 2] = legs[2, 3] = legs[3, 0] = 1e308
        with pytest.raises(NumericalError):
            solve_tsp(legs, "closed")

    def test_no_solution_has_a_non_finite_cost(self):
        with pytest.raises(NumericalError):
            Solution((0, 1), math.inf, "oracle")
        # every closed 3-node tour sums two 1e308 legs
        with pytest.raises(NumericalError):
            brute_force_tsp(np.full((3, 3), 1e308), "closed")

    def test_underflowed_amplitudes_raise(self):
        # tau = 30 underflows every amplitude; argmax over zeros would return
        # (0, 0) at cost 100 while (1, 0) costs 50.
        p = QudoProblem(
            (np.array([0.0, 50.0]), np.zeros(2)), (np.array([[100.0, 100.0], [0.0, 0.0]]),)
        )
        with pytest.raises(NumericalError):
            solve_qudo(p, IteConfig(tau=30.0))
        assert solve_qudo(p).configuration == brute_force_qudo(p).configuration == (1, 0)

    @pytest.mark.parametrize("big", [2.0**63, 1e308])
    def test_one_huge_entry_does_not_swamp_the_rest(self, big):
        # The default tau shrinks to 10 / big, so the other costs' amplitudes
        # agree to float64 rounding; recomputed costs settle them.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            v = rng.random((4, 3))
            v[seed % 4, seed % 3] = big
            p = QudoProblem(tuple(v), tuple(rng.random((3, 3, 3))))
            sol, want = solve_qudo(p), brute_force_qudo(p)
            assert (sol.configuration, sol.cost) == (want.configuration, want.cost)
            # A closed tour's first leg sits in one local table; an open
            # tour's legs fill all n - 1 coupling tables, whose ranges then
            # sum to inf at 1e308.
            costs = 1.0 + rng.random((5, 5))
            costs[0, 1 + seed % 4] = big
            for variant in ("closed", "open"):
                want = brute_force_tsp(costs, variant)
                if variant == "open" and big == 1e308:
                    with pytest.raises(NumericalError):
                        solve_tsp(costs, variant)
                    continue
                sol = solve_tsp(costs, variant)
                assert (sol.configuration, sol.cost) == (want.configuration, want.cost)

    def test_cost_ties_go_to_the_oracles_choice(self):
        # Integer costs tie often; equal costs rounded to unequal amplitudes
        # no longer decide which optimum is returned.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = QudoProblem(
                tuple(rng.integers(0, 3, (6, 3)).astype(float)),
                tuple(rng.integers(0, 3, (5, 3, 3)).astype(float)),
            )
            assert solve_qudo(p).configuration == brute_force_qudo(p).configuration
            costs = rng.integers(0, 3, (6, 6)).astype(float)
            for variant in ("closed", "open"):
                sol, want = solve_tsp(costs, variant), brute_force_tsp(costs, variant)
                assert (sol.configuration, sol.cost) == (want.configuration, want.cost)


class TestSolveTsp:
    def test_two_nodes(self):
        costs = np.array([[0.0, 2.0], [2.0, 0.0]])
        for variant in ("closed", "open"):
            sol = solve_tsp(costs, variant)
            assert sol.configuration == (0, 1)

    def test_two_node_closed_tour_is_forced(self):
        # One site with one value would be left; the only tour is returned
        # without a solve, with the oracle's cost.
        costs = np.array([[0.0, 1.5], [4.0, 0.0]])
        want = brute_force_tsp(costs, "closed")
        for readout in ("exact", "greedy"):
            sol = solve_tsp(costs, "closed", IteConfig(readout=readout))
            assert sol.configuration == want.configuration == (0, 1)
            assert sol.cost == want.cost == 5.5

    @pytest.mark.parametrize("nodes", range(3, 9))
    def test_closed_tour_matches_oracle_exactly(self, nodes):
        # The start takes no site, so 8 nodes densify 7^7 and fit the cap.
        # Solver and oracle sum the same legs in the same order.
        for seed in range(2):
            costs = np.random.default_rng(100 * nodes + seed).uniform(1.0, 2.0, (nodes, nodes))
            sol = solve_tsp(costs, "closed")
            want = brute_force_tsp(costs, "closed")
            assert sol.configuration == want.configuration
            assert sol.cost == want.cost

    def test_all_equal_costs(self):
        d = 4
        costs = np.full((d, d), 2.5)
        closed = solve_tsp(costs, "closed")
        assert len(set(closed.configuration)) == d
        assert closed.cost == pytest.approx(d * 2.5)
        opened = solve_tsp(costs, "open")
        assert opened.cost == pytest.approx((d - 1) * 2.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(78)
        for variant in ("closed", "open"):
            for _ in range(10):
                costs = rng.uniform(0.0, 10.0, size=(5, 5))
                np.fill_diagonal(costs, 0.0)
                sol = solve_tsp(costs, variant)
                want = brute_force_tsp(costs, variant)
                assert sol.configuration == want.configuration
                assert sol.cost == pytest.approx(want.cost, rel=1e-12)

    def test_tour_is_valid_permutation(self):
        rng = np.random.default_rng(79)
        costs = rng.uniform(0.0, 1.0, size=(6, 6))
        sol = solve_tsp(costs, "closed", IteConfig(readout="greedy"))
        assert sorted(sol.configuration) == list(range(6))

    def test_truncated_solve_returns_a_tour_or_raises(self):
        # Rounding the counter layers to bond 2 can leave a repeated node on
        # top; that must be an error, never a tour with a cost.
        for seed in range(20):
            costs = np.random.default_rng(seed).uniform(0.0, 10.0, size=(6, 6))
            for readout in ("exact", "greedy"):
                policy = TruncationPolicy.truncated(max_bond=2)
                try:
                    sol = solve_tsp(costs, "closed", IteConfig(readout=readout), policy=policy)
                except InfeasibilityError:
                    continue
                assert sorted(sol.configuration) == list(range(6))
                assert sol.configuration[0] == 0


class TestBruteForce:
    def test_single_variable_argmin(self):
        p = QudoProblem((np.array([3.0, -1.0, 2.0]),), ())
        sol = brute_force_qudo(p)
        assert sol.configuration == (1,)
        assert sol.cost == -1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(80)
        p = random_problem(rng, 5, 3)
        configs, costs = enumerate_qudo(p.local, p.coupling)
        want = min(zip(costs, configs))
        sol = brute_force_qudo(p)
        assert sol.configuration == want[1]
        assert sol.cost == pytest.approx(want[0], rel=1e-12)

    def test_capacity_guards(self):
        p = QudoProblem(
            tuple(np.zeros(2) for _ in range(30)),
            tuple(np.zeros((2, 2)) for _ in range(29)),
        )
        with pytest.raises(CapacityError):
            brute_force_qudo(p)
        with pytest.raises(CapacityError):
            brute_force_tsp(np.zeros((10, 10)), "closed")

    def test_three_node_hand_case(self):
        # 0 -> 1 -> 2 -> 0 is free; every other closed tour pays.
        costs = np.array(
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )
        sol = brute_force_tsp(costs, "closed")
        assert sol.configuration == (0, 1, 2)
        assert sol.cost == 0.0

    def test_tsp_oracle_matches_enumeration(self):
        rng = np.random.default_rng(81)
        costs = rng.uniform(0, 5, size=(5, 5))
        for variant in ("closed", "open"):
            tours = enumerate_tours(costs.tolist(), variant)
            want_cost = min(c for _, c in tours)
            want_tour = min(t for t, c in tours if c == want_cost)
            sol = brute_force_tsp(costs, variant)
            assert sol.cost == pytest.approx(want_cost, rel=1e-12)
            assert sol.configuration == want_tour


class TestProblemValidation:
    def test_table_shapes(self):
        with pytest.raises(DimensionError):
            QudoProblem((np.zeros(2), np.zeros(3)), (np.zeros((2, 2)),))
        with pytest.raises(DimensionError):
            QudoProblem((np.zeros(2), np.zeros(2)), ())
        with pytest.raises(DimensionError):
            QudoProblem((np.zeros(1),), ())

    def test_tsp_cost_matrix(self):
        # One check guards the solver and the oracle alike.
        nan_leg = np.ones((4, 4))
        nan_leg[1, 2] = np.nan
        cases = [
            (np.ones((2, 3)), "closed", DimensionError),
            (np.ones((1, 1)), "closed", DimensionError),
            (np.ones((3, 3)), "loop", DimensionError),
            (nan_leg, "closed", NumericalError),
        ]
        for costs, variant, error in cases:
            for solver in (solve_tsp, brute_force_tsp):
                with pytest.raises(error):
                    solver(costs, variant)

    def test_cost_recompute(self):
        p = worked_example()
        assert p.cost((1, 1)) == pytest.approx(-3.0)
        assert p.cost((0, 1)) == pytest.approx(-1.0)
        with pytest.raises(DimensionError):
            p.cost((0, 2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IteConfig(tau=0.0)
        with pytest.raises(ValueError):
            IteConfig(readout="magic")
