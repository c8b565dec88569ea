"""Solver correctness: frozen hand-enumerated values, an independent
brute-force reference, and seeded property sweeps."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from shaplab import (
    AllDummyInconsistencyError,
    CoalitionGame,
    Attribution,
    EnumerationCapError,
    PrecedenceOrder,
    asymmetric_shapley,
    audit_axioms,
    equal_split_attribution,
    exact_shapley_permutations,
    exact_shapley_subsets,
    sampled_shapley,
)


def shapley_reference(table, n):
    """Independent oracle: average marginal contributions over permutations,
    written with explicit sets rather than bit tricks."""
    phi = [0.0] * n
    for perm in itertools.permutations(range(n)):
        seen = frozenset()
        for player in perm:
            before = sum(1 << p for p in seen)
            after = before | (1 << player)
            phi[player] += table[after] - table[before]
            seen = seen | {player}
    return [v / math.factorial(n) for v in phi]


def order_ideal_reference(table, n, edges):
    """Independent precedence-constrained values: exact ordering counts by
    recursion over explicit player sets, weights as fractions."""
    preds = {i: frozenset(a for a, d in edges if d == i) for i in range(n)}
    everyone = frozenset(range(n))

    def is_downset(s):
        return all(preds[j] <= s for j in s)

    @functools.cache
    def build(s):  # admissible orderings of s, zero unless s is a downset
        if not s:
            return 1
        return sum(build(s - {i}) for i in s if preds[i] <= s - {i})

    @functools.cache
    def finish(t):  # admissible orderings of everyone else after t
        if not is_downset(t):
            return 0
        if t == everyone:
            return 1
        return sum(finish(t | {i}) for i in everyone - t if preds[i] <= t)

    def mask(s):
        return sum(1 << p for p in s)

    e = build(everyone)
    phi = [0.0] * n
    for size in range(n):
        for members in itertools.combinations(range(n), size):
            s = frozenset(members)
            for i in everyone - s:
                weight = Fraction(build(s) * finish(s | {i}), e)
                if weight:
                    phi[i] += float(weight) * (table[mask(s | {i})] - table[mask(s)])
    return phi, e


def admissible_average(table, n, edges):
    """Average marginal contributions over the admissible permutations."""
    phi = [0.0] * n
    count = 0
    for perm in itertools.permutations(range(n)):
        pos = {p: k for k, p in enumerate(perm)}
        if any(pos[a] > pos[d] for a, d in edges):
            continue
        count += 1
        for k, player in enumerate(perm):
            before = sum(1 << p for p in perm[:k])
            phi[player] += table[before | 1 << player] - table[before]
    return [v / count for v in phi], count


def beetle_game():
    table = [1.0 if (m & 1 and (m & 0b010 or m & 0b100)) else 0.0 for m in range(8)]
    return CoalitionGame.from_table(table)


def random_game(rng, n):
    return CoalitionGame.from_table(rng.random(1 << n))


class TestExactSubsets:
    def test_symmetric_additive_game(self):
        g = CoalitionGame.from_table([0.0, 1.0, 1.0, 2.0])
        attr = exact_shapley_subsets(g)
        assert attr.values == (1.0, 1.0)
        assert attr.method == "exact-subset"

    def test_beetle_hand_enumeration(self):
        attr = exact_shapley_subsets(beetle_game())
        assert attr.values == pytest.approx((2 / 3, 1 / 6, 1 / 6), abs=1e-12)

    def test_dummy_players(self):
        table = [1.0 if m & 1 else 0.0 for m in range(8)]
        attr = exact_shapley_subsets(CoalitionGame.from_table(table))
        assert attr.values == (1.0, 0.0, 0.0)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            table = list(rng.random(1 << n))
            attr = exact_shapley_subsets(CoalitionGame.from_table(table))
            ref = shapley_reference(table, n)
            assert attr.values == pytest.approx(ref, abs=1e-12)

    def test_rejects_above_cap(self):
        g = CoalitionGame(26, lambda c: 0.0)
        with pytest.raises(EnumerationCapError):
            exact_shapley_subsets(g)

    def test_nonzero_base_value(self):
        g = CoalitionGame.from_table([5.0, 6.0, 7.0, 8.0])
        attr = exact_shapley_subsets(g)
        assert attr.base_value == 5.0
        assert attr.base_value + sum(attr.values) == pytest.approx(8.0, abs=1e-12)


class TestExactPermutations:
    def test_same_examples_as_subsets(self):
        for table in ([0.0, 1.0, 1.0, 2.0], [1.0 if m & 1 else 0.0 for m in range(8)]):
            subs = exact_shapley_subsets(CoalitionGame.from_table(table))
            perm = exact_shapley_permutations(CoalitionGame.from_table(table))
            assert perm.values == pytest.approx(subs.values, abs=1e-12)
        assert exact_shapley_permutations(beetle_game()).values == pytest.approx(
            (2 / 3, 1 / 6, 1 / 6), abs=1e-12
        )

    def test_random_5_player_cross_check(self):
        rng = np.random.default_rng(5)
        g1 = random_game(rng, 5)
        g2 = CoalitionGame.from_table(g1.table())
        assert exact_shapley_permutations(g1).values == pytest.approx(
            exact_shapley_subsets(g2).values, abs=1e-12
        )

    def test_single_player(self):
        attr = exact_shapley_permutations(CoalitionGame.from_table([0.0, 2.5]))
        assert attr.values == (2.5,)

    def test_rejects_above_cap(self):
        g = CoalitionGame(11, lambda c: 0.0)
        with pytest.raises(EnumerationCapError):
            exact_shapley_permutations(g)


class TestSampled:
    def test_zero_variance_game(self):
        g = CoalitionGame.from_table([0.0, 1.0, 1.0, 2.0])
        attr = sampled_shapley(g, 1000, seed=99)
        assert attr.values == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_beetle_large_sample(self):
        attr = sampled_shapley(beetle_game(), 100_000, seed=3)
        assert attr.values == pytest.approx((2 / 3, 1 / 6, 1 / 6), abs=0.02)

    def test_random_8_player_within_std_errors(self):
        rng = np.random.default_rng(17)
        g = random_game(rng, 8)
        exact = exact_shapley_subsets(CoalitionGame.from_table(g.table()))
        attr = sampled_shapley(g, 200_000, seed=23)
        for est, true, se in zip(attr.values, exact.values, attr.diagnostics["std_errors"]):
            assert abs(est - true) < 5 * max(se, 1e-12)

    def test_deterministic_given_seed(self):
        g = beetle_game()
        a = sampled_shapley(g, 5000, seed=42)
        b = sampled_shapley(g, 5000, seed=42)
        assert a.values == b.values
        assert a.diagnostics == b.diagnostics
        c = sampled_shapley(g, 5000, seed=43)
        assert a.values != c.values

    def test_diagnostics_and_validation(self):
        attr = sampled_shapley(beetle_game(), 10, seed=0)
        assert attr.diagnostics["n_samples"] == 10
        assert attr.diagnostics["seed"] == 0
        assert len(attr.diagnostics["std_errors"]) == 3
        with pytest.raises(ValueError):
            sampled_shapley(beetle_game(), 0, seed=0)

    def test_single_permutation_telescopes(self):
        # one permutation still sums exactly to the centered grand value
        g = beetle_game()
        attr = sampled_shapley(g, 1, seed=4)
        assert sum(attr.values) == pytest.approx(g.grand_value - g.empty_value, abs=1e-12)
        assert attr.diagnostics["std_errors"] is None

    def test_large_player_fallback_path(self):
        # above the table limit the sampler walks the memo cache directly
        g = CoalitionGame(18, lambda c: float(c.size))
        attr = sampled_shapley(g, 50, seed=1)
        assert attr.values == pytest.approx([1.0] * 18, abs=1e-12)


class TestAsymmetric:
    def test_empty_order_equals_permutation_solver(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            g = random_game(rng, n)
            asym = asymmetric_shapley(g, PrecedenceOrder(n))
            subs = exact_shapley_subsets(CoalitionGame.from_table(g.table()))
            perm = exact_shapley_permutations(CoalitionGame.from_table(g.table()))
            assert asym.values == subs.values  # one engine, same summation order
            assert max(abs(a - p) for a, p in zip(asym.values, perm.values)) <= 1e-12
            assert asym.diagnostics["admissible_permutations"] == math.factorial(n)
            assert asym.diagnostics["downsets"] == 1 << n

    def test_redundancy_game_hand_average(self):
        table = [0.0] * 8
        for mask in (0b011, 0b101, 0b111):  # AB, AC, ABC
            table[mask] = 1.0
        g = CoalitionGame.from_table(table)
        attr = asymmetric_shapley(g, PrecedenceOrder(3, [(1, 2)]))
        assert attr.values == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-12)
        assert attr.diagnostics["admissible_permutations"] == 3

    def test_additive_game_order_independent(self):
        coeffs = [0.5, -1.5, 2.0]
        table = [sum(c for j, c in enumerate(coeffs) if m >> j & 1) for m in range(8)]
        g = CoalitionGame.from_table(table)
        for edges in ([], [(0, 1)], [(0, 1), (1, 2)]):
            attr = asymmetric_shapley(CoalitionGame.from_table(table), PrecedenceOrder(3, edges))
            assert attr.values == pytest.approx(coeffs, abs=1e-12)

    def test_mismatched_players_rejected(self):
        with pytest.raises(ValueError):
            asymmetric_shapley(beetle_game(), PrecedenceOrder(4))

    def test_efficiency(self):
        rng = np.random.default_rng(31)
        g = random_game(rng, 5)
        attr = asymmetric_shapley(g, PrecedenceOrder(5, [(0, 3), (1, 2)]))
        assert attr.base_value + sum(attr.values) == pytest.approx(g.grand_value, abs=1e-9)

    def test_matches_admissible_permutation_average(self):
        rng = np.random.default_rng(37)
        cases = [
            (4, [(0, 1)]),
            (5, [(0, 3), (1, 2)]),
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # a chain: one ordering
            (6, [(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]),  # every player constrained
            (7, [(2, 0), (2, 6), (4, 6), (1, 3)]),
        ]
        for n, edges in cases:
            table = rng.standard_normal(1 << n)
            attr = asymmetric_shapley(CoalitionGame.from_table(table), PrecedenceOrder(n, edges))
            ref, count = admissible_average(table, n, edges)
            assert attr.values == pytest.approx(ref, abs=1e-12)
            assert attr.diagnostics["admissible_permutations"] == count

    def test_twelve_players_against_order_ideal_reference(self):
        # above the old n! enumeration cap of 10 players
        n = 12
        edges = [(0, 5), (5, 7), (3, 7), (3, 11), (9, 2), (10, 4)]
        table = np.random.default_rng(41).standard_normal(1 << n)
        attr = asymmetric_shapley(CoalitionGame.from_table(table), PrecedenceOrder(n, edges))
        ref, e = order_ideal_reference(table, n, edges)
        assert attr.values == pytest.approx(ref, abs=1e-12)
        assert attr.diagnostics["admissible_permutations"] == e
        downsets = sum(
            all(m >> d & 1 <= m >> a & 1 for a, d in edges) for m in range(1 << n)
        )
        assert attr.diagnostics["downsets"] == downsets
        assert attr.base_value + sum(attr.values) == pytest.approx(table[-1], abs=1e-9)

    def test_admissible_count_is_exact_past_float_precision(self):
        n = 19
        g = CoalitionGame.from_table(np.random.default_rng(43).random(1 << n))
        attr = asymmetric_shapley(g, PrecedenceOrder(n, [(4, 17)]))
        count = attr.diagnostics["admissible_permutations"]
        assert type(count) is int
        assert count == math.factorial(19) // 2
        assert count > 2**53
        assert attr.diagnostics["downsets"] == 3 << (n - 2)
        assert attr.base_value + sum(attr.values) == pytest.approx(g.grand_value, abs=1e-9)

    def test_rejects_above_cap(self):
        g = CoalitionGame(26, lambda c: 0.0)
        with pytest.raises(EnumerationCapError):
            asymmetric_shapley(g, PrecedenceOrder(26, [(0, 1)]))

    def test_diagnostics_are_plain_python(self):
        attr = asymmetric_shapley(beetle_game(), PrecedenceOrder(3, [(1, 2)]))
        assert attr.diagnostics == {
            "admissible_permutations": 3,
            "downsets": 6,
            "precedence_edges": [(1, 2)],
        }
        assert all(type(v) is float for v in attr.values)
        assert type(attr.diagnostics["downsets"]) is int


class TestEqualSplit:
    def test_linear_game_with_dummy(self):
        # expectation game of 2*x1 - x2 + 0*x3 at x=(1,3,5), zero means
        coeffs, x = [2.0, -1.0, 0.0], [1.0, 3.0, 5.0]
        table = [
            sum(c * v for j, (c, v) in enumerate(zip(coeffs, x)) if m >> j & 1)
            for m in range(8)
        ]
        attr = equal_split_attribution(CoalitionGame.from_table(table))
        assert attr.values == pytest.approx((-0.5, -0.5, 0.0), abs=1e-12)
        assert attr.method == "equal-split"
        assert attr.diagnostics["dummies"] == [2]

    def test_symmetric_game_coincides_with_shapley(self):
        attr = equal_split_attribution(CoalitionGame.from_table([0.0, 1.0, 1.0, 2.0]))
        assert attr.values == (1.0, 1.0)

    def test_single_carrier(self):
        table = [1.0 if m & 1 else 0.0 for m in range(8)]
        attr = equal_split_attribution(CoalitionGame.from_table(table))
        assert attr.values == (1.0, 0.0, 0.0)

    def test_all_dummy_inconsistency(self):
        eps = 1e-9
        table = [0.0, 0.9 * eps, 0.9 * eps, 1.8 * eps]
        with pytest.raises(AllDummyInconsistencyError):
            equal_split_attribution(CoalitionGame.from_table(table), dummy_tolerance=eps)

    def test_all_dummy_consistent_is_fine(self):
        attr = equal_split_attribution(CoalitionGame.from_table([0.0, 0.0, 0.0, 0.0]))
        assert attr.values == (0.0, 0.0)


class TestAuditAxioms:
    def test_exact_on_random_game_passes(self):
        rng = np.random.default_rng(19)
        g = random_game(rng, 6)
        report = audit_axioms(g, exact_shapley_subsets(g))
        assert report.efficiency_gap <= 1e-9
        assert report.max_symmetry_gap <= 1e-9
        assert report.max_dummy_gap <= 1e-9
        assert report.additivity_gap is None
        assert report.passes()

    def test_equal_split_satisfies_efficiency_symmetry_dummy(self):
        g = beetle_game()
        report = audit_axioms(g, equal_split_attribution(g))
        assert report.efficiency_gap <= 1e-9
        assert report.max_symmetry_gap <= 1e-9
        assert report.max_dummy_gap <= 1e-9

    def test_equal_split_breaks_additivity_on_constructed_pair(self):
        # beetle + carrier game: psi values (1/3,1/3,1/3) and (1,0,0) sum to
        # (4/3,1/3,1/3) while the sum game splits evenly to (2/3,2/3,2/3)
        v = beetle_game()
        w = CoalitionGame.from_table([1.0 if m & 1 else 0.0 for m in range(8)])
        report = audit_axioms(
            v, equal_split_attribution(v), other=(w, equal_split_attribution(w))
        )
        assert report.additivity_gap == pytest.approx(2 / 3, abs=1e-12)
        assert not report.passes()

    def test_exact_additivity_on_random_pair(self):
        rng = np.random.default_rng(23)
        v, w = random_game(rng, 5), random_game(rng, 5)
        report = audit_axioms(v, exact_shapley_subsets(v), other=(w, exact_shapley_subsets(w)))
        assert report.additivity_gap <= 1e-9
        assert report.passes()

    def test_zero_attribution_efficiency_gap(self):
        g = beetle_game()
        zeros = Attribution(base_value=0.0, values=(0.0, 0.0, 0.0), method="exact-subset")
        report = audit_axioms(g, zeros)
        assert report.efficiency_gap == pytest.approx(1.0, abs=1e-12)
        # M1 and M2 are game-symmetric with equal (zero) attributions
        assert report.max_symmetry_gap == 0.0

    def test_symmetry_violation_reported(self):
        g = CoalitionGame.from_table([0.0, 1.0, 1.0, 2.0])
        skew = Attribution(base_value=0.0, values=(1.5, 0.5), method="exact-subset")
        report = audit_axioms(g, skew)
        assert report.symmetry_violations == ((0, 1, 1.0),)
        assert not report.passes()

    def test_dummy_violation_reported(self):
        table = [1.0 if m & 1 else 0.0 for m in range(4)]
        g = CoalitionGame.from_table(table)
        bad = Attribution(base_value=0.0, values=(0.9, 0.1), method="exact-subset")
        report = audit_axioms(g, bad)
        assert report.dummy_violations == ((1, 0.1),)

    def test_vectorised_scans_match_scalar_audit(self):
        rng = np.random.default_rng(29)
        for k in range(40):
            n = 2 + k % 6
            table = rng.random(1 << n)
            sym, dummy = 0b11, 1 << (n - 1)
            for mask in range(1 << n):
                if k % 2 == 0 and mask & sym == 0b01:
                    table[mask] = table[mask ^ sym]
                if k % 4 == 1 and mask & dummy:
                    # a near-dummy: marginals straddle the profile tolerance
                    table[mask] = table[mask ^ dummy] + (k % 3 - 1) * 1e-12
            game = CoalitionGame.from_table(table)
            attr = Attribution(0.0, tuple(rng.random(n)), "exact-subset")
            report = audit_axioms(game, attr, tolerance=0.5)
            symmetric, dummies = scalar_scans(table.tolist(), n, 1e-12)
            assert [(i, j) for i, j, _ in report.symmetry_violations] == [
                (i, j) for i, j in symmetric if abs(attr.values[i] - attr.values[j]) > 0.5
            ]
            assert report.max_symmetry_gap == max(
                [abs(attr.values[i] - attr.values[j]) for i, j in symmetric], default=0.0
            )
            assert report.max_dummy_gap == max(
                [abs(attr.values[i]) for i in dummies], default=0.0
            )
            assert [i for i, _ in report.dummy_violations] == [
                i for i in dummies if abs(attr.values[i]) > 0.5
            ]
            assert equal_split_attribution(game).diagnostics["dummies"] == scalar_scans(
                table.tolist(), n, 1e-9
            )[1]

    def test_report_fields_are_plain_python(self):
        rng = np.random.default_rng(31)
        v, w = random_game(rng, 4), random_game(rng, 4)
        report = audit_axioms(v, exact_shapley_subsets(v), other=(w, exact_shapley_subsets(w)))
        for value in report.to_dict().values():
            assert type(value) in (float, list)
        assert type(report.passes()) is bool

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            audit_axioms(beetle_game(), Attribution(0.0, (1.0,), "exact-subset"))


def scalar_scans(table, n, tolerance):
    """The exhaustive symmetric-pair and dummy scans as plain loops."""
    symmetric = []
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            if all(
                abs((table[m | bi] - table[m]) - (table[m | bj] - table[m])) <= tolerance
                for m in range(1 << n)
                if not m & (bi | bj)
            ):
                symmetric.append((i, j))
    dummies = [
        i
        for i in range(n)
        if all(abs(table[m | 1 << i] - table[m]) <= tolerance for m in range(1 << n) if not m >> i & 1)
    ]
    return symmetric, dummies


class TestProperties:
    """Seeded sweeps over random table games."""

    def test_solver_equivalence_sweep(self):
        rng = np.random.default_rng(101)
        for k in range(100):
            n = 2 + k % 7
            g = random_game(rng, n)
            subs = exact_shapley_subsets(g)
            perm = exact_shapley_permutations(CoalitionGame.from_table(g.table()))
            assert max(abs(a - b) for a, b in zip(subs.values, perm.values)) <= 1e-12

    def test_efficiency_sweep(self):
        rng = np.random.default_rng(103)
        for k in range(50):
            n = 2 + k % 7
            g = random_game(rng, n)
            for attr in (
                exact_shapley_subsets(g),
                asymmetric_shapley(g, PrecedenceOrder(n, [(0, n - 1)])),
            ):
                assert abs(attr.base_value + sum(attr.values) - g.grand_value) <= 1e-9

    def test_symmetric_players_get_equal_values(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = 4
            base = rng.random(1 << n)
            # force players 0 and 1 interchangeable: value depends only on
            # the unordered pair membership pattern
            table = []
            for mask in range(1 << n):
                canonical = mask
                if (mask & 0b01) and not (mask & 0b10):
                    canonical = (mask & ~0b01) | 0b10
                table.append(base[canonical])
            attr = exact_shapley_subsets(CoalitionGame.from_table(table))
            assert abs(attr.values[0] - attr.values[1]) <= 1e-12

    def test_dummies_get_zero(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            n = 5
            base = rng.random(1 << (n - 1))
            # player n-1 is ignored entirely
            table = [base[mask & ((1 << (n - 1)) - 1)] for mask in range(1 << n)]
            attr = exact_shapley_subsets(CoalitionGame.from_table(table))
            assert abs(attr.values[n - 1]) <= 1e-12

    def test_additivity_sweep(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            n = 5
            tv, tw = rng.random(1 << n), rng.random(1 << n)
            pv = exact_shapley_subsets(CoalitionGame.from_table(tv)).values
            pw = exact_shapley_subsets(CoalitionGame.from_table(tw)).values
            ps = exact_shapley_subsets(CoalitionGame.from_table(tv + tw)).values
            assert max(abs(a + b - s) for a, b, s in zip(pv, pw, ps)) <= 1e-9

    def test_sampling_unbiasedness_pooled(self):
        rng = np.random.default_rng(127)
        g = random_game(rng, 6)
        exact = exact_shapley_subsets(CoalitionGame.from_table(g.table())).values
        estimates, variances = [], []
        for seed in range(20):
            attr = sampled_shapley(g, 2000, seed=seed)
            estimates.append(attr.values)
            variances.append([se**2 for se in attr.diagnostics["std_errors"]])
        means = np.mean(estimates, axis=0)
        pooled_se = np.sqrt(np.sum(variances, axis=0)) / 20
        for m, t, se in zip(means, exact, pooled_se):
            assert abs(m - t) < 4 * se

    def test_memoization_bound_across_solvers(self):
        calls = []
        g = CoalitionGame(5, lambda c: calls.append(c.mask) or float(c.mask % 7))
        exact_shapley_subsets(g)
        exact_shapley_permutations(g)
        asymmetric_shapley(g, PrecedenceOrder(5, [(0, 1)]))
        equal_split_attribution(g)
        sampled_shapley(g, 500, seed=0)
        assert g.oracle_calls <= 2**5
        assert len(calls) == g.oracle_calls
