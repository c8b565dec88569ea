"""Coalition encoding, game memoization and precedence orders."""

import concurrent.futures

import numpy as np
import pytest

from shaplab import (
    Coalition,
    CoalitionGame,
    CyclicPrecedenceError,
    PrecedenceOrder,
)


def beetle_game():
    # players T=0, M1=1, M2=2; payoff 1 iff T present and at least one mutation
    table = [1.0 if (m & 1 and (m & 0b010 or m & 0b100)) else 0.0 for m in range(8)]
    return CoalitionGame.from_table(table)


class TestCoalition:
    def test_members_roundtrip(self):
        c = Coalition.of([0, 3, 5], 6)
        assert c.members == (0, 3, 5)
        assert c.size == 3
        assert c.contains(3) and not c.contains(1)

    def test_full_empty_complement(self):
        full = Coalition.full(4)
        assert full.mask == 0b1111
        assert Coalition.empty(4).complement() == full
        assert full.without(2).members == (0, 1, 3)

    def test_with_member(self):
        c = Coalition.empty(3).with_member(1)
        assert c.members == (1,)
        with pytest.raises(ValueError):
            c.with_member(7)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Coalition.of([4], 3)
        with pytest.raises(ValueError):
            Coalition(mask=0b1000, n_players=3)
        with pytest.raises(ValueError):
            Coalition(mask=1, n_players=70)


class TestCoalitionGame:
    def test_from_table_values(self):
        g = beetle_game()
        assert g.n_players == 3
        assert g.empty_value == 0.0
        assert g.grand_value == 1.0
        assert g.value_mask(Coalition.of([0, 1], 3).mask) == 1.0

    def test_from_table_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CoalitionGame.from_table([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            CoalitionGame.from_table([1.0])

    def test_memoization_counts_oracle_calls(self):
        calls = []

        def oracle(c):
            calls.append(c.mask)
            return float(c.size)

        g = CoalitionGame(4, oracle)
        for _ in range(3):
            for mask in range(16):
                g.value_mask(mask)
        assert g.oracle_calls == 16
        assert len(calls) == 16
        assert g.table().tolist() == [float(m.bit_count()) for m in range(16)]

    def test_table_game_reads_its_array(self):
        values = np.arange(16, dtype=float) / 3.0
        g = CoalitionGame.from_table(values)
        assert g.oracle_calls == 1  # the empty value only
        table = g.table()
        assert table is g.table()
        assert table.dtype == np.float64 and not table.flags.writeable
        assert table.tolist() == values.tolist()
        assert [g.value_mask(m) for m in range(16)] == values.tolist()
        assert type(g.value_mask(5)) is float
        assert g.oracle_calls == 1
        values[3] = -1.0  # the game keeps its own copy
        assert g.value_mask(3) == 1.0
        with pytest.raises(ValueError):
            g.value_mask(16)
        with pytest.raises(ValueError):
            g.value_mask(-1)

    def test_value_game_fills_table_once(self):
        g = CoalitionGame(3, lambda c: float(c.mask))
        assert g.table().tolist() == [float(m) for m in range(8)]
        g.table()
        assert g.oracle_calls == 8
        assert not g.table().flags.writeable

    def test_deterministic_oracle_required_shape(self):
        g = CoalitionGame(2, lambda c: 1.5 * c.size)
        assert g.value_mask(0b11) == 3.0
        with pytest.raises(ValueError):
            g.value_mask(0b100)

    def test_concurrent_reads_are_consistent(self):
        g = CoalitionGame(6, lambda c: float(c.mask) / 63.0)
        masks = list(range(64)) * 50
        expected = {m: m / 63.0 for m in range(64)}
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for mask, value in zip(masks, pool.map(g.value_mask, masks)):
                assert value == expected[mask]
        assert g.oracle_calls >= 64  # duplicates allowed, torn values are not


class TestMarginalContribution:
    def test_additive_game(self):
        g = CoalitionGame(3, lambda c: float(c.size))
        assert g.marginal(0, Coalition.of([1], 3)) == 1.0

    def test_beetle_lookup(self):
        g = beetle_game()
        assert g.marginal(0, Coalition.of([1], 3)) == 1.0

    def test_dummy_everywhere_zero(self):
        # player 2 never matters
        g = CoalitionGame(3, lambda c: float(c.mask & 0b011))
        for mask in range(8):
            if mask & 0b100:
                continue
            assert g.marginal(2, mask) == 0.0

    def test_rejects_member_and_out_of_range(self):
        g = beetle_game()
        with pytest.raises(ValueError):
            g.marginal(1, Coalition.of([1], 3))
        with pytest.raises(ValueError):
            g.marginal(5, Coalition.empty(3))


class TestPrecedenceOrder:
    def test_rejects_cycle(self):
        with pytest.raises(CyclicPrecedenceError):
            PrecedenceOrder(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CyclicPrecedenceError):
            PrecedenceOrder(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PrecedenceOrder(2, [(0, 5)])
