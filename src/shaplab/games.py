"""Coalitions, coalition games and attribution records.

Coalitions are bit patterns over a dense player index 0..n-1, so a game on n
players has exactly ``2**n`` distinct coalitions and the memo table is bounded
by that count.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

MAX_PLAYERS = 64  # coalition masks are kept within a 64-bit pattern

#: Hard ceilings for the exact solvers (see solvers module). Every solver that
#: reads the whole value table (the order-ideal engine behind plain and
#: asymmetric Shapley, the equal split and the axiom audit) holds 2**n float64
#: values, 256 MiB at the subset cap; only the n!-enumeration cross-check keeps
#: the permutation cap.
SUBSET_ENUMERATION_CAP = 25
PERMUTATION_ENUMERATION_CAP = 10


class EnumerationCapError(ValueError):
    """Raised when a game is too large for an exact enumeration solver."""


class CyclicPrecedenceError(ValueError):
    """Raised when precedence edges contain a cycle."""


@dataclass(frozen=True)
class Coalition:
    """A subset of players encoded as a bit pattern.

    Bit i set means player i is a member. ``mask`` must fit the player count.
    """

    mask: int
    n_players: int

    def __post_init__(self):
        if not 0 <= self.n_players <= MAX_PLAYERS:
            raise ValueError(f"n_players must be in 0..{MAX_PLAYERS}, got {self.n_players}")
        if not 0 <= self.mask < (1 << self.n_players):
            raise ValueError(f"coalition mask {self.mask:#x} out of range for {self.n_players} players")

    @classmethod
    def empty(cls, n_players: int) -> "Coalition":
        return cls(0, n_players)

    @classmethod
    def full(cls, n_players: int) -> "Coalition":
        return cls((1 << n_players) - 1, n_players)

    @classmethod
    def of(cls, members: Iterable[int], n_players: int) -> "Coalition":
        mask = 0
        for i in members:
            if not 0 <= i < n_players:
                raise ValueError(f"player index {i} out of range for {n_players} players")
            mask |= 1 << i
        return cls(mask, n_players)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_players) if self.mask >> i & 1)

    def contains(self, player: int) -> bool:
        return bool(self.mask >> player & 1)

    def with_member(self, player: int) -> "Coalition":
        if not 0 <= player < self.n_players:
            raise ValueError(f"player index {player} out of range")
        return Coalition(self.mask | (1 << player), self.n_players)

    def without(self, player: int) -> "Coalition":
        return Coalition(self.mask & ~(1 << player), self.n_players)

    def complement(self) -> "Coalition":
        return Coalition(((1 << self.n_players) - 1) ^ self.mask, self.n_players)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return self.size


class CoalitionGame:
    """A set of players with a memoized characteristic-value oracle.

    The oracle must be deterministic. Values are cached per coalition mask;
    cache insertion uses ``dict.setdefault`` so concurrent readers may race to
    compute a value but only one insertion wins and no torn value is ever
    observed (duplicate recomputation is acceptable by contract). Once the
    full table exists (a game built by :meth:`from_table`, or after
    :meth:`table`), values are read from that array.

    Solvers work on the centered game ``w(S) = v(S) - v(empty)`` so that the
    classical ``w(empty) = 0`` requirement holds; ``empty_value`` is kept
    separately and reported as the attribution base value.
    """

    def __init__(self, n_players: int, value_oracle: Callable[[Coalition], float]):
        if not 0 < n_players <= MAX_PLAYERS:
            raise ValueError(f"n_players must be in 1..{MAX_PLAYERS}, got {n_players}")
        self.n_players = n_players
        self._oracle = value_oracle
        self._cache: dict[int, float] = {}
        self._table: np.ndarray | None = None
        self.oracle_calls = 0
        self.empty_value = self.value_mask(0)

    @classmethod
    def from_table(cls, values) -> "CoalitionGame":
        """Build a game from a coalition-indexed array (index = bit pattern).

        The values are copied once into a read-only float64 array, which
        :meth:`table` returns as is; only the empty value goes through the
        oracle.
        """
        table = np.array(values, dtype=float)
        n = table.size.bit_length() - 1
        if table.ndim != 1 or n < 1 or table.size != 1 << n:
            raise ValueError(f"table length must be a power of two >= 2, got {table.size}")
        table.setflags(write=False)
        game = cls(n, lambda c: table[c.mask])
        game._table = table
        return game

    @property
    def full_mask(self) -> int:
        return (1 << self.n_players) - 1

    def value_mask(self, mask: int) -> float:
        """v(S) for a coalition bit mask, memoized."""
        if self._table is not None:
            if not 0 <= mask < self._table.size:
                raise ValueError(f"mask {mask:#x} out of range")
            return float(self._table[mask])
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        if not 0 <= mask <= (1 << self.n_players) - 1:
            raise ValueError(f"mask {mask:#x} out of range")
        self.oracle_calls += 1
        val = float(self._oracle(Coalition(mask, self.n_players)))
        # setdefault keeps insertion at-most-once under concurrent computes
        self._cache.setdefault(mask, val)
        return self._cache[mask]

    @property
    def grand_value(self) -> float:
        return self.value_mask(self.full_mask)

    def table(self) -> np.ndarray:
        """All 2**n values as a read-only float64 array, index = coalition bit
        pattern. A value game fills it once through the oracle."""
        if self._table is None:
            table = np.array([self.value_mask(m) for m in range(1 << self.n_players)])
            table.setflags(write=False)
            self._table = table
        return self._table

    def marginal(self, player: int, coalition: Coalition | int) -> float:
        """v(S + player) - v(S); rejects player already in S."""
        mask = coalition.mask if isinstance(coalition, Coalition) else coalition
        if not 0 <= player < self.n_players:
            raise ValueError(f"player index {player} out of range for {self.n_players} players")
        bit = 1 << player
        if mask & bit:
            raise ValueError(f"player {player} is already in the coalition")
        return self.value_mask(mask | bit) - self.value_mask(mask)


@dataclass(frozen=True)
class Attribution:
    """Per-player values plus the base value and solver metadata.

    For exact and asymmetric methods, ``base_value + sum(values)`` equals the
    grand-coalition value to 1e-9.
    """

    base_value: float
    values: tuple[float, ...]
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_players(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return self.base_value + sum(self.values)

    def to_dict(self) -> dict:
        return {
            "base_value": self.base_value,
            "values": list(self.values),
            "method": self.method,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class PrecedenceOrder:
    """Acyclic precedence constraints: each edge (a, d) places a before d.

    Acyclicity is validated at construction, which also guarantees that at
    least one admissible permutation exists.
    """

    n_players: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n_players: int, edges: Iterable[tuple[int, int]] = ()):
        object.__setattr__(self, "n_players", n_players)
        object.__setattr__(self, "edges", frozenset((int(a), int(d)) for a, d in edges))
        for a, d in self.edges:
            if not (0 <= a < n_players and 0 <= d < n_players):
                raise ValueError(f"edge ({a}, {d}) out of range for {n_players} players")
            if a == d:
                raise CyclicPrecedenceError(f"self-edge on player {a}")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        graph: dict[int, set[int]] = {i: set() for i in range(self.n_players)}
        for a, d in self.edges:
            graph[d].add(a)  # d depends on a
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as exc:
            raise CyclicPrecedenceError(f"precedence edges contain a cycle: {exc.args[1]}") from exc


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom audit; all gap fields are non-negative.

    ``symmetry_violations`` lists game-symmetric player pairs whose attribution
    gap exceeds the audit tolerance; ``dummy_violations`` lists exhaustively
    verified dummies with nonzero attribution. The max-gap fields cover every
    symmetric pair / dummy regardless of tolerance, so exact solvers can be
    asserted tight.
    """

    efficiency_gap: float
    symmetry_violations: tuple[tuple[int, int, float], ...]
    dummy_violations: tuple[tuple[int, float], ...]
    additivity_gap: float | None
    max_symmetry_gap: float
    max_dummy_gap: float
    tolerance: float

    def passes(self, efficiency_exempt: bool = False) -> bool:
        ok = not self.symmetry_violations and not self.dummy_violations
        if not efficiency_exempt:
            ok = ok and self.efficiency_gap <= self.tolerance
        if self.additivity_gap is not None:
            ok = ok and self.additivity_gap <= self.tolerance
        return ok

    def to_dict(self) -> dict:
        return {
            "efficiency_gap": self.efficiency_gap,
            "symmetry_violations": [list(v) for v in self.symmetry_violations],
            "dummy_violations": [list(v) for v in self.dummy_violations],
            "additivity_gap": self.additivity_gap,
            "max_symmetry_gap": self.max_symmetry_gap,
            "max_dummy_gap": self.max_dummy_gap,
            "tolerance": self.tolerance,
        }
