"""Attribution solvers for coalition games.

Plain and precedence-constrained Shapley values come from one exact engine, a
weighted sum of marginal contributions over order ideals; permutation
enumeration stays as an independent cross-check. A seeded Monte Carlo
estimator and an equal-split alternative cover the rest. Summation order is
fixed, so results are bitwise-deterministic for a given game and seed.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Callable

import numpy as np

from .games import (
    Attribution,
    AxiomReport,
    CoalitionGame,
    EnumerationCapError,
    PERMUTATION_ENUMERATION_CAP,
    PrecedenceOrder,
    SUBSET_ENUMERATION_CAP,
)

# Above this player count the sampler stops materializing the full value table
# and walks permutations through the memo cache instead.
_SAMPLER_TABLE_LIMIT = 16


def _check_cap(game: CoalitionGame, cap: int, what: str) -> None:
    if game.n_players > cap:
        raise EnumerationCapError(
            f"{what} supports at most {cap} players, game has {game.n_players}"
        )


def _ideal_counts(m: int, pred: list[int]) -> tuple[dict[int, int], dict[int, int]]:
    """Exact ordering counts over the downsets of a poset on players 0..m-1.

    ``pred[r]`` is the mask of r's direct predecessors. ``a[U]`` counts the
    admissible orderings that build the downset U, ``b[U]`` those that finish
    from U; masks missing from both dicts are not downsets. Python ints, so
    the counts stay exact past 2**53.
    """
    def addable(s):
        return [r for r in range(m) if not s >> r & 1 and pred[r] & ~s == 0]

    a = {0: 1}
    downsets = []
    level = [0]
    while level:  # level k holds the downsets of size k
        downsets += level
        nxt: dict[int, int] = {}
        for s in level:
            for r in addable(s):
                nxt[s | 1 << r] = nxt.get(s | 1 << r, 0) + a[s]
        a.update(nxt)
        level = list(nxt)
    full = (1 << m) - 1
    b = {full: 1}
    for s in reversed(downsets[:-1]):
        b[s] = sum(b[s | 1 << r] for r in addable(s))
    return a, b


def _order_ideal_shapley(table: np.ndarray, n: int, edges) -> tuple[list[float], int, int]:
    """Precedence-constrained Shapley values by a weighted sum over (S, i).

    ``phi_i = sum_S a(S) b(S+i) / e * (v(S+i) - v(S))`` over the S excluding
    i, where a(S) counts the admissible orderings that build S, b(T) those
    that finish the game from T and e = a(full) is the number of linear
    extensions. Players outside every edge interleave freely, so with R the
    m constrained players and k = |S & R|,
    ``a(S) = |S|! * A(S & R)`` and ``b(T) = (n-|T|)! * B(T & R)`` with
    ``A(U) = a_R(U) / k!`` and ``B(U) = b_R(U) / (m-k)!`` from the exact
    counts of the poset on R alone. The weight therefore splits into the
    plain subset weight ``|S|! (n-|S|-1)! / n!`` times
    ``A(S&R) B((S+i)&R) m! / e_R``; with no edges (m = 0) that factor is 1.
    Each player's sum is one pass over reshaped views of the table, so no
    index arrays are built per player. Returns the values, e and the number
    of masks with a(S) > 0.
    """
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    fact_n = factorial(n)
    subset_w = np.array([factorial(s) * factorial(n - s - 1) / fact_n for s in range(n)] + [0.0])
    before = subset_w[sizes]
    after = None
    extensions, downsets = fact_n, 1 << n
    if edges:
        players = sorted({p for edge in edges for p in edge})
        m = len(players)
        local = {p: r for r, p in enumerate(players)}
        pred = [0] * m
        for anc, desc in edges:
            pred[local[desc]] |= 1 << local[anc]
        a, b = _ideal_counts(m, pred)
        fa = np.zeros(1 << m)
        fb = np.zeros(1 << m)
        for u, count in a.items():
            k = u.bit_count()
            fa[u] = count / factorial(k)
            fb[u] = b[u] / factorial(m - k)
        # the cube over R, broadcast along the axes of the free players
        # (axis 0 of the (2,)*n view is the highest player bit)
        shape = [2 if p in local else 1 for p in reversed(range(n))]
        cube = (2,) * n
        l_full = a[(1 << m) - 1]
        before = before * np.broadcast_to(fa.reshape(shape), cube).reshape(-1) * (factorial(m) / l_full)
        after = np.broadcast_to(fb.reshape(shape), cube).reshape(-1)
        extensions = fact_n // factorial(m) * l_full
        downsets = len(a) << (n - m)
    phi = []
    for i in range(n):
        v = table.reshape(-1, 2, 1 << i)
        w = before.reshape(-1, 2, 1 << i)[:, 0, :]
        if after is not None:
            w = w * after.reshape(-1, 2, 1 << i)[:, 1, :]
        phi.append(float((w * (v[:, 1, :] - v[:, 0, :])).sum()))
    return phi, extensions, downsets


def exact_shapley_subsets(game: CoalitionGame) -> Attribution:
    """Exact Shapley values by the weighted-subset formula.

    Each player's value is ``sum_S |S|! (n-|S|-1)! / n! * (v(S+i) - v(S))``
    over the subsets S excluding the player: the order-ideal engine with no
    precedence edges. Supports up to ``SUBSET_ENUMERATION_CAP`` players; the
    value table holds 2**n entries.
    """
    _check_cap(game, SUBSET_ENUMERATION_CAP, "exact_shapley_subsets")
    n = game.n_players
    phi, _, _ = _order_ideal_shapley(game.table(), n, ())
    return Attribution(
        base_value=game.empty_value,
        values=tuple(phi),
        method="exact-subset",
        diagnostics={"coalitions": 1 << n},
    )


def exact_shapley_permutations(game: CoalitionGame) -> Attribution:
    """Exact Shapley values by full permutation enumeration.

    Agrees with :func:`exact_shapley_subsets` to 1e-12 on every game; kept as
    an independent cross-check route. Capped at
    ``PERMUTATION_ENUMERATION_CAP`` players (n! permutations).
    """
    _check_cap(game, PERMUTATION_ENUMERATION_CAP, "exact_shapley_permutations")
    n = game.n_players
    table = game.table().tolist()
    empty = table[0]
    phi = [0.0] * n
    count = 0
    for perm in permutations(range(n)):
        count += 1
        mask = 0
        prev = empty
        for j in perm:
            mask |= 1 << j
            cur = table[mask]
            phi[j] += cur - prev
            prev = cur
    inv = 1.0 / count
    return Attribution(
        base_value=game.empty_value,
        values=tuple(x * inv for x in phi),
        method="exact-permutation",
        diagnostics={"permutations": count},
    )


def asymmetric_shapley(game: CoalitionGame, order: PrecedenceOrder) -> Attribution:
    """Quasivalue averaging marginal contributions over admissible permutations only.

    A permutation is admissible when every precedence ancestor appears before
    its descendant; admissible permutations are weighted uniformly. The
    average is computed by the order-ideal engine without enumerating
    permutations, so it supports up to ``SUBSET_ENUMERATION_CAP`` players.
    With no edges it is :func:`exact_shapley_subsets` bit for bit.
    Diagnostics give the exact number of admissible permutations and the
    number of coalitions (downsets) the sum weighed.
    """
    if order.n_players != game.n_players:
        raise ValueError("precedence order and game disagree on player count")
    _check_cap(game, SUBSET_ENUMERATION_CAP, "asymmetric_shapley")
    phi, extensions, downsets = _order_ideal_shapley(game.table(), game.n_players, order.edges)
    return Attribution(
        base_value=game.empty_value,
        values=tuple(phi),
        method="asymmetric",
        diagnostics={
            "admissible_permutations": extensions,
            "downsets": downsets,
            "precedence_edges": sorted(order.edges),
        },
    )


def sampled_shapley(game: CoalitionGame, n_samples: int, seed: int) -> Attribution:
    """Monte Carlo Shapley estimate over uniformly drawn permutations.

    Unbiased for the permutation-form value; deterministic given ``seed``.
    Each sampled permutation contributes one marginal contribution per player,
    so per-player standard errors come straight from the sample variance and
    are reported in the diagnostics.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = game.n_players
    rng = np.random.default_rng(seed)
    if n <= _SAMPLER_TABLE_LIMIT:
        table = game.table()
        perms = rng.permuted(np.tile(np.arange(n), (n_samples, 1)), axis=1)
        prefix = np.bitwise_or.accumulate(1 << perms, axis=1)
        vals = table[prefix]
        prev = np.empty_like(vals)
        prev[:, 0] = table[0]
        prev[:, 1:] = vals[:, :-1]
        deltas = vals - prev
        sums = np.zeros(n)
        sumsq = np.zeros(n)
        np.add.at(sums, perms.ravel(), deltas.ravel())
        np.add.at(sumsq, perms.ravel(), (deltas * deltas).ravel())
    else:
        sums = np.zeros(n)
        sumsq = np.zeros(n)
        for _ in range(n_samples):
            perm = rng.permutation(n)
            mask = 0
            prev = game.empty_value
            for j in perm:
                mask |= 1 << int(j)
                cur = game.value_mask(mask)
                d = cur - prev
                sums[j] += d
                sumsq[j] += d * d
                prev = cur
    phi = sums / n_samples
    if n_samples > 1:
        var = np.maximum(sumsq - n_samples * phi * phi, 0.0) / (n_samples - 1)
        std_errors = [float(s) for s in np.sqrt(var / n_samples)]
    else:
        std_errors = None  # undefined from a single permutation
    return Attribution(
        base_value=game.empty_value,
        values=tuple(float(x) for x in phi),
        method="sampled",
        diagnostics={
            "n_samples": n_samples,
            "seed": seed,
            "std_errors": std_errors,
        },
    )


def _dummy_players(table: np.ndarray, n: int, tolerance: float) -> list[bool]:
    """Exhaustive dummy detection: |v(S+i) - v(S)| <= tolerance for every S."""
    dummies = []
    for i in range(n):
        v = table.reshape(-1, 2, 1 << i)
        dummies.append(not (np.abs(v[:, 1, :] - v[:, 0, :]) > tolerance).any())
    return dummies


def _symmetric_pairs(table: np.ndarray, n: int, tolerance: float) -> list[tuple[int, int]]:
    """Pairs i < j whose marginals agree to ``tolerance`` on every S excluding both."""
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            v = table.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)  # axes: ..., j, ..., i, ...
            base = v[:, 0, :, 0, :]
            if not (np.abs((v[:, 0, :, 1, :] - base) - (v[:, 1, :, 0, :] - base)) > tolerance).any():
                pairs.append((i, j))
    return pairs


class AllDummyInconsistencyError(ValueError):
    """Every player is a dummy yet the grand value differs from the empty value."""


def equal_split_attribution(game: CoalitionGame, dummy_tolerance: float = 1e-9) -> Attribution:
    """Alternative attribution satisfying Symmetry and Dummy but not Additivity.

    Exhaustively detected dummies receive their centered singleton value
    (zero up to the tolerance); everyone else splits the remaining grand value
    equally. Useful as the counterexample showing what the additivity axiom
    buys.
    """
    _check_cap(game, SUBSET_ENUMERATION_CAP, "equal_split_attribution")
    n = game.n_players
    table = game.table()
    dummies = _dummy_players(table, n, dummy_tolerance)
    empty = game.empty_value
    grand = float(table[-1])
    values = [0.0] * n
    dummy_total = 0.0
    for i, is_dummy in enumerate(dummies):
        if is_dummy:
            values[i] = float(table[1 << i]) - empty
            dummy_total += values[i]
    non_dummies = [i for i, d in enumerate(dummies) if not d]
    if not non_dummies:
        if abs(grand - empty) > dummy_tolerance:
            raise AllDummyInconsistencyError(
                f"all {n} players are dummies at tolerance {dummy_tolerance} "
                f"but v(D) - v(empty) = {grand - empty!r}"
            )
    else:
        share = (grand - empty - dummy_total) / len(non_dummies)
        for i in non_dummies:
            values[i] = share
    return Attribution(
        base_value=empty,
        values=tuple(values),
        method="equal-split",
        diagnostics={"dummy_tolerance": dummy_tolerance, "dummies": [i for i, d in enumerate(dummies) if d]},
    )


def audit_axioms(
    game: CoalitionGame,
    attribution: Attribution,
    other: tuple[CoalitionGame, Attribution] | None = None,
    tolerance: float = 1e-9,
    profile_tolerance: float = 1e-12,
    *,
    solve: Callable[[CoalitionGame], Attribution] | None = None,
) -> AxiomReport:
    """Audit an attribution against the efficiency, symmetry, dummy and
    (optionally) additivity axioms.

    Symmetry and dummy are checked exhaustively against the game's marginal
    contributions: a pair is game-symmetric when the two players' marginals
    agree on every subset excluding both (to ``profile_tolerance``), and only
    such pairs can violate symmetry. When ``other`` supplies a second
    (game, attribution), the sum game is the pointwise sum of the two value
    tables, re-solved with ``solve`` (default :func:`exact_shapley_subsets`)
    to measure the additivity gap; pass the solver that produced both
    attributions.
    """
    n = game.n_players
    if attribution.n_players != n:
        raise ValueError("attribution length does not match the game")
    _check_cap(game, SUBSET_ENUMERATION_CAP, "audit_axioms")
    table = game.table()
    phi = attribution.values

    efficiency_gap = abs(attribution.base_value + sum(phi) - float(table[-1]))

    sym_violations = []
    max_sym_gap = 0.0
    for i, j in _symmetric_pairs(table, n, profile_tolerance):
        gap = abs(phi[i] - phi[j])
        max_sym_gap = max(max_sym_gap, gap)
        if gap > tolerance:
            sym_violations.append((i, j, gap))

    dummy_violations = []
    max_dummy_gap = 0.0
    for i, is_dummy in enumerate(_dummy_players(table, n, profile_tolerance)):
        if is_dummy:
            gap = abs(phi[i])
            max_dummy_gap = max(max_dummy_gap, gap)
            if gap > tolerance:
                dummy_violations.append((i, gap))

    additivity_gap = None
    if other is not None:
        other_game, other_attr = other
        if other_game.n_players != n or other_attr.n_players != n:
            raise ValueError("additivity pair does not match the game's player count")
        sum_attr = (solve or exact_shapley_subsets)(CoalitionGame.from_table(table + other_game.table()))
        additivity_gap = max(
            abs(phi[i] + other_attr.values[i] - sum_attr.values[i]) for i in range(n)
        )

    return AxiomReport(
        efficiency_gap=efficiency_gap,
        symmetry_violations=tuple(sym_violations),
        dummy_violations=tuple(dummy_violations),
        additivity_gap=additivity_gap,
        max_symmetry_gap=max_sym_gap,
        max_dummy_gap=max_dummy_gap,
        tolerance=tolerance,
    )
