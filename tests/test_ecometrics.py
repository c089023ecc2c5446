"""Metrics against hand computations, a brute-force oracle and the
three-pass reference implementation."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_network
from ecogrid.ecomatrix import FlowType, RedundancyMode, build_eco_matrix, conservation_report
from ecogrid.ecometrics import EcoMetrics, metrics, pairwise_sums, robustness
from ecogrid.model import OutageSet, apply_outage
from ecogrid.powerflow import PowerFlowError, solve


def brute_force(T):
    """Independent direct-summation oracle, pure python loops."""
    n = len(T)
    total = sum(T[i][j] for i in range(n) for j in range(n))
    row = [sum(T[i][j] for j in range(n)) for i in range(n)]
    col = [sum(T[i][j] for i in range(n)) for j in range(n)]
    asc = 0.0
    dc = 0.0
    for i in range(n):
        for j in range(n):
            if T[i][j] > 0:
                asc += (T[i][j] / total) * math.log2(T[i][j] * total / (row[i] * col[j]))
                dc -= (T[i][j] / total) * math.log2(T[i][j] / total)
    asc *= total
    dc *= total
    a = asc / dc if dc > 0 else 1.0
    r = -a * math.log(a) if 0 < a < 1 else 0.0
    return total, asc, dc, r


def _reference_flows(T) -> np.ndarray:
    values = T.values if hasattr(T, "values") else np.asarray(T, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"flow matrix must be square, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("flow matrix contains non-finite entries")
    if np.any(values < 0):
        raise ValueError("flow matrix contains negative entries")
    return values


def reference_tstp(T) -> float:
    return float(_reference_flows(T).sum())


def reference_ascendency(T) -> float:
    values = _reference_flows(T)
    total = values.sum()
    if total <= 0:
        raise ValueError("ascendency undefined for an all-zero matrix (TSTp = 0)")
    row = values.sum(axis=1)
    col = values.sum(axis=0)
    i, j = np.nonzero(values)
    t = values[i, j]
    return float(np.sum(t * np.log2(t * total / (row[i] * col[j]))))


def reference_development_capacity(T) -> float:
    values = _reference_flows(T)
    total = values.sum()
    if total <= 0:
        raise ValueError("development capacity undefined for an all-zero matrix (TSTp = 0)")
    t = values[np.nonzero(values)]
    return float(-np.sum(t * np.log2(t / total)))


def reference_metrics(T) -> EcoMetrics:
    """The three-pass metrics: each function checks, totals and scans T itself."""
    total = reference_tstp(T)
    if total <= 0:
        raise ValueError("metrics undefined for an all-zero matrix (TSTp = 0)")
    asc = reference_ascendency(T)
    dc = reference_development_capacity(T)
    ratio = 1.0 if dc == 0 else min(max(asc / dc, 0.0), 1.0)
    return EcoMetrics(tstp=total, asc=asc, dc=dc, ratio=ratio, robustness=robustness(asc, dc))


ALL_COMBOS = [(f, m) for f in FlowType for m in RedundancyMode]


def _outcome(fn, T):
    """The hex of every result field, or the error message."""
    try:
        result = fn(T)
    except ValueError as exc:
        return str(exc)
    return tuple(float(getattr(result, f.name)).hex() for f in dataclasses.fields(result))


def assert_matches_reference(T):
    assert _outcome(metrics, T) == _outcome(reference_metrics, T)


def chain_matrix():
    # input -> A -> B -> export, each flow 1
    T = np.zeros((5, 5))
    T[2, 0] = 1.0  # input row feeds A
    T[0, 1] = 1.0  # A -> B
    T[1, 3] = 1.0  # B -> export
    return T


class TestTstp:
    def test_zero_single_and_chain(self):
        with pytest.raises(ValueError, match="TSTp = 0"):
            metrics(np.zeros((3, 3)))
        T = np.zeros((3, 3))
        T[0, 1] = 5.0
        assert metrics(T).tstp == 5.0
        assert metrics(chain_matrix()).tstp == 3.0

    def test_negative_entry_rejected(self):
        T = np.zeros((2, 2))
        T[0, 1] = -1.0
        with pytest.raises(ValueError, match="negative"):
            metrics(T)


class TestAscDc:
    def test_deterministic_chain(self):
        T = chain_matrix()
        expected = 3 * math.log2(3)  # 4.754887502...
        m = metrics(T)
        assert m.asc == pytest.approx(expected, rel=1e-12)
        assert m.dc == pytest.approx(expected, rel=1e-12)
        assert m.ratio == pytest.approx(1.0)
        assert m.robustness == pytest.approx(0.0, abs=1e-12)

    def test_two_parallel_chains_have_redundancy(self):
        # two disjoint chains sharing the input row and export column
        T = np.zeros((7, 7))
        T[4, 0] = 1.0  # input -> A1
        T[0, 1] = 1.0  # A1 -> B1
        T[1, 5] = 1.0  # B1 -> export
        T[4, 2] = 1.0  # input -> A2
        T[2, 3] = 1.0  # A2 -> B2
        T[3, 5] = 1.0  # B2 -> export
        m = metrics(T)
        # hand computation: ASC = 2(log2 3 + log2 6 + log2 3), DC = 6 log2 6
        assert m.asc == pytest.approx(2 * math.log2(54), rel=1e-12)
        assert m.dc == pytest.approx(6 * math.log2(6), rel=1e-12)
        assert m.ratio < 1.0

    def test_single_entry_is_fully_determined(self):
        T = np.zeros((4, 4))
        T[1, 2] = 7.0
        m = metrics(T)
        assert m.asc == pytest.approx(0.0, abs=1e-12)
        assert m.dc == pytest.approx(0.0, abs=1e-12)
        assert m.ratio == 1.0 and m.robustness == 0.0

    def test_uniform_entries_entropy(self):
        rng = np.random.default_rng(0)
        for n_entries in (2, 5, 9):
            T = np.zeros((4, 4))
            flat = rng.choice(16, size=n_entries, replace=False)
            T.flat[flat] = 2.5
            assert metrics(T).dc == pytest.approx(
                T.sum() * math.log2(n_entries), rel=1e-12
            )

    def test_all_zero_matrix_is_an_error(self):
        with pytest.raises(ValueError, match=r"^metrics undefined for an all-zero matrix \(TSTp = 0\)$"):
            metrics(np.zeros((3, 3)))


class TestRobustness:
    def test_window_of_vitality_peak(self):
        assert robustness(1.0, math.e) == pytest.approx(1 / math.e, abs=1e-12)

    def test_equal_asc_dc_gives_zero(self):
        assert robustness(4.7, 4.7) == 0.0

    def test_half_ratio(self):
        assert robustness(1.0, 2.0) == pytest.approx(0.346574, abs=1e-6)

    def test_degenerate_dc_zero(self):
        assert robustness(0.0, 0.0) == 0.0

    def test_asc_above_dc_is_an_upstream_bug(self):
        with pytest.raises(ValueError, match="exceeds"):
            robustness(1.0 + 1e-6, 1.0)
        # within the 1e-9 relative slack: clamped, not an error
        assert robustness(1.0 + 1e-12, 1.0) == 0.0


class TestProperties:
    def _random_sparse(self, rng, n):
        T = rng.uniform(0.1, 50.0, size=(n, n))
        T[rng.random((n, n)) < 0.6] = 0.0
        if np.count_nonzero(T) < 2:
            T[0, 1] = 3.0
            T[1, 2] = 4.0
        return T

    def test_brute_force_oracle_equivalence(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(5, 9))
            T = self._random_sparse(rng, n)
            m = metrics(T)
            total, asc, dc, r = brute_force(T.tolist())
            assert m.tstp == pytest.approx(total, rel=1e-9)
            assert m.asc == pytest.approx(asc, rel=1e-9)
            assert m.dc == pytest.approx(dc, rel=1e-9)
            assert m.robustness == pytest.approx(r, rel=1e-9, abs=1e-12)

    def test_asc_between_zero_and_dc(self):
        rng = np.random.default_rng(321)
        for _ in range(200):
            T = self._random_sparse(rng, int(rng.integers(5, 9)))
            m = metrics(T)
            assert m.asc >= -1e-9 * max(m.dc, 1.0)
            assert m.asc <= m.dc * (1 + 1e-12) + 1e-12
            assert 0.0 <= m.robustness <= 1 / math.e + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        T = self._random_sparse(rng, 6)
        base = metrics(T)
        for c in (1e-3, 1.0, 1e3):
            scaled = metrics(c * T)
            assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
            assert scaled.robustness == pytest.approx(base.robustness, rel=1e-12)
            assert scaled.asc == pytest.approx(c * base.asc, rel=1e-9)
            assert scaled.dc == pytest.approx(c * base.dc, rel=1e-9)

    def test_base_independence_of_ratio_and_robustness(self):
        rng = np.random.default_rng(77)
        T = self._random_sparse(rng, 7)
        total = T.sum()
        row = T.sum(axis=1)
        col = T.sum(axis=0)
        i, j = np.nonzero(T)
        vals = T[i, j]
        asc_nat = float(np.sum(vals * np.log(vals * total / (row[i] * col[j]))))
        dc_nat = float(-np.sum(vals * np.log(vals / total)))
        m = metrics(T)
        assert asc_nat / dc_nat == pytest.approx(m.ratio, rel=1e-12)
        assert robustness(asc_nat, dc_nat) == pytest.approx(m.robustness, rel=1e-12)

    def test_metrics_fields_consistent(self):
        T = chain_matrix()
        m = metrics(T)
        assert isinstance(m, EcoMetrics)
        assert m.ratio == pytest.approx(m.asc / m.dc)
        assert m.robustness == pytest.approx(robustness(m.asc, m.dc))


class TestOnePassMatchesReference:
    def test_ieee24_base_and_every_n1_outage(self, ieee24):
        outages = [OutageSet()]
        outages += [OutageSet.of(branches=[b.id]) for b in ieee24.branches]
        outages += [OutageSet.of(generators=[g.id]) for g in ieee24.generators]
        solved_count = 0
        for outage in outages:
            network = apply_outage(ieee24, outage)
            sol = solve(network)
            if not sol.converged:
                continue
            solved_count += 1
            for flow, mode in ALL_COMBOS:
                for absorbed_gen_q in ("dissipation", "export"):
                    assert_matches_reference(
                        build_eco_matrix(network, sol, flow, mode, absorbed_gen_q=absorbed_gen_q))
        assert solved_count == 71

    def test_random_networks(self):
        rng = np.random.default_rng(606)
        solved_count = 0
        for _ in range(120):
            network = random_network(rng)
            sol = solve(network)
            if not sol.converged:
                continue
            solved_count += 1
            for flow, mode in ALL_COMBOS:
                assert_matches_reference(build_eco_matrix(network, sol, flow, mode))
        assert solved_count >= 100

    @pytest.mark.parametrize("n", [3, 9, 40, 130, 520, 1500])
    @pytest.mark.parametrize("density", [0.001, 0.01, 0.1, 0.5])
    def test_random_sparse_matrices(self, n, density):
        rng = np.random.default_rng([n, int(density * 1000)])
        T = rng.lognormal(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < density)
        assert_matches_reference(T)
        # the result does not depend on the memory layout of the input
        assert _outcome(metrics, np.asfortranarray(T)) == _outcome(metrics, T)

    @pytest.mark.parametrize("case", [
        "non-square", "one-dimensional", "nan", "inf", "negative", "nan-and-negative",
        "all-zero", "negative-zero-beside-one-entry",
    ])
    def test_error_messages_match_reference(self, case):
        T = np.zeros((4, 4))
        T[0, 1] = 2.0
        if case == "non-square":
            T = np.ones((2, 3))
        elif case == "one-dimensional":
            T = np.ones(3)
        elif case == "nan":
            T[2, 3] = np.nan
        elif case == "inf":
            T[1, 0] = np.inf
        elif case == "negative":
            T[3, 3] = -1.0
        elif case == "nan-and-negative":
            T[0, 2] = -1.0
            T[3, 1] = np.nan
        elif case == "all-zero":
            T[0, 1] = 0.0
        else:
            T[0, 0] = -0.0
        assert_matches_reference(T)


def test_bincount_column_sums_equal_axis0_sums():
    """The column sums of the one-pass metrics rely on this numpy identity:
    an axis-0 sum of a C-contiguous matrix adds each column in row order."""
    rng = np.random.default_rng(11)
    for n, density in ((3, 0.5), (64, 0.3), (400, 0.2), (1500, 0.02), (1500, 0.5)):
        values = rng.lognormal(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < density)
        i, j = np.nonzero(values != 0)
        t = values[i, j]
        assert np.array_equal(np.bincount(j, weights=t, minlength=n), values.sum(axis=0))


def _hexes(values):
    return [float(v).hex() for v in values]


def assert_numpy_sums(values):
    """pairwise_sums over the nonzero entries gives numpy's dense total, row
    sums and strided column sums, hex for hex."""
    n = len(values)
    i, j = np.nonzero(values)
    t = values[i, j]
    total = pairwise_sums(np.zeros_like(i), i * n + j, t, n * n, 1)
    assert _hexes(total) == _hexes([values.sum()])
    assert _hexes(pairwise_sums(i, j, t, n, n)) == _hexes(values.sum(axis=1))
    by_col = np.lexsort((i, j))
    cols = pairwise_sums(j[by_col], i[by_col], t[by_col], n, n)
    assert _hexes(cols) == _hexes([values[:, c].sum() for c in range(n)])


class TestPairwiseSums:
    """The total and row sums of metrics, and the column sums that close the
    apparent-flow bus balances, rely on pairwise_sums reproducing numpy's
    pairwise summation (8 lanes, blocks of 128) from the entries alone."""

    # 1, 7: sequential; 8-128: one leaf of 8 lanes and a tail; 129+: split.
    # n*n crosses numpy's 8192-element buffer between 90 and 91.
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 90, 91, 127, 128, 129, 136, 600])
    @pytest.mark.parametrize("density", [0.0005, 0.01, 0.1, 0.5])
    def test_seeded_matrices(self, n, density):
        rng = np.random.default_rng([n, int(density * 10000)])
        values = rng.lognormal(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < density)
        values[0, :2] = 1.0 / 3.0  # at least one nonzero entry
        assert_numpy_sums(values)

    @pytest.mark.parametrize("n", [9, 128, 129, 257, 1000])
    def test_dense_matrices(self, n):
        assert_numpy_sums(np.random.default_rng(n).lognormal(0.0, 3.0, size=(n, n)))

    @pytest.mark.parametrize("n", [40, 300])
    def test_negative_zeros_beside_positive_entries(self, n):
        rng = np.random.default_rng(n)
        values = rng.lognormal(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < 0.3)
        rows, cols = values.any(axis=1), values.any(axis=0)
        spare = (values == 0) & rows[:, None] & cols[None, :] & (rng.random((n, n)) < 0.3)
        values[spare] = -0.0
        assert np.signbit(values).any()
        assert_numpy_sums(values)

    def test_ten_tile_case_matrices(self, tiled10):
        network, sol = tiled10
        for flow, mode in ALL_COMBOS:
            assert_numpy_sums(build_eco_matrix(network, sol, flow, mode).values)


def _solved_outaged_random_networks(rng, count):
    for _ in range(count):
        network = random_network(rng)
        branches = [b.id for b in network.branches]
        gens = [g.id for g in network.generators]
        outage = OutageSet.of(
            branches=rng.choice(branches, size=int(rng.integers(0, 3)), replace=False).tolist(),
            generators=rng.choice(gens, size=int(rng.integers(0, 2)), replace=False).tolist(),
        )
        network = apply_outage(network, outage)
        try:
            sol = solve(network)
        except PowerFlowError:
            continue
        if sol.converged:
            yield network, sol


class TestInvariantsOnOutagedRandomNetworks:
    def test_conservation_ordering_scaling_and_permutation(self):
        rng = np.random.default_rng(515)
        solved_count = 0
        for network, sol in _solved_outaged_random_networks(rng, 60):
            solved_count += 1
            for flow, mode in ALL_COMBOS:
                m = build_eco_matrix(network, sol, flow, mode)
                assert conservation_report(m) == []
                base = metrics(m)
                assert base.asc <= base.dc * (1 + 1e-9)
                for k in (-3, 5):  # power-of-two scaling is exact
                    assert metrics(m.values * 2.0**k).robustness.hex() == base.robustness.hex()
                p = rng.permutation(len(m.values))
                others = [m.values * c for c in (1e-3, 0.37, 7.0, 1e4)]
                for other in map(metrics, others + [m.values[np.ix_(p, p)]]):
                    assert math.isclose(other.ratio, base.ratio, rel_tol=1e-12)
                    # R = -a*ln(a) is about 1 - a near a = 1, so a one-ulp change
                    # of a fully determined matrix's a = 1 reads as 2.2e-16
                    assert math.isclose(other.robustness, base.robustness,
                                        rel_tol=1e-12, abs_tol=1e-15)
        assert solved_count >= 30
