import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sim_reference import reference_claim_years
from tree_oracle import enumerate_expected_realized_gain, tree_game_value
from multistop.distributions import NumericalError
from multistop.stopping import (
    Decision,
    Horizon,
    StoppingState,
    StopLossGain,
    ValueTable,
    claim_years,
    compute_value_table,
    decide,
    lognormal_local_model,
    run_rule,
    thresholds,
)

# Reference values of the standard-lognormal local game, rows L=1..10.
LOGNORMAL_TABLE = {
    (1, 1): -1.65,
    (2, 1): -1.02, (2, 2): -3.30,
    (3, 1): -0.77, (3, 2): -2.19, (3, 3): -4.95,
    (4, 1): -0.64, (4, 2): -1.71, (4, 3): -3.45, (4, 4): -6.59,
    (5, 1): -0.55, (5, 2): -1.43, (5, 3): -2.76, (5, 4): -4.77, (5, 5): -8.24,
    (6, 1): -0.49, (6, 2): -1.25, (6, 3): -2.34, (6, 4): -3.87, (6, 5): -6.12,
    (6, 6): -9.89,
    (7, 1): -0.44, (7, 2): -1.12, (7, 3): -2.05, (7, 4): -3.32, (7, 5): -5.04,
    (7, 6): -7.51, (7, 7): -11.54,
    (8, 1): -0.41, (8, 2): -1.02, (8, 3): -1.85, (8, 4): -2.94, (8, 5): -4.36,
    (8, 6): -6.26, (8, 7): -8.91, (8, 8): -13.19,
    (9, 1): -0.38, (9, 2): -0.94, (9, 3): -1.69, (9, 4): -2.65, (9, 5): -3.88,
    (9, 6): -5.45, (9, 7): -7.50, (9, 8): -10.34, (9, 9): -14.84,
    (10, 1): -0.36, (10, 2): -0.88, (10, 3): -1.56, (10, 4): -2.43, (10, 5): -3.52,
    (10, 6): -4.87, (10, 7): -6.58, (10, 8): -8.78, (10, 9): -11.78,
}

WORKED_GAINS = [-0.57, -0.79, -4.75, -1.07, -1.14, -5.56, -1.59]


class DiscreteGain:
    """Exact finite-support gain model for oracle comparisons."""

    def __init__(self, values, probs):
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        assert abs(self.probs.sum() - 1.0) < 1e-12

    @property
    def mean_gain(self):
        return float(np.dot(self.values, self.probs))

    def expected_max(self, c1, c2):
        if c2 == -math.inf:
            return c1 + self.mean_gain
        return float(np.dot(np.maximum(c1 + self.values, c2), self.probs))


@pytest.fixture(scope="module")
def ln_table():
    return compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=10, k=9))


@pytest.fixture(scope="module")
def ln_table_t7():
    return compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=7, k=4))


# ---------------------------------------------------------------- value table


def test_lognormal_model_mean_and_first_cells(ln_table):
    model = lognormal_local_model(0.0, 1.0)
    assert model.mean_gain == pytest.approx(-math.exp(0.5), abs=1e-14)
    assert abs(ln_table.value(1, 1) - (-1.65)) < 0.01
    assert model.expected_max(0.0, ln_table.value(1, 1)) == pytest.approx(
        ln_table.value(2, 1), abs=1e-14
    )
    assert abs(ln_table.value(2, 1) - (-1.02)) < 0.01
    assert model.expected_max(0.0, -math.inf) == model.mean_gain


def test_lognormal_reference_table_reproduced(ln_table):
    for (L, l), printed in LOGNORMAL_TABLE.items():
        assert abs(ln_table.value(L, l) - printed) < 0.01, (L, l)


def test_diagonal_unrolls_to_multiples_of_the_mean():
    model = lognormal_local_model(0.0, 1.0)
    table = compute_value_table(model, Horizon(T=8, k=7))
    for l in range(1, 8):
        assert table.value(l, l) == pytest.approx(l * model.mean_gain, rel=1e-14)


def test_value_table_orderings(ln_table):
    # local regime: columns decrease in l, rows increase in L
    for L in range(1, 11):
        for l in range(1, min(L, 9)):
            assert ln_table.value(L, l + 1) <= ln_table.value(L, l) <= 0.0
    for l in range(1, 10):
        for L in range(l + 1, 10):
            assert ln_table.value(L + 1, l) >= ln_table.value(L, l)


def test_global_regime_orderings():
    model = DiscreteGain([0.0, 1.0, 4.0], [0.3, 0.4, 0.3])
    table = compute_value_table(model, Horizon(T=7, k=4))
    for L in range(1, 8):
        for l in range(1, min(L, 4)):
            assert 0.0 <= table.value(L, l) <= table.value(L, l + 1)


def test_value_undefined_cells_raise(ln_table):
    with pytest.raises(ValueError):
        ln_table.value(2, 3)
    with pytest.raises(ValueError):
        ln_table.value(11, 1)


def test_value_table_csv_layout(tmp_path, ln_table):
    path = tmp_path / "table.csv"
    ln_table.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "L"
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(ln_table.value(1, 1))
    assert first[2] == ""  # blank above the diagonal
    last = rows[-1].split(",")
    assert float(last[9]) == pytest.approx(ln_table.value(10, 9))


class CallLog:
    """Forwarding proxy that records the name of every method called through it."""

    def __init__(self, model):
        self._model = model
        self.calls = []

    def __getattr__(self, attr):
        value = getattr(self._model, attr)
        if not callable(value):
            return value

        def logged(*args):
            self.calls.append(attr)
            return value(*args)

        return logged


def test_models_are_called_per_row_or_per_cell_through_a_proxy():
    # a StopLossGain takes one call per row, also behind a forwarding proxy
    proxy = CallLog(lognormal_local_model(0.0, 1.0))
    compute_value_table(proxy, Horizon(T=12, k=4))
    assert proxy.calls == ["expected_max"] * 12
    # a model with a scalar-only expected_max is called per off-diagonal cell
    proxy = CallLog(DiscreteGain([0.0, 1.0, 4.0], [0.3, 0.4, 0.3]))
    compute_value_table(proxy, Horizon(T=7, k=4))
    assert proxy.calls == ["expected_max"] * sum(min(L - 1, 4) for L in range(1, 8))


def test_failing_stop_loss_is_reported_with_its_row():
    class Broken(StopLossGain):
        """W = -1, whose stop-loss transform fails once a row holds three cells."""

        def stop_loss(self, delta):
            if delta.size >= 3:
                raise FloatingPointError("kernel diverged")
            return np.maximum(-1.0 - delta, 0.0)

    with pytest.raises(NumericalError, match=r"row L=4\b.*kernel diverged") as info:
        compute_value_table(Broken(-1.0), Horizon(T=8, k=3))
    assert isinstance(info.value.__cause__, FloatingPointError)


# ---------------------------------------------------------------- thresholds


def test_worked_example_thresholds(ln_table_t7):
    b1 = ln_table_t7.threshold(6, 1)
    b2 = ln_table_t7.threshold(5, 2)
    b3 = ln_table_t7.threshold(3, 3)
    assert abs(b1 - (-1.53)) < 0.01
    assert abs(b2 - (-1.33)) < 0.01
    assert abs(b3 - (-1.42)) < 0.01


def test_threshold_last_right_is_single_stop_value(ln_table_t7):
    for L in range(1, 7):
        assert ln_table_t7.threshold(L, 4) == ln_table_t7.value(L, 1)


def test_threshold_forced_boundary(ln_table_t7):
    # right i must be used by year T - k + i, i.e. once L == k - i
    for i in range(1, 5):
        assert ln_table_t7.threshold(4 - i, i) == -math.inf


def test_thresholds_matrix_shape(ln_table_t7):
    mat = thresholds(ln_table_t7)
    assert mat.shape == (7, 4)
    assert mat[0, 0] == -math.inf  # L=0 for the first right is deep in forced land
    assert mat[6, 3] == ln_table_t7.value(6, 1)


@pytest.mark.parametrize("T, k", [(7, 4), (10, 9), (40, 12)])
def test_thresholds_matrix_equals_cellwise_threshold(T, k):
    table = compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=T, k=k))
    mat = thresholds(table)
    assert mat.shape == (T, k)
    v = table.values
    for L in range(T):
        for i in range(1, k + 1):
            rights_after = k - i
            if L <= rights_after:
                expected = -math.inf
            else:
                expected = v[L, rights_after + 1] - (v[L, rights_after] if rights_after else 0.0)
            assert mat[L, i - 1] == table.threshold(L, i) == expected
    assert np.isneginf(mat).sum() == k * (k + 1) // 2


def test_threshold_rejects_years_left_outside_the_matrix(ln_table_t7):
    for L in (-1, 7):
        with pytest.raises(ValueError):
            ln_table_t7.threshold(L, 1)


# ---------------------------------------------------------------- decisions


def test_worked_example_decisions(ln_table_t7):
    res = run_rule(WORKED_GAINS, ln_table_t7)
    assert res.taus == (1, 2, 4, 7)
    assert res.realized_gain == pytest.approx(-4.02, abs=1e-12)


def test_tie_with_threshold_claims(ln_table_t7):
    state = StoppingState(year=1, rights_used=0, horizon=Horizon(7, 4), table=ln_table_t7)
    assert decide(state, state.current_threshold) is Decision.CLAIM
    assert decide(state, state.current_threshold - 1e-12) is Decision.WAIT


def test_forced_state_claims_any_gain(ln_table_t7):
    state = StoppingState(year=4, rights_used=0, horizon=Horizon(7, 4), table=ln_table_t7)
    assert state.current_threshold == -math.inf
    assert decide(state, -1e12) is Decision.CLAIM


@pytest.mark.parametrize("year", [1, 4])  # a free state and a forced one
def test_nan_gain_is_rejected(ln_table_t7, year):
    state = StoppingState(year=year, rights_used=0, horizon=Horizon(7, 4), table=ln_table_t7)
    with pytest.raises(ValueError, match="NaN"):
        decide(state, math.nan)


def test_infeasible_state_rejected(ln_table_t7):
    with pytest.raises(ValueError):
        StoppingState(year=5, rights_used=0, horizon=Horizon(7, 4), table=ln_table_t7)


@pytest.mark.parametrize("horizon", [Horizon(8, 3), Horizon(10, 3), Horizon(8, 4)])
def test_state_rejects_a_horizon_other_than_its_tables(horizon):
    # a T = 10, k = 4 table read as Horizon(8, 3) would give year 1 the
    # 7-years-left cell (-1.2652), not the table's first-year trigger (-0.9630)
    table = compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=10, k=4))
    with pytest.raises(ValueError, match="does not match table T=10, k=4"):
        StoppingState(year=1, rights_used=0, horizon=horizon, table=table)
    state = StoppingState(year=1, rights_used=0, horizon=Horizon(10, 4), table=table)
    assert state.current_threshold == table.threshold(9, 1)


def test_equal_gains_claim_immediately():
    model = DiscreteGain([2.0], [1.0])
    table = compute_value_table(model, Horizon(T=6, k=3))
    res = run_rule([2.0] * 6, table)
    assert res.taus == (1, 2, 3)
    assert res.realized_gain == pytest.approx(6.0)


def test_single_stop_takes_early_maximum():
    model = DiscreteGain([0.0, 1.0, 5.0], [0.4, 0.4, 0.2])
    table = compute_value_table(model, Horizon(T=5, k=1))
    gains = [5.0, 1.0, 0.0, 1.0, 0.0]
    assert run_rule(gains, table).taus == (1,)
    # brute force over all single years with these observed gains
    assert max(gains) == gains[0]


@pytest.mark.parametrize("T, k", [(8, 1), (8, 3), (8, 7), (40, 12), (40, 39)])
def test_claim_years_matches_frozen_loop(T, k):
    b = thresholds(compute_value_table(lognormal_local_model(0.0, 1.0), Horizon(T=T, k=k)))
    rng = np.random.default_rng(T * 100 + k)
    wide = -rng.lognormal(0.0, 1.0, (900, 3 * T))
    # ties with the triggers, and gains no trigger orders: +inf claims only
    # while rights remain, NaN never claims, not even when forced
    wide[:20, :T] = b[::-1, :1].T
    wide[20:30, 1] = np.inf
    wide[30:35, T - 1] = np.nan
    gains = wide[:, :T]
    for w in (np.ascontiguousarray(gains), np.asfortranarray(gains), wide[:, ::3], wide[::2, T:2 * T]):
        assert np.array_equal(claim_years(w, b), reference_claim_years(w, b))


def test_run_rule_length_validation(ln_table_t7):
    with pytest.raises(ValueError):
        run_rule([0.0] * 6, ln_table_t7)


def test_run_rule_rejects_nan_gains(ln_table_t7):
    with pytest.raises(ValueError):
        run_rule([0.0] * 6 + [math.nan], ln_table_t7)


@given(
    st.integers(min_value=2, max_value=6),
    st.data(),
)
def test_rule_always_feasible(T, data):
    k = data.draw(st.integers(min_value=1, max_value=T - 1))
    values = data.draw(
        st.lists(
            st.floats(min_value=-5, max_value=5), min_size=3, max_size=3, unique=True
        )
    )
    model = DiscreteGain(values, [0.25, 0.35, 0.4])
    table = compute_value_table(model, Horizon(T=T, k=k))
    gains = data.draw(
        st.lists(st.sampled_from(values), min_size=T, max_size=T)
    )
    res = run_rule(gains, table)
    assert len(res.taus) == k
    assert all(b > a for a, b in zip(res.taus, res.taus[1:]))
    assert all(res.taus[i] <= T - k + i + 1 for i in range(k))


@given(
    st.floats(min_value=-3.0, max_value=0.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_expected_max_contract_properties(c1, d2, bump):
    model = lognormal_local_model(0.0, 1.0)
    c2 = c1 - d2
    val = model.expected_max(c1, c2)
    assert val >= max(c1 + model.mean_gain, c2) - 1e-12
    # nondecreasing in each argument (stay inside the local sign regime)
    assert model.expected_max(min(c1 + bump, 0.0), c2) >= val - 1e-12
    assert model.expected_max(c1, min(c2 + bump, c1)) >= val - 1e-12


@pytest.mark.parametrize("local", [True, False])
def test_stop_loss_base_absorbs_roundoff(local):
    class ZeroGain(StopLossGain):
        """W = 0, reported with roundoff in its mean and its stop-loss term."""

        def stop_loss(self, delta):
            return max(-delta, 0.0) + 1e-20

    ZeroGain.local = local
    model = ZeroGain(3.4e-25 if local else -3.4e-25)  # the wrong sign for W
    assert model.mean_gain == 0.0
    assert model.expected_max(-1.0 if local else 1.0, -2.0 if local else 2.0) == (
        -1.0 if local else 2.0
    )
    table = compute_value_table(model, Horizon(T=6, k=3))
    assert all(table.value(L, l) == 0.0 for L in range(1, 7) for l in range(1, min(L, 3) + 1))
    with pytest.raises(ValueError):
        model.expected_max(-1.0, -0.5) if local else model.expected_max(2.0, 1.0)


# ------------------------------------------------- exhaustive scenario oracle


@pytest.mark.parametrize("T,k", [(4, 1), (4, 2), (5, 3), (6, 2), (6, 3)])
def test_scenario_tree_oracle(T, k):
    values = [-2.0, -0.5, 1.5]
    probs = [0.25, 0.45, 0.3]
    model = DiscreteGain(values, probs)
    table = compute_value_table(model, Horizon(T=T, k=k))
    oracle = tree_game_value(values, probs, T, k)
    assert table.value(T, k) == pytest.approx(oracle, abs=1e-12)
    realized = enumerate_expected_realized_gain(values, probs, T, table)
    assert realized == pytest.approx(oracle, abs=1e-12)


def test_rule_beats_every_fixed_triple(rng):
    model = lognormal_local_model(0.0, 1.0)
    T, k, n_paths = 7, 4, 10_000
    table = compute_value_table(model, Horizon(T=T, k=k))
    gains = -np.exp(rng.standard_normal((n_paths, T)))
    realized = np.array([run_rule(row, table).realized_gain for row in gains])
    for combo in itertools.combinations(range(T), k):
        fixed = gains[:, combo].sum(axis=1)
        diff = realized - fixed
        se = diff.std(ddof=1) / math.sqrt(n_paths)
        assert diff.mean() >= -3.0 * se, combo


def test_horizon_validation():
    with pytest.raises(ValueError):
        Horizon(T=5, k=5)
    with pytest.raises(ValueError):
        Horizon(T=1, k=1)
    with pytest.raises(ValueError):
        Horizon(T=5, k=0)
