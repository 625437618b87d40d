import math

import numpy as np
import pytest

from privroute.roadnet import (
    AccuracyCheck,
    DelayFunction,
    Edge,
    NegativeFlow,
    RoadNetwork,
    accuracy_threshold,
    check_accuracy_condition,
    count_to_flow,
    count_to_time,
    delta_capacity,
    delta_critical_count,
    flow_to_count,
    travel_time,
    verify_accuracy_guarantee,
)

BPR = DelayFunction(t0=1.0, capacity=100.0)


def test_delay_function_validation():
    with pytest.raises(ValueError):
        DelayFunction(t0=0.0, capacity=1.0)
    with pytest.raises(ValueError):
        DelayFunction(t0=1.0, capacity=-2.0)
    with pytest.raises(ValueError):
        DelayFunction(t0=1.0, capacity=1.0, alpha=-0.1)
    with pytest.raises(ValueError):
        DelayFunction(t0=1.0, capacity=1.0, beta=0.5)
    with pytest.raises(ValueError, match="finite"):
        DelayFunction(t0=math.inf, capacity=1.0)


def test_travel_time_examples():
    assert travel_time(BPR, 0.0) == 1.0
    assert travel_time(BPR, 100.0) == pytest.approx(1.15)
    assert travel_time(BPR, 200.0) == pytest.approx(3.4)
    d = DelayFunction(t0=30.0, capacity=5.0)
    assert travel_time(d, 0.0) == 30.0
    assert travel_time(d, 5.0) == pytest.approx(30.0 * 1.15)


def test_travel_time_nondecreasing():
    xs = np.linspace(0, 500, 1000)
    ts = travel_time(BPR, xs)
    assert np.all(np.diff(ts) >= 0)


def test_travel_time_negative_flow():
    with pytest.raises(NegativeFlow):
        travel_time(BPR, -1.0)
    with pytest.raises(NegativeFlow):
        flow_to_count(BPR, -0.5)


def test_flow_to_count_examples():
    assert flow_to_count(BPR, 0.0) == 0.0
    assert flow_to_count(BPR, 100.0) == pytest.approx(115.0)


def test_flow_to_count_strictly_increasing():
    xs = np.linspace(0.0, 400.0, 1000)
    fs = flow_to_count(BPR, xs)
    assert np.all(np.diff(fs) > 0)


def test_count_to_time_examples():
    assert count_to_time(BPR, 0.0) == pytest.approx(1.0)
    assert count_to_time(BPR, 115.0) == pytest.approx(1.15, rel=1e-9)
    # negative (noisy) counts clamp to free flow
    assert count_to_time(BPR, -7.3) == pytest.approx(1.0)


def test_count_time_round_trip():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.01, 500.0, 1000)
    counts = flow_to_count(BPR, xs)
    times = count_to_time(BPR, counts)
    direct = travel_time(BPR, xs)
    assert np.max(np.abs(times - direct) / direct) < 1e-7


def test_delta_capacity_examples():
    assert delta_capacity(BPR, 0.15) == pytest.approx(100.0)
    assert delta_capacity(BPR, 0.1) == pytest.approx(90.36, abs=0.01)
    # definitional residual: f(c_delta) = (1 + delta) * t0
    for delta in (0.02, 0.1, 0.5, 2.0):
        c_delta = delta_capacity(BPR, delta)
        assert travel_time(BPR, c_delta) == pytest.approx(1.0 + delta, abs=1e-9)
    assert delta_capacity(DelayFunction(1.0, 5.0, alpha=0.0), 0.1) == math.inf


def test_delta_critical_count_examples():
    assert delta_critical_count(BPR, 0.1) == pytest.approx(99.39, abs=0.01)
    for delta in (0.05, 0.1, 0.3):
        expected = flow_to_count(BPR, delta_capacity(BPR, delta))
        assert delta_critical_count(BPR, delta) == pytest.approx(expected, rel=1e-12)
    # monotone nondecreasing in delta
    deltas = np.linspace(0.001, 2.0, 200)
    crits = [delta_critical_count(BPR, d) for d in deltas]
    assert all(b >= a for a, b in zip(crits, crits[1:]))


def test_accuracy_threshold_value():
    thr = accuracy_threshold(0.2, 0.1, 0.1)
    assert thr == pytest.approx(126.64, abs=0.01)
    check = check_accuracy_condition(BPR, 0.2, 0.1, 0.1)
    assert check.min_integer_count == 127
    assert not check.satisfied  # critical count 99.4 < 126.64
    wide = check_accuracy_condition(DelayFunction(1.0, 130.0), 0.2, 0.1, 0.1)
    assert wide.critical_count == pytest.approx(129.2, abs=0.1)
    assert wide.satisfied


def test_accuracy_threshold_vacuous_when_p_fail_near_one():
    assert accuracy_threshold(0.2, 0.1, 0.999999) == pytest.approx(0.0, abs=1e-4)
    check = check_accuracy_condition(BPR, 0.2, 0.1, 0.999999)
    assert check.satisfied


def test_verify_accuracy_guarantee_on_qualifying_road():
    road = DelayFunction(t0=1.0, capacity=130.0)
    results = verify_accuracy_guarantee(
        road, 0.2, 0.1, 0.1, [1, 50, 127, 500], trials=4000, seed=2
    )
    for s, stats in results.items():
        assert stats["success_rate"] >= 0.90, (s, stats)


def test_verify_accuracy_guarantee_vacuous_delta():
    road = DelayFunction(t0=1.0, capacity=130.0)
    results = verify_accuracy_guarantee(road, 0.2, 10.0, 0.1, [1, 100], trials=2000)
    assert all(stats["success_rate"] == 1.0 for stats in results.values())


def test_verify_accuracy_guarantee_rejects_no_trials():
    road = DelayFunction(t0=1.0, capacity=130.0)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_accuracy_guarantee(road, 0.2, 0.1, 0.1, [1], trials=0)


def test_derivative_bound_and_count_flow_identity():
    # dtau/ds <= 1/F^-1(s), and tau(y) * F^-1(y) = y
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = DelayFunction(
            t0=rng.uniform(0.5, 600.0),
            capacity=rng.uniform(0.2, 5000.0),
            alpha=rng.uniform(0.05, 0.5),
            beta=rng.uniform(2.0, 6.0),
        )
        scale = flow_to_count(d, d.capacity)
        ys = np.linspace(0.02 * scale, 5.0 * scale, 1000)
        x = count_to_flow(d, ys)
        tau = count_to_time(d, ys)
        # identity within inversion tolerance
        assert np.max(np.abs(tau * x - ys) / ys) < 1e-7
        # central finite difference for dtau/ds
        h = np.maximum(1e-6 * ys, 1e-9)
        dtau = (count_to_time(d, ys + h) - count_to_time(d, ys - h)) / (2 * h)
        assert np.all(dtau <= (1.0 / x) * (1 + 1e-4))


def test_tau_nondecreasing_and_count_strictly_increasing():
    ys = np.linspace(0.0, 800.0, 1000)
    taus = count_to_time(BPR, ys)
    assert np.all(np.diff(taus) >= -1e-12)


def test_overshoot_probability_bounded_by_half_p_fail():
    # when the condition holds and s is below the low-count boundary, the
    # noised count exceeds the critical count with probability at most p/2
    eps, delta, p_fail = 0.2, 0.1, 0.1
    road = DelayFunction(t0=1.0, capacity=130.0)
    crit = delta_critical_count(road, delta)
    boundary = math.log(1 / p_fail) / (eps * delta)
    rng = np.random.default_rng(4)
    from privroute.laplace import sample_laplace_vector

    for s in (1.0, 50.0, min(126.0, boundary - 1)):
        assert s < boundary
        z = sample_laplace_vector(eps, rng, 200_000)
        overshoot = np.mean(s + z >= crit)
        assert overshoot <= p_fail / 2 + 0.01


def test_network_structure():
    d = DelayFunction(60.0, 1.0)
    edges = [Edge(0, 1, 2, d), Edge(1, 2, 3, d), Edge(2, 3, 1, d)]
    net = RoadNetwork([1, 2, 3], edges)
    assert net.n_nodes == 3 and net.n_edges == 3
    assert net.out_edges[1] == (0,)
    with pytest.raises(ValueError):
        RoadNetwork([1, 2], [Edge(0, 1, 1, d)])  # self-loop
    with pytest.raises(ValueError):
        RoadNetwork([1, 2], [Edge(0, 1, 5, d)])  # unknown node
