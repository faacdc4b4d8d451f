import pytest

import measure
from measure import HostClock, correction, nearest_rank, samples_beyond


def test_correction_scales_by_reference_over_mean_probe():
    assert correction(0.002, 0.004, ref=0.003) == pytest.approx(1.0)
    # A host running at half speed doubles the probe: halve the seconds.
    assert correction(0.006, 0.006, ref=0.003) == pytest.approx(0.5)
    assert correction(0.0015, 0.0015, ref=0.003) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        correction(0.0, 0.0)


def test_clock_chains_probes_and_excludes_them(monkeypatch):
    probes = iter([0.002, 0.004, 0.006])
    now = iter([10.0, 11.0, 11.5, 13.5, 14.0])
    monkeypatch.setattr(measure.time, "perf_counter", lambda: next(now))
    clock = HostClock(probe_fn=lambda: next(probes))  # probe 0.002, t=10
    assert clock.lap() == pytest.approx(
        (1.0, measure.PROBE_REF_S / 0.003))          # probe 0.004, t=11.5
    raw, factor = clock.lap()                          # t=13.5, probe 0.006
    assert raw == pytest.approx(2.0)  # from 11.5: the probe is not counted
    assert factor == pytest.approx(measure.PROBE_REF_S / 0.005)
    assert clock.raw_s() == pytest.approx(3.0)
    assert clock.corrected_s() == pytest.approx(
        1.0 * measure.PROBE_REF_S / 0.003 + 2.0 * measure.PROBE_REF_S / 0.005)
    assert clock.probes == [0.002, 0.004, 0.006]


def test_probe_measures_positive_time():
    assert measure.probe(loops=1000) > 0.0


def test_nearest_rank_returns_observed_samples():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 95) == 95
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 95) == 7.0
    assert nearest_rank([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1], 0)


def test_p95_has_ten_samples_beyond_it_from_200_samples():
    assert samples_beyond(range(200), 95) == 10
    assert samples_beyond(range(199), 95) == 9
    assert samples_beyond(range(400), 95) == 20
    values = [float(i) for i in range(200)]
    p95 = nearest_rank(values, 95)
    assert sum(1 for v in values if v > p95) == 10


def test_spread_is_iqr_over_median():
    assert measure.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    assert measure.spread(values) == pytest.approx((10.5 - 9.5) / 10.0)
