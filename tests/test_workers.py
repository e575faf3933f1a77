"""The span helper behind the ASTFT and the scatterer render: every
thread it starts is joined before the call returns or raises."""

import sys
import threading
import time

import numpy as np
import pytest
from oracles import doppler_time_reference, generate_reference, mti_profiles

from fmcwhar import _workers, dsp, synth, training
from fmcwhar import domain_maps as dm
from fmcwhar.training import TOY_RADAR_PARAMS


@pytest.fixture
def started(monkeypatch):
    """Two workers whatever the CPU count, and a count of the threads started."""
    monkeypatch.setattr(_workers, "WORKERS", 2)
    count = [0]

    class Counted(threading.Thread):
        def start(self):
            count[0] += 1
            super().start()
    monkeypatch.setattr(_workers.threading, "Thread", Counted)
    return count


@pytest.mark.parametrize("workers, n, sizes", [
    (1, 5, [5]), (2, 1, [1]), (2, 2, [1, 1]), (2, 7, [3, 4]), (2, 0, [0])])
def test_split_is_contiguous_and_in_order(monkeypatch, workers, n, sizes):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    spans = _workers.split(n)
    assert [s.stop - s.start for s in spans] == sizes
    assert spans[0].start == 0 and spans[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))


def test_front_end_threads_are_joined_on_return(started):
    scene = synth.activity_template("walk", seed=3)
    before = threading.active_count()
    echo = synth.generate(scene, TOY_RADAR_PARAMS)
    assert threading.active_count() == before
    training.maps_for_echo(echo, 16)
    assert threading.active_count() == before
    assert started[0] == 2  # one worker for the render, one for the ASTFT


def test_one_worker_starts_no_thread(started, monkeypatch):
    monkeypatch.setattr(_workers, "WORKERS", 1)
    echo = synth.generate(synth.activity_template("fall", 1), TOY_RADAR_PARAMS)
    training.maps_for_echo(echo, 16)
    assert started[0] == 0


def _spans(fail, slow):
    """Work over three spans that raises in span ``fail`` and sleeps in
    span ``slow``, and the list of spans that finished."""
    finished = []

    def work(index):
        if index == slow:
            time.sleep(0.05)
        if index in fail:
            raise ValueError(f"span {index}")
        finished.append(index)
    return work, finished


@pytest.mark.parametrize("fail, slow, first", [
    ({0}, 2, 0), ({1}, 0, 1), ({2}, 1, 2), ({1, 2}, 1, 1), ({0, 2}, 2, 0)])
def test_error_is_raised_after_every_thread_is_joined(fail, slow, first):
    work, finished = _spans(fail, slow)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"^span {first}$"):
        _workers.run(work, [(0,), (1,), (2,)])
    assert threading.active_count() == before
    assert sorted(finished) == sorted({0, 1, 2} - fail)


def test_worker_error_leaves_the_dt_map_after_the_join(started, monkeypatch):
    original = dsp.concentration

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.01)
            raise RuntimeError("injected")
        return original(*args, **kwargs)
    monkeypatch.setattr(dsp, "concentration", failing)
    echo = synth.generate(synth.activity_template("sit", 2), TOY_RADAR_PARAMS)
    started[0] = 0
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected"):
        dm.doppler_time_map(echo)
    assert threading.active_count() == before
    assert started[0] == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_render_matches_reference_on_one_and_two_workers(monkeypatch, workers):
    monkeypatch.setattr(_workers, "WORKERS", workers)
    scene = synth.Scene(
        scatterers=(synth.Scatterer(2.0, 0.7),
                    synth.Scatterer(5.0, ((0.0, -1.2), (0.2, 0.4)), amplitude=0.5)),
        duration_s=0.5, noise_std=0.05, seed=9)
    got = synth.generate(scene, TOY_RADAR_PARAMS).data
    assert got.tobytes() == generate_reference(scene, TOY_RADAR_PARAMS).data.tobytes()
    assert np.any(got != 0)


def test_more_workers_than_cpus_with_fast_switching_keep_the_bytes(monkeypatch):
    """The spans write disjoint rows of shared arrays: five of them,
    switching threads every microsecond, give the one-thread bytes."""
    monkeypatch.setattr(_workers, "WORKERS", 5)
    scene = synth.Scene(
        scatterers=(synth.Scatterer(2.0, 0.7), synth.Scatterer(4.0, -1.1, amplitude=0.5)),
        duration_s=0.4, noise_std=0.05, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        echo = synth.generate(scene, TOY_RADAR_PARAMS)
        got, selection = dm.doppler_time_map(echo, return_selection=True)
    finally:
        sys.setswitchinterval(interval)
    assert echo.data.tobytes() == generate_reference(scene, TOY_RADAR_PARAMS).data.tobytes()
    want, want_selection = doppler_time_reference(
        echo.params, mti_profiles(echo), dm.AstftConfig.default_for(echo.params))
    assert got.values.tobytes() == want.values.tobytes()
    assert selection.tobytes() == want_selection.tobytes()
