"""Pipelined live traffic: ``Machine.run`` against the serial loop.

For generator-backed workloads ``Machine.run`` generates window k+1 on
a producer thread while it simulates window k.  That is an execution
strategy only: every run must be bit-identical to stepping serially,
leave the workload in the serial loop's final state, surface producer
failures unchanged, and leave no thread behind.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.baselines import make_policy
from repro.exp.cache import canonical, content_hash, result_to_dict
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import ALL_WORKLOADS, ColocatedWorkload, Masim, make_workload
from repro.workloads.base import Workload

from conftest import TinyWorkload

#: Work per run: four full windows and a short fifth one.
TOTAL_MISSES = 1_200_000


def _colocated():
    return ColocatedWorkload(
        [
            Masim(pattern="sequential", footprint_pages=2_048,
                  total_misses=600_000, misses_per_window=160_000, seed=41),
            Masim(pattern="random", footprint_pages=2_048,
                  total_misses=600_000, misses_per_window=95_000, seed=42),
        ]
    )


def _workload(name):
    if name == "colocated":
        return _colocated()
    return make_workload(name, total_misses=TOTAL_MISSES, seed=5)


def _simulate(name, rng_schema, max_windows, pipelined, steps_first=0):
    """One run; returns (digest, per-window progress, workload end state)."""
    workload = _workload(name)
    policy = make_policy("PACT")
    machine = Machine(
        workload, policy, ratio="1:2", seed=3,
        config=MachineConfig(rng_schema=rng_schema),
    )
    progress = []
    observe = policy.observe

    def recording_observe(obs):
        progress.append(obs.progress)
        return observe(obs)

    policy.observe = recording_observe
    for _ in range(steps_first):
        machine.step()
    if pipelined:
        result = machine.run(max_windows=max_windows)
    else:
        while not workload.done and machine._window < max_windows:
            machine.step()
        result = machine.result()
    digest = content_hash(canonical(result_to_dict(result)))
    state = (workload.window_index, workload.progress, workload.final_metrics())
    return digest, progress, state


def _all_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class TestPipelinedMatchesSerial:
    @pytest.mark.parametrize("rng_schema", [1, 2])
    @pytest.mark.parametrize("name", ALL_WORKLOADS + ["colocated"])
    def test_run_to_done(self, name, rng_schema):
        serial = _simulate(name, rng_schema, 200_000, pipelined=False)
        piped = _simulate(name, rng_schema, 200_000, pipelined=True)
        assert piped == serial
        assert serial[2][1] == 1.0

    @pytest.mark.parametrize("name", ["gups", "colocated"])
    def test_max_windows_cuts_before_done(self, name):
        serial = _simulate(name, 2, 3, pipelined=False)
        piped = _simulate(name, 2, 3, pipelined=True)
        assert piped == serial
        assert len(piped[1]) == 3
        assert piped[2][1] < 1.0

    def test_run_after_serial_steps(self):
        serial = _simulate("bc-kron", 2, 200_000, pipelined=False)
        piped = _simulate("bc-kron", 2, 200_000, pipelined=True, steps_first=2)
        assert piped == serial

    def test_rapid_thread_switching(self):
        # Switching threads every microsecond exposes any workload state
        # the loop were to read while a window is in flight.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name in ("gups", "gpt-2", "colocated"):
                serial = _simulate(name, 2, 200_000, pipelined=False)
                assert _simulate(name, 2, 200_000, pipelined=True) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_progress_is_the_stamped_work_counter(self):
        _, progress, _ = _simulate("gups", 1, 200_000, pipelined=True)
        assert progress == [min(c / TOTAL_MISSES, 1.0) for c in
                            (250_000, 500_000, 750_000, 1_000_000, 1_200_000)]


class FailingWorkload(TinyWorkload):
    """Raises from ``_emit`` on window 3 (zero-based)."""

    def __init__(self):
        super().__init__()
        self.error = RuntimeError("generator failed on window 3")

    def _emit(self, budget, rng):
        if self.window_index == 3:
            raise self.error
        return super()._emit(budget, rng)


class TestProducerThread:
    def test_producer_exception_propagates_unchanged(self):
        workload = FailingWorkload()
        machine = Machine(workload, make_policy("PACT"), ratio="1:2", seed=1)
        with pytest.raises(RuntimeError) as info:
            machine.run()
        assert info.value is workload.error
        # Windows 0-2 were simulated; nothing is left in flight.
        assert machine._window == 3
        assert workload._inflight is None

    def test_no_thread_outlives_run(self):
        before = threading.active_count()
        Machine(TinyWorkload(), make_policy("PACT"), ratio="1:2", seed=1).run()
        assert threading.active_count() == before
        with pytest.raises(RuntimeError):
            Machine(FailingWorkload(), make_policy("PACT"), ratio="1:2", seed=1).run()
        assert threading.active_count() == before

    def test_step_stays_serial(self):
        workload = TinyWorkload()
        machine = Machine(workload, make_policy("PACT"), ratio="1:2", seed=1)
        before = threading.active_count()
        machine.step()
        assert threading.active_count() == before
        assert workload._inflight is None
        assert workload.window_index == 1


def test_generation_entry_points_run_on_the_main_thread(monkeypatch):
    """Only the main thread enters ``next_window``/``next_windows``.

    The benchmark's tracer wraps both on every ``Workload`` subclass
    that defines them and keeps a single span stack for the process;
    the producer thread must only ever run the unwrapped body.
    """
    entered = []

    def on_main_thread(original):
        def checked(self, *args, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            entered.append(original.__qualname__)
            return original(self, *args, **kwargs)

        return checked

    for cls in [Workload] + _all_subclasses(Workload):
        for attr in ("next_window", "next_windows"):
            if attr in cls.__dict__:
                monkeypatch.setattr(cls, attr, on_main_thread(cls.__dict__[attr]))
    producers = []
    generate = Workload._generate_window

    def noting_thread(self):
        producers.append(threading.current_thread() is not threading.main_thread())
        return generate(self)

    monkeypatch.setattr(Workload, "_generate_window", noting_thread)
    for name in ("gups", "colocated"):
        workload = _workload(name)
        Machine(workload, make_policy("PACT"), ratio="1:2", seed=1).run()
    assert "Workload.next_window" in entered
    # The pipeline really ran: generation happened off the main thread.
    assert any(producers)
