"""Tests for the batch runner (thread pool, retries, ordering, deadlines)."""

import contextvars
import threading
import time

import pytest

from repro.runtime import BatchRunner, Trial


def square(x):
    return x * x


def sleepy_identity(x, delay=0.0):
    time.sleep(delay)
    return x


def fail_until_sentinel(path):
    """Raise on the first call, succeed once the sentinel file exists."""
    if path.exists():
        return "recovered"
    path.write_text("crashed once")
    raise RuntimeError("transient crash")


def always_fails():
    raise ValueError("permanent")


class TestModes:
    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=0)

    def test_one_worker_is_sequential(self):
        """One worker runs every trial inline, on the caller's thread."""
        caller = threading.get_ident()
        outcomes = BatchRunner(workers=1).run(
            [Trial(threading.get_ident) for _ in range(3)]
        )
        assert [o.value for o in outcomes] == [caller] * 3


class TestExecution:
    def test_empty_run(self):
        assert BatchRunner(workers=2).run([]) == []

    def test_thread_mode_preserves_order_despite_delays(self):
        runner = BatchRunner(workers=4)
        # The first trial finishes last; ordering must not follow completion.
        outcomes = runner.run([
            Trial(sleepy_identity, (0,), {"delay": 0.2}),
            Trial(sleepy_identity, (1,)),
            Trial(sleepy_identity, (2,)),
        ])
        assert [o.value for o in outcomes] == [0, 1, 2]

    def test_sequential_matches_pooled_results(self):
        trials = [Trial(square, (i,)) for i in range(8)]
        pooled = BatchRunner(workers=4).run(trials)
        inline = BatchRunner(workers=1).run(trials)
        assert [o.value for o in pooled] == [o.value for o in inline]
        assert [o.index for o in pooled] == list(range(8))
        assert all(o.ok and o.attempts == 1 for o in pooled)

    def test_bare_callables_are_coerced(self):
        outcomes = BatchRunner(workers=1).run([lambda: 7, lambda: 8])
        assert [o.value for o in outcomes] == [7, 8]


class TestFailureHandling:
    def test_crash_retried_once(self, tmp_path):
        sentinel = tmp_path / "crashed"
        runner = BatchRunner(workers=2)
        outcome, _ = runner.run(
            [Trial(fail_until_sentinel, (sentinel,)), Trial(square, (2,))]
        )
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_crash_retried_once_sequential(self, tmp_path):
        sentinel = tmp_path / "crashed"
        runner = BatchRunner(workers=1)
        (outcome,) = runner.run([Trial(fail_until_sentinel, (sentinel,))])
        assert outcome.ok and outcome.attempts == 2

    def test_permanent_failure_reported_not_raised(self):
        runner = BatchRunner(workers=2)
        good, bad = runner.run([Trial(square, (6,)), Trial(always_fails)])
        assert good.value == 36
        assert not bad.ok
        assert bad.attempts == 2
        with pytest.raises(ValueError, match="permanent"):
            bad.unwrap()

    def test_retry_queues_behind_waiting_trials(self):
        """A trial that raised is resubmitted to the back of the pool's
        queue, not re-run at once in its worker, so one trial does not
        meet two injected faults in a row while others wait."""
        lock = threading.Lock()
        starts = []

        def trial(i):
            with lock:
                starts.append(i)
                first = starts.count(i) == 1
            if i == 0 and first:
                raise RuntimeError("transient crash")
            time.sleep(0.1)
            return i

        outcomes = BatchRunner(workers=2).run(
            [Trial(trial, (i,)) for i in range(3)]
        )
        assert [o.value for o in outcomes] == [0, 1, 2]
        assert sorted(starts[:3]) == [0, 1, 2]
        assert starts[3:] == [0]

    def test_timeout_marks_outcome(self):
        """A trial a worker picks up after the budget expired is marked
        ``timed_out`` without running; the running ones still finish."""
        from repro.resilience import DeadlineBudget

        ran = []
        budget = DeadlineBudget(0.2)
        runner = BatchRunner(workers=2, budget=budget)
        outcomes = runner.run([
            Trial(lambda i=i: ran.append(i) or time.sleep(0.5))
            for i in range(3)
        ])
        first, second, late = outcomes
        assert first.ok and second.ok
        assert late.timed_out and not late.ok
        assert isinstance(late.error, TimeoutError)
        assert late.attempts == 0
        assert sorted(ran) == [0, 1]


class TestWaitsForItsTrials:
    def test_run_returns_after_every_started_trial_finished(self):
        """No trial outlives ``run``, none starts twice, and none starts
        once the budget has expired."""
        from repro.resilience import DeadlineBudget

        lock = threading.Lock()
        started, finished = [], []

        def slow(i):
            with lock:
                started.append(i)
            time.sleep(0.4)
            with lock:
                finished.append(i)
            return i

        runner = BatchRunner(workers=2, budget=DeadlineBudget(0.2))
        outcomes = runner.run([Trial(slow, (i,)) for i in range(4)])
        assert sorted(started) == sorted(finished) == [0, 1]
        assert [o.ok for o in outcomes] == [True, True, False, False]
        assert [o.timed_out for o in outcomes] == [False, False, True, True]
        time.sleep(0.5)  # nothing left running could append late
        assert sorted(started) == [0, 1]

    def test_callback_error_waits_for_running_trials(self):
        """An exception from ``on_outcome`` aborts the run, but only once
        the trials already running have finished; later ones never
        start."""
        lock = threading.Lock()
        started, finished = [], []

        def slow(i):
            with lock:
                started.append(i)
            time.sleep(0.1 if i == 0 else 0.3)
            with lock:
                finished.append(i)

        def abort(outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            BatchRunner(workers=2).run(
                [Trial(slow, (i,)) for i in range(6)], on_outcome=abort
            )
        assert sorted(started) == sorted(finished)
        assert len(started) < 6


class TestContextPropagation:
    def test_trials_run_in_a_copy_of_the_callers_context(self):
        """Thread trials see the caller's context variables: spans they
        open parent under the caller's span in the caller's trace, and
        a variable they set does not leak back to the caller."""
        from repro.telemetry.sinks import CollectorSink
        from repro.telemetry.trace import configure, span

        tag = contextvars.ContextVar("tag", default="unset")
        caller_thread = threading.get_ident()

        def trial(i):
            seen = tag.get()
            tag.set(f"trial{i}")
            with span("trial.work", i=i):
                pass
            return seen, threading.get_ident()

        sink = CollectorSink()
        configure([sink])
        tag.set("caller")
        with span("caller") as root:
            outcomes = BatchRunner(workers=2).run(
                [Trial(trial, (i,)) for i in range(4)]
            )
        assert tag.get() == "caller"
        assert [o.value[0] for o in outcomes] == ["caller"] * 4
        assert all(o.value[1] != caller_thread for o in outcomes)
        work = [r for r in sink.records if r["name"] == "trial.work"]
        assert len(work) == 4
        assert all(r["parent"] == root.span_id for r in work)
        assert all(r["trace"] == root.trace_id for r in work)


class TestResilienceHooks:
    def test_expired_budget_fails_trials_fast(self):
        from repro.resilience import DeadlineBudget

        clock = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock[0])
        clock[0] = 2.0  # already past the deadline
        runner = BatchRunner(workers=1, budget=budget)
        started = []
        (outcome,) = runner.run([Trial(lambda: started.append(1))])
        assert not outcome.ok and outcome.timed_out
        assert isinstance(outcome.error, TimeoutError)
        assert started == []  # never dispatched


class TestOutcomeStreaming:
    """run(on_outcome=...) surfaces each outcome as soon as it settles."""

    def test_sequential_callback_order_and_content(self):
        seen = []
        runner = BatchRunner(workers=1)
        outcomes = runner.run(
            [Trial(square, (i,)) for i in range(4)],
            on_outcome=seen.append,
        )
        assert seen == outcomes
        assert [o.value for o in seen] == [0, 1, 4, 9]

    def test_pooled_callback_fires_per_outcome(self):
        seen = []
        runner = BatchRunner(workers=2)
        outcomes = runner.run(
            [Trial(sleepy_identity, (i,), {"delay": 0.01}) for i in range(5)],
            on_outcome=seen.append,
        )
        assert seen == outcomes
        assert [o.index for o in seen] == [0, 1, 2, 3, 4]

    def test_callback_sees_failed_and_fast_failed_outcomes(self):
        from repro.resilience import DeadlineBudget

        clock = [0.0]
        budget = DeadlineBudget(1.0, clock=lambda: clock[0])
        clock[0] = 5.0  # already past the deadline
        seen = []
        runner = BatchRunner(workers=1, budget=budget)
        runner.run(
            [Trial(square, (2,)), Trial(always_fails)],
            on_outcome=seen.append,
        )
        assert len(seen) == 2
        assert all(o.timed_out for o in seen)  # budget already spent
