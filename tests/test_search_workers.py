"""`exhaustive_search` splits the matrices over forked workers, one per CPU it may run on.

The worker count is forced through `os.sched_getaffinity`, so a one-CPU machine
still runs the forked path.
"""

import json
import os
import time

import pytest

import deltasimplex.classify as classify
from deltasimplex import BudgetExceededError, delta_from_box, exhaustive_search, iter_hnf_simplices
from deltasimplex.cli import main

# every (d, vol) the other search tests run, plus non-cyclic groups (3, 9), (3, 12) and (5, 5)
SEARCHED = [
    (1, 2), (1, 5), (1, 7), (1, 9), (2, 5), (2, 7), (2, 12), (2, 180), (3, 5), (3, 7),
    (3, 8), (3, 11), (3, 30), (4, 5), (4, 6), (3, 9), (3, 12), (5, 5),
]
# (d, vol, budget) refused before any matrix is built
REFUSED = [(5, 11, 100), (6, 13, 10), (30, 2**6, 10**8), (1, 3000000, 10)]


@pytest.fixture
def force_workers(monkeypatch):
    """Set the CPU count the search sees; returns the list that records each fork."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    def force(workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        forks.clear()

    monkeypatch.setattr(os, "fork", counting_fork)
    force.forks = forks
    return force


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refusal(d, vol, budget):
    with pytest.raises(BudgetExceededError) as info:
        exhaustive_search(d, vol, budget=budget)
    return str(info.value), info.value.estimate


@pytest.mark.parametrize("d, vol", SEARCHED)
def test_same_deltas_and_refusals_at_every_worker_count(force_workers, d, vol):
    reference = tuple(sorted({delta_from_box(s) for s in iter_hnf_simplices(d, vol)}))
    count = classify._matrix_count(d, vol)
    for workers in (1, 2, 3):
        force_workers(workers)
        assert exhaustive_search(d, vol) == reference, workers
        assert len(force_workers.forks) == min(workers, count) - 1
        message, estimate = refusal(d, vol, count - 1)
        assert (message, estimate) == (f"estimated {count} matrices exceeds budget {count - 1}", count)
        assert_no_children()


@pytest.mark.parametrize("d, vol, budget", REFUSED)
def test_refusal_forks_nothing(force_workers, d, vol, budget):
    force_workers(1)
    expected = refusal(d, vol, budget)
    for workers in (2, 3):
        force_workers(workers)
        assert refusal(d, vol, budget) == expected
        assert force_workers.forks == []


@pytest.fixture
def broken_in_workers(monkeypatch):
    """Make delta_from_box fail in every forked worker and work in this process."""
    parent = os.getpid()
    real = classify.delta_from_box

    def broken(s):
        if os.getpid() != parent:
            raise AssertionError("injected failure in a worker")
        return real(s)

    monkeypatch.setattr(classify, "delta_from_box", broken)


@pytest.mark.usefixtures("broken_in_workers")
class TestWorkerFailure:
    def test_search_raises_the_workers_message(self, force_workers):
        force_workers(2)
        with pytest.raises(AssertionError, match="^injected failure in a worker$"):
            exhaustive_search(3, 5)
        assert_no_children()

    def test_cli_exits_4_with_one_internal_error(self, force_workers, capsys):
        force_workers(3)
        code = main(["search", "--dim", "3", "--volume", "7"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        [line] = captured.err.splitlines()
        assert json.loads(line)["error"] == {
            "type": "internal-error",
            "message": "injected failure in a worker",
        }
        assert_no_children()


def test_worker_that_dies_is_an_internal_error(force_workers, monkeypatch):
    parent = os.getpid()
    real = classify.delta_from_box
    monkeypatch.setattr(
        classify, "delta_from_box", lambda s: real(s) if os.getpid() == parent else os._exit(3)
    )
    force_workers(2)
    with pytest.raises(AssertionError, match="search worker 1 exited with code 3"):
        exhaustive_search(3, 5)
    assert_no_children()


def test_failure_in_this_process_kills_and_reaps_the_workers(force_workers, monkeypatch):
    parent = os.getpid()

    def stall_workers(s):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends the worker within the test's time limit
        raise RuntimeError("stride 0 failed")

    monkeypatch.setattr(classify, "delta_from_box", stall_workers)
    force_workers(3)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="stride 0 failed"):
        exhaustive_search(4, 5)
    assert time.perf_counter() - start < 30
    assert len(force_workers.forks) == 2
    assert_no_children()
