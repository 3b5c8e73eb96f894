"""The lifts of ``exact_solution_set`` split over forked workers.

Every test fixes the worker count by monkeypatching
``solver._lift_workers``, to 2 (this process and one child) or to 1 (the
serial path), so no test starts more than two processes, whatever the
machine's CPU count.  After each call no child is left to reap and no pipe
is left open."""

import os
import pickle
import time

import pytest

from ramibound import solver
from ramibound.errors import NonConvergenceError
from ramibound.solver import build_jset_problem, exact_solution_set

from test_solver import model_of_degree, u_module


def workers(monkeypatch, count):
    monkeypatch.setattr(solver, "_lift_workers", lambda classes: count)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def lift_all(monkeypatch, count, degree, digits):
    """exact_solution_set with ``count`` workers, on a problem of its own;
    it returns or raises with no pipe left open."""
    workers(monkeypatch, count)
    prob = build_jset_problem(u_module(), model_of_degree(degree), s=1, r=1)
    fds = open_fds()
    try:
        return prob, exact_solution_set(prob, target_digits=digits)
    finally:
        assert open_fds() == fds


def fields(lr):
    """Everything a LiftResult carries, its problem as its model precision."""
    X = tuple(tuple((c.coeffs, c.aprec) for c in vec) for vec in lr.X)
    return (lr.problem.model.prec, X, lr.iterations, lr.gamma, lr.a_prime,
            lr.certified_digits, lr.steps)


@pytest.mark.parametrize("degree, digits, classes", [(12, 12, 243), (6, 24, 27)])
def test_forked_lifts_equal_the_serial_lifts(monkeypatch, degree, digits, classes):
    """The x^12 + 3 lifts at 12 digits and the README lifts at 24 digits,
    where 25 of 27 classes lift on the 48-digit problem, are the same on both
    paths; a forked lift's problem is the caller's or its kept boosted one."""
    prob, (image, lifts) = lift_all(monkeypatch, 2, degree, digits)
    no_child_left()
    _, (image_serial, serial) = lift_all(monkeypatch, 1, degree, digits)
    assert len(lifts) == classes and len(image) == 3
    assert image == image_serial
    assert [fields(lr) for lr in lifts] == [fields(lr) for lr in serial]
    assert lifts == serial
    assert all(lr.problem is prob or lr.problem is prob.boosted[lr.problem.model.prec]
               for lr in lifts)


@pytest.mark.parametrize("refused", [(3, 6), (4, 7), (5, 7)])
def test_the_first_refusal_in_class_order_is_raised(monkeypatch, refused):
    """Two classes are refused; with class i lifted by worker i mod 2, the
    earlier one is the child's (3 before 6, 5 before 7) or this process's
    (4 before 7), and its refusal is the one raised."""
    members = solver.jset_enumerate(
        build_jset_problem(u_module(), model_of_degree(6), s=1, r=1), "a"
    ).members
    real = solver.lift_solution

    def lift(prob, member, target_digits=6):
        i = members.index(member)
        if i in refused:
            raise NonConvergenceError(f"class {i} refused")
        return real(prob, member, target_digits)

    monkeypatch.setattr(solver, "lift_solution", lift)
    with pytest.raises(NonConvergenceError, match=f"^class {refused[0]} refused$"):
        lift_all(monkeypatch, 2, 6, 6)
    no_child_left()


def lifts_in_this_process(monkeypatch):
    """Record the classes lifted in this process."""
    real, here, made = solver.lift_solution, os.getpid(), []

    def lift(prob, member, target_digits=6):
        if os.getpid() == here:
            made.append(member)
        return real(prob, member, target_digits)

    monkeypatch.setattr(solver, "lift_solution", lift)
    return made


def no_fork():
    raise BlockingIOError("no process to spare")


@pytest.mark.parametrize("failure", ["exit", "short pickle", "no fork"])
def test_a_failed_child_has_its_share_lifted_here(monkeypatch, failure):
    """A child that exits without writing, or writes a cut pickle, or cannot
    be forked, has its share lifted in this process: the lifts are the
    serial ones, and all 27 classes were lifted here."""
    _, (_, serial) = lift_all(monkeypatch, 1, 6, 6)
    made = lifts_in_this_process(monkeypatch)
    if failure == "exit":
        monkeypatch.setattr(solver, "_lift_record", lambda lr: os._exit(3))
    elif failure == "short pickle":
        real_dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj, protocol: real_dumps(obj, protocol)[:-9])
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    _, (_, lifts) = lift_all(monkeypatch, 2, 6, 6)
    no_child_left()
    assert len(made) == 27
    assert lifts == serial


def test_an_exception_here_kills_and_reaps_the_child(monkeypatch):
    """An exception in this process while the child still lifts (here the
    child would sleep for a minute) kills the child and reaps it."""

    class Stop(BaseException):
        pass

    here = os.getpid()

    def lift(prob, member, target_digits=6):
        if os.getpid() != here:
            time.sleep(60)
        raise Stop

    monkeypatch.setattr(solver, "lift_solution", lift)
    start = time.perf_counter()
    with pytest.raises(Stop):
        lift_all(monkeypatch, 2, 6, 6)
    took = time.perf_counter() - start
    no_child_left()
    assert took < 30


def test_worker_count_keeps_small_sets_serial(monkeypatch):
    """At least LIFTS_PER_WORKER classes per worker, at most one per CPU of
    the affinity mask, and serial while another thread runs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    counts = [solver._lift_workers(n) for n in (9, 15, 16, 24, 243)]
    assert counts == [1, 1, 2, 3, 4]
    monkeypatch.setattr(solver.threading, "active_count", lambda: 2)
    assert solver._lift_workers(243) == 1
