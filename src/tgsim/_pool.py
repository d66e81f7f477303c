"""Independent jobs in forked workers, one BLAS thread each, results in order.

`run_jobs(jobs)` calls every job (a callable taking no arguments) and
returns their results in job order. Jobs reach the workers through fork,
so closures need no pickling; only job indices and results cross the
pipes. Its callers: `training.run_folds` (the folds of `cross_validate`
and of CLI `train`), CLI `eval`'s folds, `training.train`'s window chunks
of a batch on a large graph, and `model.score_windows` calls of many
windows x nodes (`score_stream`, and `evaluate` outside a fold worker).

Up to twice as many jobs as CPUs get one worker each; more jobs share
one worker per CPU. Equal jobs, such as the folds of a cross-validation,
then share the CPUs by time-slicing instead of running in waves: three
folds on two CPUs take 1.5 fold-times, not two with the third fold alone
on one CPU while the other idles. Past twice the CPUs the last wave
idles CPUs for under a third of the run, and each further worker would
cost a fork and its memory.

Each worker first pins the already-loaded OpenBLAS to one thread, so
workers do not run BLAS threads of their own on CPUs that the other
workers already use, and has glibc's malloc keep the memory it frees
(`_keep_freed_memory`). The pin writes OpenBLAS's thread count instead
of calling its setter, which in a forked child first restarts the thread
pool that OpenBLAS shut down at the fork; the restarted helper threads
would busy-wait beside the workers (see `_work`). Where the count is not
exported, the worker calls the setter. The parent's BLAS thread count
and malloc settings are never changed.
The jobs run serially in this process when one CPU is available, when
`fork` is not, when no OpenBLAS thread setter is found, and when the
caller is itself a worker.

What a worker records in its own memory stays there. Instrumentation
that patches functions in the parent and keeps its records in the
parent, such as the spans of `bench/run.py --trace 1`, sees none of the
calls made inside workers: the folds, a large graph's training batches
(their forward passes and backwards) and large scoring calls. Traced
runs must be started with a one-CPU affinity mask (`taskset -c 0 python3
bench/run.py ... --trace 1`), under which every job runs in-process and
is recorded.
"""

import ctypes
import functools
import os
import pickle
from typing import Callable, NamedTuple

_IN_WORKER = False
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


class _OpenBlas(NamedTuple):
    """The loaded OpenBLAS's thread count: its get and set functions, and the count itself."""

    get: Callable[[], int]
    set: Callable[[int], None]
    # the library's `blas_cpu_number`, the count its pthreads server reads
    # before each call; None where it is not exported or the build threads
    # with OpenMP, which resets it from OpenMP's own count
    cpu_number: ctypes.c_int | None


def _function(lib, name: str):
    """OpenBLAS's `openblas_<name>` function in `lib`, under any of its exported names, or None."""
    for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
        function = getattr(lib, symbol, None)
        if function is not None:
            return function
    return None


@functools.cache
def _openblas() -> _OpenBlas | None:
    """The loaded OpenBLAS's thread count, found from one scan of this process's maps, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        get, put = _function(lib, "get_num_threads"), _function(lib, "set_num_threads")
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        parallel = _function(lib, "get_parallel")
        cpu_number = None
        if parallel is not None:
            parallel.argtypes, parallel.restype = [], ctypes.c_int
            if parallel() == 1:  # the pthreads server
                try:
                    cpu_number = ctypes.c_int.in_dll(lib, "blas_cpu_number")
                except ValueError:
                    pass
        return _OpenBlas(get, put, cpu_number)
    return None


def workers() -> int:
    """How many workers run_jobs would start for many jobs; 1 means in-process."""
    if _IN_WORKER or not hasattr(os, "fork") or _openblas() is None:
        return 1
    return len(os.sched_getaffinity(0))


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory in this process instead of returning it.

    A training batch frees its arrays (up to 0.8 MB each at N = 20) when it
    ends; by default malloc then trims the top of the heap or unmaps them,
    and the next batch faults the same pages back in. The fold workers of
    a cv-chickenpox benchmark round took 170k minor faults that way, and
    12k with large arrays kept on the heap and the heap never trimmed; the
    round took a fifth less time. A worker exits after its jobs, which
    returns the memory. Both thresholds must be set: setting either one
    stops malloc from raising the mmap threshold itself. Does nothing
    where malloc has no `mallopt`.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest on 64-bit


def _work(jobs, indices, conn) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # After the fork OpenBLAS's thread pool is down (its atfork handler shut
    # it), and openblas_set_num_threads starts it again before it lowers the
    # count: its blas_num_threads - 1 helpers then busy-wait about 0.1 s
    # beside the worker for work that never comes at one thread. Writing the
    # count is all the setter does after that restart, and a one-thread
    # call never starts the pool.
    blas = _openblas()
    if blas.cpu_number is None:
        blas.set(1)
    else:
        blas.cpu_number.value = 1
    _keep_freed_memory()
    for index in indices:
        try:
            conn.send((index, True, jobs[index]()))
        except Exception as exc:  # handed to the parent, which re-raises it
            conn.send((index, False, _portable(exc)))
            break
    conn.close()


def _portable(exc: Exception) -> Exception:
    """The exception itself if it survives pickling, else one of its type name and message."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def run_jobs(jobs) -> list:
    """Results of calling each of `jobs`, in order, from forked workers.

    There is one worker per job for up to 2 x workers() jobs, and
    workers() of them for more (see the module docstring); one job, or
    workers() == 1, runs in this process. Worker w runs jobs w, w + k,
    w + 2k, ... for k workers, and stops at
    its first failing job. If jobs raise, the exception of the first
    failing job in job order is raised here, as a serial loop would, as
    soon as every job before it has returned; a worker that exits before
    reporting all its jobs raises ChildProcessError. Every worker has been
    joined when this returns or raises.
    """
    jobs = list(jobs)
    cpus = workers()
    count = len(jobs) if len(jobs) <= 2 * cpus else cpus
    if cpus <= 1 or count <= 1:
        return [job() for job in jobs]
    # imported here: about 1.4 MB that a process which never forks need not load
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    processes, pending = [], {}
    results, failures = {}, {}
    try:
        for w in range(count):
            receive, send = context.Pipe(duplex=False)
            indices = range(w, len(jobs), count)
            pending[receive] = len(indices)
            process = context.Process(target=_work, args=(jobs, indices, send), daemon=True)
            with send:
                process.start()
            processes.append(process)
        while pending and not (failures and all(i in results for i in range(min(failures)))):
            for conn in wait(list(pending)):
                try:
                    index, ok, value = conn.recv()
                except EOFError:
                    raise ChildProcessError(
                        "a job worker exited before reporting all its jobs") from None
                (results if ok else failures)[index] = value
                pending[conn] -= 1
                if not ok or not pending[conn]:
                    del pending[conn]
                    conn.close()
        if failures:
            raise failures[min(failures)]
        return [results[i] for i in range(len(jobs))]
    finally:
        for conn in pending:
            conn.close()
        for process in processes:
            if pending and process.is_alive():
                process.terminate()
            process.join()
