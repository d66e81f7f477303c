"""Independent jobs in forked workers, one BLAS thread each, results in order.

`run_jobs(jobs)` calls every job (a callable taking no arguments) and
returns their results in job order. Jobs reach the workers through fork,
so closures need no pickling; only job indices and results cross the
pipes.

Up to twice as many jobs as CPUs get one worker each; more jobs share
one worker per CPU. Equal jobs, such as the folds of a cross-validation,
then share the CPUs by time-slicing instead of running in waves: three
folds on two CPUs take 1.5 fold-times, not two with the third fold alone
on one CPU while the other idles. Past twice the CPUs the last wave
idles CPUs for under a third of the run, and each further worker would
cost a fork and its memory.

Each worker first pins the already-loaded OpenBLAS to one thread, so
workers do not start BLAS threads of their own on CPUs that the other
workers already use. The parent's BLAS thread count is never
changed. The jobs run serially in this process when one CPU is available,
when `fork` is not, when no OpenBLAS thread setter is found, and when the
caller is itself a worker.

What a worker records in its own memory stays there. Instrumentation
that patches functions in the parent and keeps its records in the
parent, such as the spans of `bench/run.py --trace 1`, sees none of the
calls made inside workers: traced runs must be started with a one-CPU
affinity mask (`taskset -c 0 python3 bench/run.py ... --trace 1`), under
which every job runs in-process and is recorded.
"""

import ctypes
import functools
import os
import pickle

_IN_WORKER = False


@functools.cache
def _openblas(action: str):
    """The loaded OpenBLAS's `<action>_num_threads` function, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{action}_num_threads64_",
                       f"openblas_{action}_num_threads64_", f"openblas_{action}_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                if action == "get":
                    function.argtypes, function.restype = [], ctypes.c_int
                else:
                    function.argtypes, function.restype = [ctypes.c_int], None
                return function
    return None


def workers() -> int:
    """How many workers run_jobs would start for many jobs; 1 means in-process."""
    if _IN_WORKER or not hasattr(os, "fork") or _openblas("set") is None:
        return 1
    return len(os.sched_getaffinity(0))


def _work(jobs, indices, conn) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    _openblas("set")(1)
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
