"""Running one job in process, under a time limit, and checking its answer."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import signal
import time
from dataclasses import dataclass

from workloads import Job

JOB_LIMIT_S = 60.0


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job.

    A BaseException, so no ``except Exception`` in the program under test
    swallows it.
    """


def _alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Outcome:
    job: Job
    seconds: float
    code: int | None
    stdout: str
    failure: str | None  # None when the job gave its known answer


def run_job(main, job: Job, limit_s: float = JOB_LIMIT_S) -> Outcome:
    """Calls ``main(argv)`` with stdout and stderr captured.

    A job that raises, overruns ``limit_s`` or answers wrongly comes back
    with ``failure`` set; nothing it does stops the caller.
    """
    if limit_s <= 0:
        return Outcome(job, 0.0, None, "", "not started: run deadline passed")
    out, err = io.StringIO(), io.StringIO()
    code = None
    failure = None
    previous = signal.signal(signal.SIGALRM, _alarm)
    # start from a collected heap, as a fresh CLI process does, so no job
    # pays for collecting garbage that an earlier job left
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                signal.setitimer(signal.ITIMER_REAL, limit_s)
                code = main(list(job.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        failure = f"time limit of {limit_s:.0f} s exceeded"
    except SystemExit as exc:  # argparse rejects the argv
        failure = f"exited with {exc.code}: {err.getvalue().strip()[-300:]}"
    except Exception as exc:  # the job crashed; record it and go on
        failure = f"raised {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    if failure is None:
        failure = check(job, code, out.getvalue())
        if failure and err.getvalue():
            failure += f" (stderr: {err.getvalue().strip()[-300:]})"
    return Outcome(job, seconds, code, out.getvalue(), failure)


def _lookup(doc, path: str):
    for part in path.split("."):
        if isinstance(doc, list) and part.isdigit() and int(part) < len(doc):
            doc = doc[int(part)]
        elif isinstance(doc, dict) and part in doc:
            doc = doc[part]
        else:
            raise KeyError(path)
    return doc


def check(job: Job, code, stdout: str) -> str | None:
    """None when the exit code and every expected field match, else why not."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    for path, want in job.expect.items():
        try:
            got = _lookup(doc, path)
        except KeyError:
            return f"{path} missing from the output"
        if got != want:
            return f"{path} is {json.dumps(got)[:200]}, expected {json.dumps(want)[:200]}"
    return None
