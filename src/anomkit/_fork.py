"""Fork-join of two independent halves of one stage.

`both` runs the first half on a thread started for the call and the second
on the caller's thread, and joins before it returns. The halves overlap on
two cores only through native code that releases the GIL (numpy's ufuncs,
sgemm, Philox fills), so each half should be whole-stage work, not a single
small op.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def both(first, second, thread_name):
    """(first(), second()), with first on a thread named `thread_name` and
    second here.

    Both halves have finished, and the thread has ended, before this returns
    or raises; an error of `first` takes precedence, as it would if the
    halves ran in order.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=thread_name) as worker:
        future = worker.submit(first)
        try:
            second_result = second()
        finally:
            first_result = future.result()
    return first_result, second_result
