"""The fork-join of two stage halves that the DCAE scales and the SLIC
halves of a volume run through."""

import threading
import time

import pytest

from anomkit._fork import both
from anomkit.errors import DimensionError, InputError


class TestBoth:
    def test_first_runs_on_the_worker_and_second_here(self):
        ids = both(threading.get_ident, threading.get_ident, "fork-test")
        assert ids[1] == threading.get_ident() != ids[0]

    def test_the_worker_carries_the_thread_name(self):
        def name():
            return threading.current_thread().name

        assert both(name, name, "fork-test") == ("fork-test_0", threading.current_thread().name)

    def test_the_worker_finishes_before_an_error_is_raised(self):
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append(True)

        def fail():
            raise InputError("scale 2")

        with pytest.raises(InputError, match="scale 2"):
            both(slow, fail, "fork-test")
        assert finished == [True]

    def test_first_error_comes_first(self):
        def fail1():
            time.sleep(0.05)
            raise DimensionError("scale 1")

        def fail2():
            raise InputError("scale 2")

        with pytest.raises(DimensionError, match="scale 1"):
            both(fail1, fail2, "fork-test")
