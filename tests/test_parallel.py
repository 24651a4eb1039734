"""The parallel-map helper every independent-solve loop goes through."""

import threading
import time

import pytest

from bessplan._parallel import pmap


def test_pmap_order_thread_and_first_error():
    caller = threading.get_ident()
    assert pmap(lambda x: (x, threading.get_ident()), [3, 1, 2], 1) == \
        [(3, caller), (1, caller), (2, caller)]
    assert pmap(lambda x: x * x, range(7), 2) == [0, 1, 4, 9, 16, 25, 36]

    def fail(x):
        # item 1 fails last in time; its error still wins over item 2's
        if x == 1:
            time.sleep(0.05)
            raise KeyError(x)
        if x == 2:
            raise ValueError(x)
        return x

    for threads in (1, 2):
        with pytest.raises(KeyError):
            pmap(fail, [0, 1, 2], threads)
