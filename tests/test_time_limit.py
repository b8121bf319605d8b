import signal

import pytest

from conftest import TEST_TIME_LIMIT_S, time_limit

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


def test_endless_loop_under_a_short_limit_raises():
    with pytest.raises(TimeoutError):
        with time_limit(0.05):
            while True:
                pass


def test_the_per_test_limit_is_re_armed_after_a_nested_limit():
    with time_limit(10):
        pass
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
