"""Task functions that really fail, for exercising the supervised runner.

Each is module-level, so a pooled worker can unpickle it, and accepts
any keyword arguments, so it can stand in for any task's ``fn`` (see
the ``fail_tasks`` fixture in ``tests/conftest.py``).  ``crash`` needs
a worker process (``jobs >= 2``): inline, it would kill the test run.
``hang`` never returns, so a test that runs it must kill the run.
"""

import os
import time


class Boom(RuntimeError):
    """What :func:`boom` raises."""


def crash(**kwargs):
    """Exit the process at once, without reporting a result."""
    os._exit(73)


def hang(**kwargs):
    """Sleep until the run is killed."""
    time.sleep(3600)


def boom(**kwargs):
    """Raise :class:`Boom`."""
    raise Boom("task failed on purpose")
