"""Fixtures shared across test packages."""

from dataclasses import replace
from fnmatch import fnmatchcase

import pytest


@pytest.fixture
def callgraph_builds(monkeypatch):
    """Record every ``build_callgraph`` call (its arguments, in order).

    Wraps the module attribute that the fingerprint memo looks up at
    call time, so memoized and uncached builds are both counted.
    """
    from repro.check import callgraph

    calls = []
    build = callgraph.build_callgraph

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(callgraph, "build_callgraph", counting)
    return calls


@pytest.fixture
def module_parses(monkeypatch):
    """Record the path of every module file the static analysis parses,
    by the import scan or by a call-graph build, in order."""
    from repro.check import callgraph

    paths = []
    parse = callgraph._parse_file

    def counting(path):
        paths.append(path)
        return parse(path)

    monkeypatch.setattr(callgraph, "_parse_file", counting)
    return paths


@pytest.fixture
def fail_tasks(monkeypatch):
    """Make the tasks of an experiment or sweep run really fail.

    ``fail_tasks(pattern, fn)`` swaps the ``fn`` of every task whose
    label matches the glob ``pattern`` for ``fn`` (one of
    :mod:`tests.failing_tasks`) on its way into ``run_tasks``, so the
    CLI and ``run_experiments`` supervise a task that crashes, hangs or
    raises for real.
    """
    from repro.runner import run_tasks

    swaps = []

    def swapping(tasks, **kwargs):
        for pattern, fn in swaps:
            tasks = [replace(task, fn=fn)
                     if fnmatchcase(task.label, pattern) else task
                     for task in tasks]
        return run_tasks(tasks, **kwargs)

    monkeypatch.setattr("repro.analysis.registry.run_tasks", swapping)

    def fail(pattern, fn):
        swaps.append((pattern, fn))

    return fail
