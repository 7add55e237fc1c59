"""Fixtures shared across test packages."""

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
