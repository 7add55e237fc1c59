"""Paper checks: shared helper.

Each ``benchmarks/test_bench_*.py`` regenerates one of the paper's
tables or figures, prints it (run with ``-s`` to see the output) and
asserts the paper's claim about it.  A registered experiment is run by
:func:`run_registered`, through the same runner and result cache
(``.repro-cache/``, or ``$REPRO_CACHE_DIR``) with the same keys as
``python -m repro <name>``, so a check that follows ``python -m repro
all`` on unchanged code replays the CLI's results instead of
recomputing them.  A shard that fails raises, as ``--fail-fast``
does, so a claim is never checked on a partial merge.  Longer traces
are ``python -m repro <name> --trace-len N``.
"""

from repro.analysis import run_experiments
from repro.runner import ResultCache, SupervisionPolicy


def run_registered(name: str):
    """What ``python -m repro <name>`` computes and caches."""
    results, _ = run_experiments(
        [name], cache=ResultCache(),
        policy=SupervisionPolicy(fail_fast=True))
    return results[name]
