"""The run session: SIGTERM takes the Ctrl-C path, and a plain rerun
after a kill computes only what the killed run did not finish."""

import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache, Task, run_tasks
from repro.runner.session import sigterm_interrupts

REPO = Path(__file__).resolve().parents[2]


def _value(n=0):
    return n


class TestSigtermBridge:
    def test_noop_off_the_main_thread(self):
        # Only the main thread may set signal handlers; elsewhere the
        # bridge must be a transparent no-op, not an error.
        before = signal.getsignal(signal.SIGTERM)
        seen = {}

        def run():
            with sigterm_interrupts():
                seen["handler"] = signal.getsignal(signal.SIGTERM)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert seen["handler"] is before

    def test_restores_previous_handler(self):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            with sigterm_interrupts():
                assert signal.getsignal(signal.SIGTERM) is not handler
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_raises_keyboard_interrupt_in_context(self):
        with pytest.raises(KeyboardInterrupt):
            with sigterm_interrupts():
                signal.raise_signal(signal.SIGTERM)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signal semantics")
class TestRerunAfterSigterm:
    def test_sigterm_then_plain_rerun_hits(self, tmp_path):
        # A session runs three tasks inline; the second hangs.  Once the
        # first task's result lands in the cache, the test sends the
        # process a real SIGTERM: the session must unwind the Ctrl-C way
        # and exit 130.
        cache_dir = tmp_path / "cache"
        script = tmp_path / "victim.py"
        script.write_text(textwrap.dedent(f"""
            import argparse, sys
            sys.path[:0] = [{str(REPO / "src")!r}, {str(REPO)!r}]
            from repro.runner import Task, run_tasks
            from repro.runner.session import add_run_flags, open_session
            from tests.failing_tasks import hang

            def value(n=0):
                return n

            parser = argparse.ArgumentParser()
            add_run_flags(parser)
            session = open_session(
                parser.parse_args(["--cache-dir", {str(cache_dir)!r}]))
            ran = session.run(run_tasks, [
                Task("demo", "first", value, {{"n": 1}}),
                Task("demo", "second", hang, {{"n": 2}}),
                Task("demo", "third", value, {{"n": 3}}),
            ])
            sys.exit(ran if isinstance(ran, int) else 0)
        """))
        proc = subprocess.Popen([sys.executable, str(script)],
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not list(cache_dir.rglob("*.pkl")):
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "first task never cached"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "rerun the same command" in err

        # The same tasks on the same cache, with no flags: the first is
        # served from the cache, only the other two run.
        tasks = [Task("demo", shard, _value, {"n": n})
                 for n, shard in enumerate(["first", "second", "third"], 1)]
        results, metrics = run_tasks(tasks, cache=ResultCache(cache_dir))
        assert [(t.shard, t.cache) for t in metrics.tasks] == [
            ("first", "hit"), ("second", "miss"), ("third", "miss")]
        assert results == {("demo", "first"): 1, ("demo", "second"): 2,
                           ("demo", "third"): 3}
