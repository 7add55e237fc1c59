"""Run journal semantics, and the SIGTERM-drains-like-Ctrl-C bridge."""

import json
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runner import ResultCache, RunJournal, sigterm_interrupts
from repro.runner.journal import STATUS_DONE


def _journal(tmp_path):
    return RunJournal(tmp_path / "cache", "f" * 64)


class TestRecords:
    def test_begin_truncates_unless_resuming(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(resume=False)
        journal.record("a", status=STATUS_DONE, key="k1")
        journal.begin(resume=True)
        assert journal.completed() == {"a": "k1"}
        journal.begin(resume=False)
        assert journal.completed() == {}

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = _journal(tmp_path)
        journal.begin(resume=False)
        journal.record("a", status=STATUS_DONE, key="k1")
        with journal.path.open("a") as fh:
            fh.write('{"label": "b", "stat')  # killed mid-append
        assert journal.completed() == {"a": "k1"}


class TestSigtermBridge:
    def test_noop_off_the_main_thread(self):
        # Only the main thread may set signal handlers; elsewhere the
        # bridge must be a transparent no-op, not an error.
        import threading

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

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="POSIX signal semantics")
    def test_sigterm_flushes_journal_like_ctrl_c(self, tmp_path):
        # Regression for the run/sweep drain path: a run killed with
        # SIGTERM mid-sweep must leave the same journal a Ctrl-C leaves —
        # every task that settled *before* the signal journaled done,
        # the run exiting through the KeyboardInterrupt path (130).
        script = tmp_path / "victim.py"
        src = Path(__file__).resolve().parents[2] / "src"
        script.write_text(textwrap.dedent(f"""
            import signal, sys
            sys.path.insert(0, {str(src)!r})
            from repro.runner import ResultCache, RunJournal, run_tasks, \\
                sigterm_interrupts
            from repro.runner.core import Task

            def ok(n=0):
                return n

            def terminate(n=0):
                signal.raise_signal(signal.SIGTERM)  # a `kill <pid>`
                return n

            cache = ResultCache({str(tmp_path / "cache")!r},
                                fingerprint="f" * 64)
            journal = RunJournal(cache.root, cache.fingerprint)
            tasks = [
                Task("demo", "first", ok, {{"n": 1}}),
                Task("demo", "second", terminate, {{"n": 2}}),
                Task("demo", "third", ok, {{"n": 3}}),
            ]
            try:
                with sigterm_interrupts():
                    run_tasks(tasks, jobs=1, cache=cache, journal=journal)
            except KeyboardInterrupt:
                sys.exit(130)
            sys.exit(0)
        """))
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 130, proc.stderr

        # The journal survived the kill, flushed: first done, the rest
        # never settled (so a --resume would rerun exactly those).
        journal = RunJournal(tmp_path / "cache", "f" * 64)
        completed = journal.completed()
        assert list(completed) == ["demo/first"]
        cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
        entry = cache.load(completed["demo/first"])
        assert entry is not None and entry.result == 1

    def test_journal_lines_are_whole_json(self, tmp_path):
        # Per-record flush writes the line atomically enough that a
        # reader mid-run parses every completed line.
        journal = _journal(tmp_path)
        journal.begin(resume=False)
        for index in range(50):
            journal.record(f"t{index}", status=STATUS_DONE, key=f"k{index}")
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 50
        for line in lines:
            json.loads(line)
