"""The repo-invariant lint engine (repro.analysis) and its CLI surface."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, LintEngine, default_config, lint_tree
from repro.cli import main
from repro.hotpath import hot_path


def lint(source: str, config: LintConfig | None = None, path: str = "mod.py"):
    engine = LintEngine(config if config is not None else default_config())
    return engine.lint_source(textwrap.dedent(source), path)


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestHotPathDecorator:
    def test_marker_attribute(self):
        @hot_path
        def kernel():
            pass

        assert kernel.__repro_hot_path__ is True


class TestHotPathAllocRule:
    def test_allocation_in_decorated_function_flagged(self):
        findings = lint(
            """
            import numpy as np
            from repro.hotpath import hot_path

            @hot_path
            def kernel(n):
                return np.zeros(n)
            """
        )
        assert rules_of(findings) == ["REPRO101"]
        assert "np.zeros" in findings[0].message

    def test_allowlisted_function_flagged_without_decorator(self):
        findings = lint(
            """
            import numpy as np

            def relax_lanes(n):
                return np.empty(n)
            """,
            path="src/repro/traversal/relax.py",
        )
        assert rules_of(findings) == ["REPRO101"]

    def test_cold_function_not_flagged(self):
        findings = lint(
            """
            import numpy as np

            def setup(n):
                return np.zeros(n)
            """
        )
        assert findings == []

    def test_list_append_loop_flagged(self):
        findings = lint(
            """
            from repro.hotpath import hot_path

            @hot_path
            def kernel(edges):
                out = []
                for e in edges:
                    out.append(e)
                return out
            """
        )
        assert rules_of(findings) == ["REPRO101"]

    def test_noqa_with_justification_suppresses(self):
        findings = lint(
            """
            import numpy as np
            from repro.hotpath import hot_path

            @hot_path
            def kernel(lanes):
                return np.zeros(lanes)  # repro: noqa[REPRO101] — O(lanes) <= 64
            """
        )
        assert findings == []


class TestBareAcquireRule:
    def test_bare_acquire_flagged(self):
        findings = lint(
            """
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    self._lock.acquire()
                    self._lock.release()
            """
        )
        assert rules_of(findings) == ["REPRO102", "REPRO102"]

    def test_with_statement_clean(self):
        findings = lint(
            """
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()

                def good(self):
                    with self._lock:
                        pass
            """
        )
        assert findings == []

    def test_non_lock_acquire_not_flagged(self):
        # EngineArena.acquire leases engines; only tracked lock names count.
        findings = lint(
            """
            def lease(arena, graph):
                return arena.acquire(graph)
            """
        )
        assert findings == []


class TestTimingMixRule:
    def test_mixed_clocks_in_one_function_flagged(self):
        findings = lint(
            """
            import time

            def measure():
                start = time.perf_counter()
                stamp = time.time()
                return stamp, time.perf_counter() - start
            """
        )
        assert rules_of(findings) == ["REPRO103"]

    def test_separate_functions_clean(self):
        findings = lint(
            """
            import time

            def wall():
                return time.time()

            def elapsed(start):
                return time.perf_counter() - start
            """
        )
        assert findings == []

    def test_timing_module_exempt(self):
        findings = lint(
            """
            import time

            def wall_clock_pair():
                return time.time(), time.perf_counter()
            """,
            path="src/repro/timing.py",
        )
        assert findings == []


class TestRawEnvFlagRule:
    def test_raw_repro_read_flagged(self):
        findings = lint(
            """
            import os

            def switched_off():
                return os.environ.get("REPRO_NATIVE") == "0"
            """
        )
        assert rules_of(findings) == ["REPRO104"]

    def test_getenv_and_subscript_flagged(self):
        findings = lint(
            """
            import os

            def reads():
                return os.getenv("REPRO_TRACE"), os.environ["REPRO_FAULTS"]
            """
        )
        assert rules_of(findings) == ["REPRO104", "REPRO104"]

    def test_non_repro_names_clean(self):
        findings = lint(
            """
            import os

            def cache_home():
                return os.environ.get("XDG_CACHE_HOME")
            """
        )
        assert findings == []

    def test_envflags_module_exempt(self):
        findings = lint(
            """
            import os

            def env_flag(name):
                return os.environ.get("REPRO_" + "X")
            """,
            path="src/repro/envflags.py",
        )
        assert findings == []


class TestFaultSiteRule:
    def test_unregistered_site_flagged(self):
        findings = lint(
            """
            from repro.service import faults

            def sweep():
                faults.check("engine.bogus_site")
            """
        )
        assert rules_of(findings) == ["REPRO105"]
        assert "engine.bogus_site" in findings[0].message

    def test_registered_site_clean(self):
        findings = lint(
            """
            from repro.service import faults

            def sweep():
                faults.check("engine.sweep")
            """
        )
        assert findings == []


class TestMetricNameRule:
    def test_unregistered_metric_flagged(self):
        findings = lint(
            """
            def init(registry):
                registry.counter("repro_bogus_total", "mystery series")
            """
        )
        assert rules_of(findings) == ["REPRO106"]
        assert "repro_bogus_total" in findings[0].message

    def test_registered_metric_clean(self):
        findings = lint(
            """
            def init(registry):
                registry.counter("repro_requests_submitted_total", "submissions")
            """
        )
        assert findings == []

    def test_series_literal_checked_wherever_it_appears(self):
        findings = lint(
            """
            def read(metrics, count):
                metrics["repro_requests_total"].inc(outcome="completed")
                metrics["repro_request_total"].inc(outcome="completed")
                return count("repro_retrys_total"), "repro_", "not repro_a_series"
            """
        )
        assert rules_of(findings) == ["REPRO106", "REPRO106"]
        assert "repro_request_total" in findings[0].message
        assert "repro_retrys_total" in findings[1].message


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n    pass\n")
        assert rules_of(findings) == ["REPRO000"]

    def test_bare_noqa_suppresses_every_rule(self):
        findings = lint(
            """
            import os

            def reads():
                return os.getenv("REPRO_TRACE")  # repro: noqa
            """
        )
        assert findings == []

    def test_shipped_tree_is_clean(self):
        report = lint_tree()
        assert report.clean, report.format()
        assert report.files_checked > 50

    def test_report_json_round_trip(self):
        report = lint_tree()
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["findings"] == []
        assert payload["files_checked"] == report.files_checked


class TestCLI:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "seeded.py"
        bad.write_text(
            textwrap.dedent(
                """
                import os

                def switched():
                    return os.environ.get("REPRO_NATIVE")
                """
            )
        )
        assert main(["lint", str(bad)]) == 1
        assert "REPRO104" in capsys.readouterr().out

    def test_json_output_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lint.json"
        assert main(["lint", "--format", "json", "--output", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["findings"] == []
        capsys.readouterr()


@pytest.mark.parametrize(
    "snippet,expected_rule",
    [
        # One seeded violation per rule class, as the acceptance criteria
        # require `repro.cli lint` to fail on.
        (
            """
            import numpy as np
            from repro.hotpath import hot_path

            @hot_path
            def kernel(n):
                return np.concatenate((n, n))
            """,
            "REPRO101",
        ),
        (
            """
            import threading

            class T:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    self._lock.acquire()
            """,
            "REPRO102",
        ),
        (
            """
            from repro.service import faults

            def f():
                faults.check("nope.nope")
            """,
            "REPRO105",
        ),
        (
            """
            def f(registry):
                registry.gauge("repro_not_a_series", "bogus")
            """,
            "REPRO106",
        ),
        (
            """
            import os

            def f():
                return os.environ.get("REPRO_LOCKCHECK")
            """,
            "REPRO104",
        ),
        (
            # A typo at an instrumentation call site, not at a declaration.
            """
            class Service:
                def submit(self, request):
                    self._metrics["repro_requests_submited_total"].inc()
            """,
            "REPRO106",
        ),
    ],
)
def test_cli_fails_on_each_seeded_rule_class(tmp_path, capsys, snippet, expected_rule):
    seeded = tmp_path / "seeded.py"
    seeded.write_text(textwrap.dedent(snippet))
    assert main(["lint", str(seeded)]) == 1
    assert expected_rule in capsys.readouterr().out


class TestPrivateCounterRule:
    SCOPED = "src/repro/service/component.py"

    def test_zeroed_and_only_increased_is_flagged(self):
        findings = lint(
            """
            class Component:
                def __init__(self):
                    self._hits = 0
                    self._seconds = 0.0
                    self._name = ""

                def hit(self, seconds):
                    self._hits += 1
                    self._seconds += seconds
            """,
            path=self.SCOPED,
        )
        assert rules_of(findings) == ["REPRO107", "REPRO107"]
        assert "Component._hits" in findings[0].message
        assert "Component._seconds" in findings[1].message

    def test_state_that_goes_down_or_resets_is_not_flagged(self):
        findings = lint(
            """
            class Pool:
                def __init__(self):
                    self._active = 0
                    self._buffered = 0
                    self._failures = 0
                    self._flag = False

                def start(self):
                    self._active += 1
                    self._buffered += 4
                    self._failures += 1
                    self._flag = True

                def stop(self):
                    self._active -= 1
                    self._buffered, self._failures = 0, 0
            """,
            path=self.SCOPED,
        )
        assert findings == []

    def test_only_scoped_modules_are_checked(self):
        source = """
            class Engine:
                def __init__(self):
                    self._sweeps = 0

                def sweep(self):
                    self._sweeps += 1
            """
        assert lint(source, path="src/repro/traversal/engine.py") == []
        assert rules_of(lint(source, path="src/repro/traversal/arena.py")) == ["REPRO107"]
        assert rules_of(lint(source, path="src/repro/obs/trace.py")) == ["REPRO107"]

    def test_noqa_with_reason_suppresses(self):
        findings = lint(
            """
            class Plan:
                def __init__(self):
                    self._calls = 0  # repro: noqa[REPRO107] — the plan's own replay cursor

                def call(self):
                    self._calls += 1
            """,
            path=self.SCOPED,
        )
        assert findings == []

    def test_finds_every_tally_of_the_store_before_the_ledger(self):
        """The durable store as it was before it counted into the ledger."""
        fixture = Path(__file__).parent / "fixtures" / "store_before_ledger.py.txt"
        engine = LintEngine(default_config())
        findings = engine.lint_source(fixture.read_text(), "src/repro/service/store.py")
        assert rules_of(findings) == ["REPRO107"] * 6
        assert [f.message.split()[0] for f in findings] == [
            f"ServingStore.{name}"
            for name in ("_hits", "_misses", "_writes", "_dropped", "_errors", "_backfilled")
        ]

    def test_cli_fails_on_a_seeded_private_counter(self, tmp_path, capsys):
        seeded = tmp_path / "repro" / "service" / "seeded.py"
        seeded.parent.mkdir(parents=True)
        seeded.write_text(
            textwrap.dedent(
                """
                class Cache:
                    def __init__(self):
                        self._misses = 0

                    def get(self, key):
                        self._misses += 1
                """
            )
        )
        assert main(["lint", str(seeded)]) == 1
        assert "REPRO107" in capsys.readouterr().out
