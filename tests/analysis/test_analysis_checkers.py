"""Each checker catches its bad fixture and passes its good fixture.

Fixtures live under ``fixtures/`` as plain (non-collected) source files;
path-scoped rules are exercised by binding the fixture source to a virtual
path inside the rule's scope.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import FileContext, all_checkers, analyze_files

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule, context):
    checkers = [checker for checker in all_checkers() if checker.rule == rule]
    assert checkers, f"no checker registered for {rule}"
    return analyze_files([context], checkers)


def fixture_context(name, virtual_path):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return FileContext(Path(virtual_path), source, display_path=virtual_path)


class TestLockDiscipline:
    def test_bad_fixture_flags_offlock_accesses(self):
        context = fixture_context("lock_bad.py", "src/repro/serve/lock_bad.py")
        findings = run_rule("RC001", context)
        assert [(f.rule, f.line) for f in findings] == [("RC001", 18), ("RC001", 21)]
        assert "snapshot" in findings[0].message
        assert "_loop" in findings[1].message

    def test_good_fixture_is_clean(self):
        context = fixture_context("lock_good.py", "src/repro/serve/lock_good.py")
        assert run_rule("RC001", context) == []

    def test_rule_is_scoped_to_serve(self):
        context = fixture_context("lock_bad.py", "src/repro/nn/lock_bad.py")
        assert run_rule("RC001", context) == []

    def test_guarded_by_comment_establishes_guard(self):
        source = (
            "import threading\n"
            "\n"
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.depth = 0  # guarded-by: _lock\n"
            "\n"
            "    def peek(self):\n"
            "        return self.depth\n"
        )
        context = FileContext(Path("src/repro/serve/thing.py"), source)
        findings = run_rule("RC001", context)
        assert [(f.rule, f.line) for f in findings] == [("RC001", 9)]

    COUNTER_SOURCE = (
        "import threading\n"
        "\n"
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._hits = 0  # guarded-by: _lock\n"
        "\n"
        "    def _count(self):\n"
        "        self._hits += 1\n"
    )

    def test_private_method_called_from_another_class_is_an_entry_point(self):
        # A handler that a library server runs on its own threads reaches
        # the private method through another receiver, not through self.
        source = self.COUNTER_SOURCE + (
            "\n"
            "class Handler:\n"
            "    def handle(self):\n"
            "        self.server._count()\n"
        )
        context = FileContext(Path("src/repro/serve/thing.py"), source)
        findings = run_rule("RC001", context)
        assert [(f.rule, f.line) for f in findings] == [("RC001", 9)]
        assert "Server._count" in findings[0].message

    def test_private_method_nobody_calls_is_not_checked(self):
        context = FileContext(Path("src/repro/serve/thing.py"), self.COUNTER_SOURCE)
        assert run_rule("RC001", context) == []

    @pytest.mark.parametrize(
        "method, locked, unlocked",
        [
            pytest.param(
                "_count",
                "        with self._lock:\n"
                "            self._counters[counter] += amount\n",
                "        self._counters[counter] += amount\n",
                id="count",
            ),
            pytest.param(
                "_set_idle",
                "        with self._lock:\n"
                "            if idle:\n"
                "                self._idle.add(connection)\n",
                "        if True:\n"
                "            if idle:\n"
                "                self._idle.add(connection)\n",
                id="set-idle",
            ),
        ],
    )
    def test_unlocked_http_server_state_is_flagged(self, method, locked, unlocked):
        """The HTTP server's connection threads only reach these methods
        from the request handler; dropping their lock must be a finding."""
        path = Path(__file__).resolve().parents[2] / "src/repro/serve/http.py"
        source = path.read_text(encoding="utf-8")
        assert source.count(locked) == 1
        virtual = "src/repro/serve/http.py"
        assert run_rule("RC001", FileContext(Path(virtual), source)) == []
        mutated = FileContext(Path(virtual), source.replace(locked, unlocked))
        findings = run_rule("RC001", mutated)
        assert findings
        assert all(f"PredictionHttpServer.{method}" in f.message for f in findings)


class TestDtypeDiscipline:
    def test_bad_fixture_flags_all_three_spellings(self):
        context = fixture_context("dtype_bad.py", "src/repro/gnn/blocks.py")
        findings = run_rule("DT001", context)
        assert [(f.rule, f.line) for f in findings] == [
            ("DT001", 7),
            ("DT001", 8),
            ("DT001", 9),
        ]
        assert "without an explicit dtype=" in findings[0].message
        assert "dtype=float" in findings[1].message
        assert ".astype(float)" in findings[2].message

    def test_good_fixture_is_clean(self):
        context = fixture_context("dtype_good.py", "src/repro/gnn/blocks.py")
        assert run_rule("DT001", context) == []

    def test_rule_is_scoped_to_fast_path_modules(self):
        context = fixture_context("dtype_bad.py", "src/repro/data/loader.py")
        assert run_rule("DT001", context) == []


class TestDeterminism:
    def test_bad_fixture_flags_each_source_of_nondeterminism(self):
        context = fixture_context("determinism_bad.py", "examples/jitter.py")
        findings = run_rule("DET001", context)
        assert [(f.rule, f.line) for f in findings] == [
            ("DET001", 10),
            ("DET001", 11),
            ("DET001", 12),
            ("DET001", 13),
        ]
        assert "global RNG" in findings[0].message
        assert "global RNG" in findings[1].message
        assert "without a seed" in findings[2].message
        assert "wall clock" in findings[3].message

    def test_good_fixture_is_clean(self):
        context = fixture_context("determinism_good.py", "examples/jitter.py")
        assert run_rule("DET001", context) == []


class TestExceptionHygiene:
    def test_bad_fixture_flags_silent_handlers(self):
        context = fixture_context("exceptions_bad.py", "src/repro/serve/run.py")
        findings = run_rule("EX001", context)
        assert [(f.rule, f.line) for f in findings] == [("EX001", 9), ("EX001", 13)]
        assert "except Exception:" in findings[0].message
        assert "bare except:" in findings[1].message

    def test_good_fixture_is_clean(self):
        context = fixture_context("exceptions_good.py", "src/repro/serve/run.py")
        assert run_rule("EX001", context) == []

    def test_rule_is_scoped_to_serve(self):
        context = fixture_context("exceptions_bad.py", "src/repro/data/run.py")
        assert run_rule("EX001", context) == []


class TestTapeCoverage:
    @pytest.fixture()
    def mini_project(self, tmp_path):
        tensor_path = tmp_path / "src" / "repro" / "nn" / "tensor.py"
        tensor_path.parent.mkdir(parents=True)
        shutil.copyfile(FIXTURES / "tape_ops.py", tensor_path)
        test_path = tmp_path / "tests" / "test_nn_gradcheck.py"
        test_path.parent.mkdir()
        shutil.copyfile(FIXTURES / "tape_reference.py", test_path)
        return tensor_path, test_path

    def test_uncovered_op_is_flagged(self, mini_project):
        tensor_path, _ = mini_project
        context = FileContext.from_path(tensor_path)
        findings = run_rule("TP001", context)
        assert [(f.rule, f.line) for f in findings] == [("TP001", 12)]
        assert "Tensor.softplus" in findings[0].message

    def test_operator_reference_covers_dunder(self, mini_project):
        # __mul__ is never named in the reference file, only used as `*`.
        tensor_path, _ = mini_project
        context = FileContext.from_path(tensor_path)
        assert not any(
            "__mul__" in f.message for f in run_rule("TP001", context)
        )

    def test_missing_test_file_is_itself_a_finding(self, mini_project):
        tensor_path, test_path = mini_project
        test_path.unlink()
        context = FileContext.from_path(tensor_path)
        findings = run_rule("TP001", context)
        assert [(f.rule, f.line) for f in findings] == [("TP001", 1)]
        assert "cannot locate" in findings[0].message
