"""CLI tests (in-process, no subprocesses)."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestParse:
    def test_valid_program(self, tmp_path):
        source = tmp_path / "policies.pt"
        source.write_text(
            'freeCourse(cs101).\n'
            'enroll(C, R) $ true <- freeCourse(C).\n'
            'member("E") @ "BBB" signedBy ["BBB"].\n')
        status, output = run_cli("parse", str(source))
        assert status == 0
        assert "3 rule(s)" in output
        assert "1 release policy" in output
        assert "1 signed" in output

    def test_syntax_error_fails(self, tmp_path, capsys):
        source = tmp_path / "broken.pt"
        source.write_text("freeCourse(cs101")
        status, _ = run_cli("parse", str(source))
        assert status == 1

    def test_missing_file(self, tmp_path):
        status, _ = run_cli("parse", str(tmp_path / "nope.pt"))
        assert status == 2


class TestDemo:
    @pytest.mark.parametrize("name", ["quickstart", "scenario1", "grid"])
    def test_demos_grant(self, name):
        status, output = run_cli("demo", name)
        assert status == 0
        assert "granted:  True" in output
        assert "transcript:" in output

    def test_scenario2_demo(self):
        status, output = run_cli("demo", "scenario2")
        assert status == 0

    def test_eager_strategy_flag(self):
        status, output = run_cli("demo", "quickstart", "--strategy", "eager")
        assert status == 0
        assert "granted:  True" in output

    def test_stats_flag_prints_cache_counters(self):
        status, output = run_cli("demo", "quickstart", "--stats")
        assert status == 0
        assert "granted:  True" in output
        assert "cache stats:" in output
        for counter in ("intern_hits:", "sig_cache_hits:", "canonical_hits:"):
            assert counter in output

    def test_stats_off_by_default(self):
        status, output = run_cli("demo", "quickstart")
        assert status == 0
        assert "cache stats:" not in output


class TestSaveAndReuse:
    def test_save_query_negotiate(self, tmp_path):
        world_path = tmp_path / "world.json"
        status, output = run_cli("save-demo", "scenario1", str(world_path))
        assert status == 0 and world_path.exists()

        status, output = run_cli("query", str(world_path),
                                 "--peer", "E-Learn", "--goal", "course(C)")
        assert status == 0
        assert "course(spanish205)" in output

        status, output = run_cli(
            "negotiate", str(world_path),
            "--requester", "Alice", "--provider", "E-Learn",
            "--goal", 'discountEnroll(Course, "Alice")')
        assert status == 0
        assert "Course = spanish205" in output

    def test_query_failure_exit_code(self, tmp_path):
        world_path = tmp_path / "world.json"
        run_cli("save-demo", "quickstart", str(world_path))
        status, output = run_cli("query", str(world_path),
                                 "--peer", "Server", "--goal", "ghost(X)",
                                 "--local-only")
        assert status == 1 and "no." in output

    def test_unknown_peer_usage_error(self, tmp_path):
        world_path = tmp_path / "world.json"
        run_cli("save-demo", "quickstart", str(world_path))
        status, _ = run_cli("query", str(world_path),
                            "--peer", "Nobody", "--goal", "a(X)")
        assert status == 2

    def test_failed_negotiation_exit_code(self, tmp_path):
        world_path = tmp_path / "world.json"
        run_cli("save-demo", "quickstart", str(world_path))
        status, output = run_cli(
            "negotiate", str(world_path),
            "--requester", "Server", "--provider", "Client",
            "--goal", 'hello("Server")')
        assert status == 1
        assert "granted:  False" in output


class TestVersion:
    def test_version(self):
        status, output = run_cli("version")
        assert status == 0
        assert "1.0.0" in output


class TestLintCommand:
    def test_clean_program(self, tmp_path):
        source = tmp_path / "good.pt"
        source.write_text("p(X) <- q(X). q(1). p(X) $ true <-{true} p(X).\n"
                          "q(X) $ true <-{true} q(X).\n")
        status, output = run_cli("lint", str(source))
        assert status == 0
        assert "clean" in output or "P00" not in output

    def test_errors_fail_exit_code(self, tmp_path):
        source = tmp_path / "bad.pt"
        source.write_text("p(X, Y) <- q(X). q(1).")
        status, output = run_cli("lint", str(source))
        assert status == 1
        assert "P001" in output

    def test_quiet_hides_info(self, tmp_path):
        source = tmp_path / "private.pt"
        source.write_text("secret(1).")
        status, output = run_cli("lint", str(source), "--quiet")
        assert status == 0
        assert "P005" not in output

    def test_parse_error(self, tmp_path):
        source = tmp_path / "broken.pt"
        source.write_text("p(")
        status, _ = run_cli("lint", str(source))
        assert status == 1
