import pytest

from qlprop.cli import main
from qlprop.model import dump_model

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def run_check(tmp_path, capsys):
    """Run ``qlprop check`` through ``cli.main`` on a model written to a
    file; returns the exit code and the lines printed to stdout."""
    def run(model, *argv: str) -> tuple[int, list[str]]:
        path = tmp_path / "model.json"
        path.write_text(dump_model(model), encoding="utf-8")
        code = main(["check", "--model", str(path), *argv])
        return code, capsys.readouterr().out.splitlines()
    return run
