"""The rows of tests/contracts.py, run in-process through cli.main.

A row named Class::test[case] runs under that test id in test_cli.py, whose
class takes it with @with_rows; every other row runs here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import contracts
from torusflow.cli import main


def in_process(argv, stdout):
    """cli.main(argv) with standard output on the descriptor stdout; then the
    stream is closed, as at exit, and a flush that fails there is exit 120."""
    stream = open(stdout, "w", closefd=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(err):
        code = main(argv)
    try:
        stream.close()
    except OSError:
        code = 120
    return code, err.getvalue()


def _test(rows):
    """A test of rows (case -> row) in-process; one case "" is an unparametrized test."""
    def test(self, tmp_path, case):
        assert contracts.run(rows[case], in_process, tmp_path) == []
    if list(rows) == [""]:
        return lambda self, tmp_path: test(self, tmp_path, "")
    return pytest.mark.parametrize("case", list(rows))(test)


def with_rows(cls):
    """cls with a test for each row named cls.__name__::test or ::test[case]."""
    tests = {}
    for row in contracts.ROWS:
        owner, _, test = row.id.partition("::")
        if owner == cls.__name__:
            name, _, case = test.partition("[")
            tests.setdefault(name, {})[case[:-1]] = row
    for name, rows in tests.items():
        setattr(cls, name, _test(rows))
    return cls


@pytest.mark.parametrize("row", [r for r in contracts.ROWS if "::" not in r.id], ids=lambda r: r.id)
def test_row(tmp_path, row):
    assert contracts.run(row, in_process, tmp_path) == []


def test_every_named_row_has_its_test():
    import test_cli

    for row in contracts.ROWS:
        owner, _, test = row.id.partition("::")
        if test:
            assert hasattr(getattr(test_cli, owner), test.partition("[")[0]), row.id


def test_readme_example_is_the_corpus_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0]) == contracts.corpus("readme")
