"""Fixture loaders for the tests: the transcribed color-pair tables and the
lemma 7 partition lists, which live under ``tests/fixtures/`` as no verify
target reads them, and the JSON schema of a verify report, shipped with the
package.  The fixtures are plain text written down from the paper,
independent of the code that computes the tables; the loaders share only
the line reader ``_data_lines`` with ``fixture_io.load_lemma12_fixture``."""

import json
from pathlib import Path

from affbasis.fixture_io import _data_lines, _fixture_text
from affbasis.partitions import parse_partition

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _test_fixture_lines(name: str) -> list[str]:
    return _data_lines((FIXTURES / name).read_text())


def load_color_pairs(name: str) -> list[tuple[int, int]]:
    return [(int(line[0]), int(line[1])) for line in _test_fixture_lines(name)]


def load_partitions(name: str) -> list:
    return [parse_partition(line) for line in _test_fixture_lines(name)]


def load_report_schema() -> dict:
    return json.loads(_fixture_text("report_schema.json"))
