"""Fixture loaders for the tests, kept as they were in
``affbasis.fixture_io``: the transcribed color-pair tables, the lemma 7
partition lists and the JSON schema of a verify report.  The fixtures are
plain text written down from the paper, independent of the code that
computes the tables; the loaders share only the line reader
``_data_lines`` with ``fixture_io.load_lemma12_fixture``."""

import json

from affbasis.fixture_io import _data_lines, _fixture_text
from affbasis.partitions import parse_partition


def load_color_pairs(name: str) -> list[tuple[int, int]]:
    return [(int(line[0]), int(line[1])) for line in _data_lines(name)]


def load_partitions(name: str) -> list:
    return [parse_partition(line) for line in _data_lines(name)]


def load_report_schema() -> dict:
    return json.loads(_fixture_text("report_schema.json"))
