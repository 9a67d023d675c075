"""Loading helpers for the plain-text fixture tables shipped with the
package.  Format: one colored partition per line as color:degree tokens,
with `|` separating a partition from a marked embedding where applicable;
blank lines and `#` comments are skipped."""

from __future__ import annotations

import importlib.resources as resources

from .partitions import Part, parse_partition


def _fixture_text(name: str) -> str:
    return resources.files("affbasis").joinpath(f"fixtures/{name}").read_text()


def _data_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def load_lemma12_fixture() -> set[tuple[tuple[Part, ...], tuple[Part, ...]]]:
    out = set()
    for line in _data_lines(_fixture_text("lemma12_overlaps.txt")):
        pi_text, rho_text = line.split("|")
        out.add((parse_partition(pi_text), parse_partition(rho_text)))
    return out
