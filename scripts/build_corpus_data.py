"""Regenerate the packaged graph documents from the in-code builders.

Run from the repository root after changing a graph builder; the test
suite asserts that ``render()`` reproduces every shipped graph document
byte for byte. The policy (``.pol``) and environment (``.env.json``)
files in the same directory are the corpus's source and are edited by
hand.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from acdc_prov.scenarios import corpus_graphs  # noqa: E402
from acdc_prov.storage import save_graph  # noqa: E402

CORPUS_DIR = REPO / "src" / "acdc_prov" / "corpus"


def render() -> dict[str, bytes]:
    """Every graph document, by file name, as the builders produce it."""
    return {
        f"{name}.json": save_graph(graph)
        for name, graph in sorted(corpus_graphs().items())
    }


def main() -> None:
    rendered = render()
    for name, data in rendered.items():
        (CORPUS_DIR / name).write_bytes(data)
    print(f"wrote {len(rendered)} graph documents to {CORPUS_DIR}")


if __name__ == "__main__":
    main()
