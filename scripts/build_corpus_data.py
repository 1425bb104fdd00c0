"""Regenerate the packaged corpus data files from the in-code builders.

Run from the repository root after changing the builders or the policy
corpus; the test suite asserts that ``render()`` reproduces every shipped
file byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from acdc_prov.policy import Environment  # noqa: E402
from acdc_prov.scenarios import corpus, corpus_graphs  # noqa: E402
from acdc_prov.storage import save_environment, save_graph  # noqa: E402

CORPUS_DIR = REPO / "src" / "acdc_prov" / "corpus"

SUMMARIES = {
    "p1": "some key was an input to the encapsulation",
    "p2": "some data was an input to the encapsulation",
    "p3": "every key input belongs to the owner directly or through a delegate",
    "p4": "every data input is attributed to the owner",
    "p5": "the capsule was derived from some data",
    "p6": "the capsule was derived from some key",
    "p7": "every key the capsule derives from belongs to the owner",
    "p8": "every data source of the capsule is attributed to the owner",
    "p9": "the capsule was derived from the encapsulation contract",
    "encapsulate_all": "all nine encapsulation checks at once",
    "receipt_attributed": "someone already holds a printed receipt",
    "blacklisted_actor": "a blacklisted account has a machine acting for it",
    "keygen_done": "the key-generation step completed",
    "select_done": "the selection step completed",
    "print_done": "the printing step completed",
    "verify_done": "the verification step completed",
    "count_done": "the counting step completed for some voter's machine",
    "print_receipt_done": "the receipt-printing step completed",
}


def render() -> dict[str, bytes]:
    """Every corpus file, by name, as the builders produce it."""
    files = {
        f"{name}.json": save_graph(graph)
        for name, graph in sorted(corpus_graphs().items())
    }
    for entry in corpus():
        text = f"# {entry.name}: {SUMMARIES[entry.name]}\n{entry.source}\n"
        files[f"{entry.name}.pol"] = text.encode("utf-8")
        files[f"{entry.name}.env.json"] = save_environment(entry.environment)
    files["blacklist_bob.env.json"] = save_environment(
        Environment(sets={"blacklist": frozenset({"Bob"})})
    )
    return files


def main() -> None:
    CORPUS_DIR.mkdir(exist_ok=True)
    for name, data in render().items():
        (CORPUS_DIR / name).write_bytes(data)
    files = sorted(p.name for p in CORPUS_DIR.iterdir())
    print(f"wrote {len(files)} files to {CORPUS_DIR}")


if __name__ == "__main__":
    main()
