"""``tools/gen_corpus.py`` still writes the committed corpus, byte for byte.

The generator's specification is the source the 38 Markdown files were
written from.  This builds every activity from ``SPECS`` in memory (no
file is written) and compares each rendered text with the committed
file, so a hand edit to the corpus or a drift in the spec or the writer
shows up here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTENT = ROOT / "src" / "repro" / "activities" / "content"


@pytest.fixture(scope="module")
def generated() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "gen_corpus", ROOT / "tools" / "gen_corpus.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while loading.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    texts = {}
    for activity_spec in module.SPECS:
        activity = module.build_activity(activity_spec)
        texts[f"{activity.name}.md"] = module.write_activity(activity)
    return texts


def test_generator_names_every_committed_file(generated):
    assert sorted(generated) == sorted(p.name for p in CONTENT.glob("*.md"))


def test_generator_writes_the_committed_bytes(generated):
    differing = [name for name, text in sorted(generated.items())
                 if (CONTENT / name).read_bytes() != text.encode("utf-8")]
    assert differing == []
