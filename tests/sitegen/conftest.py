"""Fixtures shared by the site-generator tests."""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def scaled_catalog(tmp_path_factory):
    """The 456-file corpus the ``fleet`` benchmark workload serves."""
    from perfbench.inputs import scaled_corpus
    from repro.activities.catalog import Catalog

    content = tmp_path_factory.mktemp("scaled") / "content"
    scaled_corpus(Path(__file__).resolve().parents[2], content, 12, 1)
    return Catalog.from_directory(content)
