"""Seeded input generation: everything a workload feeds the program.

The same seed gives the same inputs.  The packaged corpus is only ever
read; every workload that edits or scales it works on a copy under the
run's work directory.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

#: Medium vocabulary the activity schema accepts; tag edits draw from it.
MEDIUMS = ("analogy", "roleplay", "game", "paper", "board", "cards", "pens",
           "coins", "food", "music")

#: Simulations whose points at n=8 and n=32 take about 41 ms together
#: (on a 2-core shared VM), and two whose points take about 21 ms each,
#: so that both of them cost as much as one heavy slug.  A batch job
#: holds one heavy slug or both medium ones, so fresh jobs form one
#: group (median about 45 ms).  The three costliest slugs in turn would
#: make jobs of ~57, ~57 and ~37 ms, and with 25 % of jobs cached the
#: median job would fall on the edge between the cheap third and the
#: rest, so that it jumped between them from run to run.
#: ``nondeterministicsorting`` is left out: at n=32 one point takes over
#: 200 ms, so a few draws would swing a run.
HEAVY_SLUGS = ("stableleaderelection", "topologyyarnweb")
MEDIUM_SLUGS = ("selfstabilizingtokenring", "speedupjigsaw")

_FRONT_LINE = re.compile(r'^(?P<key>[a-z0-9]+): (?P<value>.*)$', re.M)


def packaged_corpus(root: Path) -> Path:
    return root / "src" / "repro" / "activities" / "content"


def copy_corpus(root: Path, dest: Path) -> Path:
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(packaged_corpus(root), dest)
    return dest


def front_value(text: str, key: str):
    for match in _FRONT_LINE.finditer(text.split("\n---\n", 1)[0]):
        if match.group("key") == key:
            return json.loads(match.group("value"))
    raise KeyError(key)


def set_front_value(text: str, key: str, value) -> str:
    head, sep, body = text.partition("\n---\n")
    pattern = re.compile(rf'^{key}: .*$', re.M)
    if not pattern.search(head):
        raise KeyError(key)
    line = f"{key}: {json.dumps(value)}"
    return pattern.sub(lambda _m: line, head, count=1) + sep + body


def swap_medium(text: str, rng: random.Random) -> tuple[str, str]:
    """Replace one medium tag with an unused one; returns (text, new term)."""
    current = front_value(text, "medium")
    unused = [m for m in MEDIUMS if m not in current]
    new = rng.choice(unused)
    changed = list(current)
    changed[rng.randrange(len(changed))] = new
    return set_front_value(text, "medium", changed), new


# -- fleet: a scaled corpus ---------------------------------------------------


def scaled_corpus(root: Path, dest: Path, copies: int, seed: int) -> int:
    """The 38 activities ``copies`` times, with unique slugs and titles.

    Copy 0 is the packaged corpus unchanged; every further copy renames
    the slug and title and, for about half the files, swaps one medium
    tag, so term pages differ between copies.  Standards tags are kept,
    so the coverage tables scale by exactly ``copies``.
    """
    rng = random.Random(f"fleet-corpus:{seed}")
    copy_corpus(root, dest)
    sources = sorted(dest.glob("*.md"))
    for k in range(1, copies):
        for path in sources:
            text = path.read_text(encoding="utf-8")
            title = front_value(text, "title")
            text = set_front_value(text, "title", f"{title} {k}")
            if rng.random() < 0.5:
                text, _term = swap_medium(text, rng)
            (dest / f"{path.stem}c{k}.md").write_text(text, encoding="utf-8")
    return len(sources) * copies


def vocabulary(corpus: Path) -> list[str]:
    """Distinct words of five or more letters in the corpus bodies."""
    words: set[str] = set()
    for path in sorted(corpus.glob("*.md")):
        body = path.read_text(encoding="utf-8").split("\n---\n", 1)[-1]
        words.update(w.lower() for w in re.findall(r"[A-Za-z]{5,}", body))
    return sorted(words)


def tenant_config(seed: int) -> tuple[dict, dict[str, float]]:
    """A tenants file whose tiers the offered load cannot exhaust, plus a
    seeded key mix (key -> relative weight)."""
    rng = random.Random(f"tenants:{seed}")
    tiers = {
        "campus": {"requests_per_window": 10_000_000, "burst": 1_000_000},
        "classroom": {"requests_per_window": 1_000_000, "burst": 100_000},
        "unlimited": {"requests_per_window": None},
    }
    keys, mix = {}, {}
    names = sorted(tiers)
    for i in range(8):
        key = f"key-{seed}-{i}"
        keys[key] = {"tenant": f"tenant{i}", "tier": names[i % len(names)]}
        # Assumed weights: no traffic record exists to draw from.  Within
        # a factor of five of each other, so every tier and tenant sees
        # traffic in every window and none dominates.
        mix[key] = round(rng.uniform(0.2, 1.0), 3)
    config = {"window_s": 10, "tiers": tiers, "default_tier": "classroom",
              "keys": keys}
    return config, mix


# -- author: an edit script ---------------------------------------------------


EDIT_KINDS = ("body", "tag", "title", "new")


class EditScript:
    """An endless seeded stream of corpus edits, applied to a content dir.

    The original activities are taken in a seeded order, and each gets
    the four kinds in turn: body, tag, title, new (a copy under a new
    slug).  Every run thus edits the same files the same way, only in
    another order.  Once ``MAX_COPIES`` copies exist, each new copy
    replaces the oldest, so the corpus stops growing and later edits
    cost the same as earlier ones.  Each edit returns what must become
    visible: a URL and a marker string the page there must contain
    afterwards.
    """

    #: New activities kept at once; older copies are deleted.
    MAX_COPIES = 8

    def __init__(self, content: Path, seed: int):
        self.content = content
        self.rng = random.Random(f"edits:{seed}")
        self.seed = seed
        self.count = 0
        self.order = sorted(content.glob("*.md"))
        self.rng.shuffle(self.order)
        self.copies: list[Path] = []

    def next_edit(self) -> dict:
        kind = EDIT_KINDS[self.count % len(EDIT_KINDS)]
        path = self.order[self.count // len(EDIT_KINDS) % len(self.order)]
        self.count += 1
        text = path.read_text(encoding="utf-8")
        marker = f"edit{self.seed}n{self.count}"
        url = f"/activities/{path.stem}/"
        if kind == "body":
            sentence = f"Revision {marker} adds a classroom note."
            text = text.replace("## Accessibility\n\n",
                                f"## Accessibility\n\n{sentence} ", 1)
            marker = sentence
        elif kind == "tag":
            # Medium terms show as membership of the term's listing page.
            text, term = swap_medium(text, self.rng)
            marker, url = url, f"/medium/{term}/"
        elif kind == "title":
            title = front_value(text, "title")
            text = set_front_value(text, "title", f"{title} {marker}")
        else:
            title = front_value(text, "title")
            text = set_front_value(text, "title", f"{title} {marker}")
            path = self.content / f"{path.stem}{marker}.md"
            url = f"/activities/{path.stem}/"
            self.copies.append(path)
            if len(self.copies) > self.MAX_COPIES:
                self.copies.pop(0).unlink()
        path.write_text(text, encoding="utf-8")
        return {"kind": kind, "path": path, "marker": marker, "url": url}


# -- batch: sweep job specs ---------------------------------------------------


def sweep_jobs(slugs: list[str], seed: int):
    """An endless seeded stream of sweep specs (JSON dicts).

    Each job is two ordinary slugs, taken in turn from a seeded
    permutation (so every run covers the simulations evenly), plus in
    turn one heavy slug or both medium ones, x sizes {8, 32} x one
    seed: 6 or 8 points.  Every fourth job repeats an earlier job
    exactly, so a quarter of submitted jobs are already in the result
    store.  Repeats are drawn from jobs at least eight back, so the
    original has finished by then.
    """
    rng = random.Random(f"sweeps:{seed}")
    costly = [[HEAVY_SLUGS[0]], list(MEDIUM_SLUGS), [HEAVY_SLUGS[1]],
              list(MEDIUM_SLUGS)]
    ordinary = [s for s in slugs if s not in HEAVY_SLUGS + MEDIUM_SLUGS
                and s != "nondeterministicsorting"]
    rng.shuffle(ordinary)
    issued: list[dict] = []
    position = 0
    while True:
        if len(issued) % 4 == 3:
            spec = dict(rng.choice(issued[:max(1, len(issued) - 8)]))
        else:
            pair = [ordinary[(position + i) % len(ordinary)] for i in (0, 1)]
            spec = {"slugs": pair + costly[(position // 2) % len(costly)],
                    "sizes": [8, 32],
                    "seeds": [rng.randrange(1_000_000)]}
            position += 2
        issued.append(spec)
        yield spec
