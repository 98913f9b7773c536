"""Compare the documents fmtderive wrote with the corpus's expected documents.

Documents are matched by their `file` attribute and content, not by on-disk
name, so a document that another one overwrote (two sources writing the same
data file into one output directory) shows up as lost.  <note> elements are
not compared.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from corpus import Corpus, ExpectedDoc


# The one tolerated failure: two sources write a data file of the same name
# into one output directory, and the later document replaces the earlier.
LOST = "lost: another source's document has its name"


@dataclass
class Verdict:
    expected: int
    failures: list[tuple[ExpectedDoc, str]] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)  # emitted files matching no expectation

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def dropped(self) -> list[tuple[ExpectedDoc, str]]:
        """Failures other than a name collision: missing or different documents."""
        return [(doc, reason) for doc, reason in self.failures if reason != LOST]

    @property
    def ok(self) -> bool:
        return not self.wrong and not self.dropped


def _expected_key(doc: ExpectedDoc):
    groups = tuple(
        (g.number, g.resolved, g.separator, g.conditional, g.fields) for g in doc.groups)
    return doc.file, doc.direction, groups


def _emitted_key(root: ET.Element):
    groups = []
    for group in root.iter("group"):
        resolved = group.get("resolved")
        if group.get("resolution") != "default":
            resolved = None
        groups.append((
            group.get("number"),
            int(resolved) if resolved is not None else None,
            group.get("separator"),
            group.get("conditional") == "true",
            tuple((child.tag, child.get("format")) for child in group),
        ))
    return root.get("file"), root.get("direction"), tuple(groups)


def check(corpus: Corpus, out_dir: Path) -> Verdict:
    """Match every expected document against the files in `out_dir`."""
    emitted: dict[str, list] = defaultdict(list)  # file attribute -> documents
    verdict = Verdict(len(corpus.docs))
    for path in sorted(out_dir.iterdir()):
        try:
            key = _emitted_key(ET.parse(path).getroot())
        except ET.ParseError as err:
            verdict.wrong.append(f"{path.name}: not well-formed XML ({err})")
            continue
        emitted[key[0]].append(key)

    expected_keys = {_expected_key(doc) for doc in corpus.docs}
    unmatched = Counter(key for keys in emitted.values() for key in keys)
    verdict.wrong += [f"{key[0]}: emitted document matches no expectation"
                      for key in unmatched if key not in expected_keys]
    for doc in corpus.docs:
        key = _expected_key(doc)
        if unmatched[key] > 0:
            unmatched[key] -= 1
        elif doc.file not in emitted:
            verdict.failures.append((doc, "missing"))
        elif all(k in expected_keys for k in emitted[doc.file]):
            verdict.failures.append((doc, LOST))
        else:
            verdict.failures.append((doc, "differs from the expected document"))
    return verdict


def digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every emitted document."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
