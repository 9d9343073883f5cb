"""The committed CLI answer corpus (``tests/make_cli_corpus.py``), replayed:
every entry gives the same exit code, stdout and stderr, byte for byte, in
``--format json`` and ``--format text``."""

import json

import pytest

from make_cli_corpus import CORPUS, FORMATS, capture, entries

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]


def test_corpus_lists_every_entry_of_the_script():
    assert [(e["name"], e["argv"], e["spec"]) for e in ENTRIES] == [
        (name, argv, spec) for name, argv, spec in entries()]


def test_corpus_covers_every_subcommand_and_verdict_code():
    commands = {e["argv"][0] for e in ENTRIES if e["argv"]}
    assert commands >= {"verify-cocycle", "cohomology-dim", "obstruction", "integrability",
                        "flat-deform", "example1", "lemma23"}
    assert {run["exit"] for e in ENTRIES for run in e["runs"].values()} == {0, 1, 2, 64}


@pytest.mark.parametrize("entry,fmt", [(e, fmt) for e in ENTRIES for fmt in FORMATS],
                         ids=[f"{e['name']}-{fmt}" for e in ENTRIES for fmt in FORMATS])
def test_entry_replays_byte_for_byte(tmp_path, entry, fmt):
    assert capture(entry["argv"], entry["spec"], fmt, tmp_path) == entry["runs"][fmt]
