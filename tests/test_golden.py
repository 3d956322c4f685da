"""Every record of the golden corpus (see golden_corpus.py) is reproduced
byte for byte."""

import json

import pytest

import golden_corpus


def test_golden_records_unchanged(tmp_path):
    pinned = json.loads(golden_corpus.CORPUS.read_text())
    env = golden_corpus.environment()
    if {key: pinned[key] for key in env} != env:
        pytest.skip(f"the corpus was made under {pinned['python']}/numpy "
                    f"{pinned['numpy']}, not {env['python']}/numpy {env['numpy']}")
    got = golden_corpus.compute(tmp_path)
    assert list(got) == list(pinned["runs"]), "the run list changed: regenerate"
    changed = [f"{name} (records under {tmp_path / f'{i:03d}'})"
               for i, (name, digest) in enumerate(got.items())
               if digest != pinned["runs"][name]]
    assert not changed, "changed runs:\n" + "\n".join(changed)


def test_corpus_diff_names_added_removed_and_changed_runs():
    pinned = {"a": "1", "b": "2", "c": "3"}
    got = {"a": "1", "c": "4", "d": "5"}
    assert golden_corpus.diff(pinned, got) == [
        "added: d", "removed: b", "changed: c"]
    assert golden_corpus.diff(pinned, pinned) == []


@pytest.mark.parametrize("copy, original", golden_corpus.DUPLICATES.items())
def test_duplicate_configs_equal_their_originals(copy, original):
    """A config the corpus skips as a duplicate still equals its original
    once comment lines are stripped, so the skip hides no divergence."""
    def body(rel):
        return [line for line in (golden_corpus.ROOT / rel).read_text().splitlines()
                if not line.lstrip().startswith("#")]
    assert body(copy) == body(original)
