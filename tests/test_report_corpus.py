"""Every CLI report of the generated corpus (tests/report_corpus.py), byte
for byte: each input's (argv, exit code, stdout, stderr) records keep their
pinned digest. A change that alters a report re-pins the corpus with
``PYTHONPATH=src python tests/report_corpus.py``."""

import json

import pytest

from report_corpus import PINS, files_digest, generate, report_digest

PINNED = json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return directory, generate(directory)


def test_the_generated_files_keep_their_digest(corpus):
    directory, runs = corpus
    assert sorted(runs) == sorted(PINNED["reports"])
    assert files_digest(directory) == PINNED["files"]


@pytest.mark.parametrize("name", sorted(PINNED["reports"]))
def test_each_input_keeps_its_report_digest(corpus, monkeypatch, name):
    directory, runs = corpus
    monkeypatch.chdir(directory)  # the records quote file names as given
    assert report_digest(runs[name]) == PINNED["reports"][name]
